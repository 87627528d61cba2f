import itertools

import numpy as np
import pytest

from tninv import perms


def test_compose_and_inverse():
    p = (1, 2, 0, 3)
    q = (0, 3, 2, 1)
    pq = perms.compose(p, q)
    assert pq == tuple(p[q[x]] for x in range(4))
    assert perms.compose(p, perms.inverse(p)) == perms.identity_perm(4)
    assert perms.compose(perms.inverse(p), p) == perms.identity_perm(4)


def test_conjugate_definition():
    # every entry of the table at k <= 5 against t p t^{-1} by composition
    for k in range(1, 6):
        sk, index, conj, inv = perms.conjugation_table(k)
        assert sk == tuple(perms.all_perms(k))
        assert [index[p] for p in sk] == list(range(len(sk)))
        for p in sk:
            assert sk[inv[index[p]]] == perms.inverse(p)
            for t in sk:
                want = perms.compose(t, perms.compose(p, perms.inverse(t)))
                assert sk[conj[index[t], index[p]]] == want


def test_conjugation_table_shape_and_degree_bound():
    sk, index, conj, inv = perms.conjugation_table(6)
    assert len(sk) == len(index) == 720
    assert conj.shape == (720, 720) and conj.dtype == inv.dtype == np.int16
    assert perms.conjugation_table(6)[2] is conj  # built once per degree
    for k in (0, perms.MAX_DEGREE + 1):
        with pytest.raises(ValueError, match="degree"):
            perms.conjugation_table(k)


def test_all_perms_lex_order():
    sk = perms.all_perms(3)
    assert len(sk) == 6
    assert sk == sorted(sk)
    assert sk[0] == (0, 1, 2)


def test_cycles_roundtrip():
    for p in itertools.permutations(range(5)):
        assert perms.from_cycles(5, perms.cycles(p)) == p


def test_cycles_sorted_by_length():
    p = perms.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert perms.cycles(p) == [(2, 3, 4), (0, 1)]


@pytest.mark.parametrize(
    "text,k,want",
    [
        ("e", 3, (0, 1, 2)),
        ("(123)", 3, (1, 2, 0)),
        ("(1 2 3)", 3, (1, 2, 0)),
        ("(1,2,3)", 3, (1, 2, 0)),
        ("(321)", 3, (2, 0, 1)),  # same cycle written backwards = inverse of (123)
        ("(12)(3)", 3, (1, 0, 2)),
        ("(12)(34)", 4, (1, 0, 3, 2)),
        ("  (12)  ", 2, (1, 0)),
    ],
)
def test_parse_perm(text, k, want):
    assert perms.parse_perm(text, k) == want


def test_parse_perm_errors():
    with pytest.raises(ValueError):
        perms.parse_perm("(14)", 3)  # point out of range
    with pytest.raises(ValueError):
        perms.parse_perm("(12)(21)", 3)  # repeated point
    with pytest.raises(ValueError):
        perms.parse_perm("12", 3)  # no cycle parentheses
    with pytest.raises(ValueError):
        perms.parse_perm("(12) junk", 3)
    for text in ("()", "( )", "(,)", "(12)()"):
        with pytest.raises(ValueError, match="empty cycle"):
            perms.parse_perm(text, 3)


def test_format_perm():
    assert perms.format_perm((0, 1, 2)) == "e"
    assert perms.format_perm((1, 2, 0)) == "(123)"
    assert perms.format_perm((1, 0, 2)) == "(12)"
    assert perms.format_perm(perms.from_cycles(5, [(0, 1), (2, 3, 4)])) == "(345)(12)"


def test_format_parse_roundtrip():
    for p in itertools.permutations(range(4)):
        assert perms.parse_perm(perms.format_perm(p), 4) == p
