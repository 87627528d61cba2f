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
    # every entry of the table at k <= 5 against t p t^{-1} by composition;
    # bit t of inverting[p] is set iff that conjugate is p^{-1}
    for k in range(1, 6):
        sk, index, conj, inverting, _ = perms.conjugation_table(k)
        assert sk == tuple(perms.all_perms(k))
        assert [index[p] for p in sk] == list(range(len(sk)))
        assert len(inverting) == len(sk)
        for p in sk:
            mask = inverting[index[p]]
            assert type(mask) is int and 0 < mask < 1 << len(sk)
            for t in sk:
                want = perms.compose(t, perms.compose(p, perms.inverse(t)))
                assert sk[conj[index[t], index[p]]] == want
                assert bool(mask >> index[t] & 1) == (want == perms.inverse(p))


def test_conjugation_table_shape_and_degree_bound():
    sk, index, conj, inverting, _ = perms.conjugation_table(6)
    assert len(sk) == len(index) == len(inverting) == 720
    assert conj.shape == (720, 720) and conj.dtype == np.int16
    assert perms.conjugation_table(6)[2] is conj  # built once per degree
    for k in (0, perms.MAX_DEGREE + 1):
        with pytest.raises(ValueError, match="degree"):
            perms.conjugation_table(k)


@pytest.mark.parametrize("k, total", [(1, 1), (2, 4), (3, 18), (4, 120), (5, 840), (6, 7920)])
def test_lead_lists_the_minimisers_of_each_column(k, total):
    # the lead sizes sum to k! times the number of partitions of k
    sk, _, conj, _, lead = perms.conjugation_table(k)
    assert len(lead) == len(sk)
    assert sum(len(rows) for rows in lead) == total
    for p, rows in enumerate(lead):
        column = conj[:, p]
        assert rows.tolist() == np.flatnonzero(column == column.min()).tolist()
        assert len(set(column[rows].tolist())) == 1
        # a coset of p's centraliser
        assert len(rows) == np.count_nonzero(column == p)


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


def test_parse_perm_names_the_text_of_a_bad_point():
    # range and repeats are from_cycles' to check; the message quotes the 1-based text
    for text in ("(14)", "(12)(21)", "(121)"):
        with pytest.raises(ValueError, match=r"^'\(1.*' is not a permutation of 1\.\.3"):
            perms.parse_perm(text, 3)


def test_from_cycles_refuses_what_is_not_a_permutation():
    for cycs, message in (
        ([()], "empty cycle"),
        ([(0, 1), (1, 2)], r"point 1 of cycle \(1, 2\) is repeated"),
        ([(0, 1), (0, 1)], "point 0 of cycle .* is repeated"),
        ([(0, 1, 0)], "point 0 of cycle .* is repeated"),
        ([(0, 3)], r"point 3 of cycle \(0, 3\) out of range 0\.\.2"),
        ([(-1, 0)], "point -1 .* out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            perms.from_cycles(3, cycs)
    assert perms.from_cycles(3, [[2, 0]]) == (2, 1, 0)  # any sequence of points is a cycle


def test_cycles_refuses_a_non_permutation_at_once():
    # a walk that meets a seen point, or leaves 0..len-1, would never close
    for p in ((1, 1, 0), (0, 0), (1, 2, 5), (2, -1, 0)):
        for walk in (perms.cycles, perms.format_perm):
            with pytest.raises(ValueError, match="is not a permutation of 0.."):
                walk(p)


def test_format_perm():
    assert perms.format_perm((0, 1, 2)) == "e"
    assert perms.format_perm((1, 2, 0)) == "(123)"
    assert perms.format_perm((1, 0, 2)) == "(12)"
    assert perms.format_perm(perms.from_cycles(5, [(0, 1), (2, 3, 4)])) == "(345)(12)"


def test_format_parse_roundtrip():
    for p in itertools.permutations(range(4)):
        assert perms.parse_perm(perms.format_perm(p), 4) == p
