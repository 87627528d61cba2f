import hashlib
import itertools
import json
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tninv import cli, invariants, perms, states
from tninv import (
    ContractionCost,
    PermTuple,
    StateData,
    Tensor,
    ShapeError,
    canonicalize,
    conjugate_tuple,
    connected_components,
    component_subtuples,
    enumerate_invariants,
    evaluate,
    evaluate_fast,
    evaluate_many,
    format_label,
    is_real_guaranteed,
    max_unitary_deviation,
    parse_label,
    permutation_operator,
    pure_jk,
    reduced_power_label,
    verify_classes,
    random_pure_state,
    density_from_pure,
    save_state,
)
from tninv.cli import VERIFY_THRESHOLD, main
from tninv.states import apply_local_unitary, random_local_unitary

from test_states import DENSITY_LIMIT

RNG = np.random.default_rng(991)


def crand(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def random_density(d, rng=RNG):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def kron_power(mat, k):
    out = mat
    for _ in range(k - 1):
        out = np.kron(out, mat)
    return out


# ------------------------------------------------------------------ labels


def test_label_roundtrip():
    for text in ["2; (12)", "3; (123) | (12)", "3; e | (123)", "1; e"]:
        t = parse_label(text)
        assert format_label(t) == text
        assert parse_label(format_label(t)) == t


def test_label_whitespace_insignificant():
    assert parse_label(" 3 ;(123)|  (12) ") == parse_label("3; (123) | (12)")


def test_label_errors():
    with pytest.raises(ValueError):
        parse_label("3 (123)")  # missing separator
    with pytest.raises(ValueError):
        parse_label("x; (12)")
    with pytest.raises(ValueError):
        parse_label("2; (13)")  # point out of range for degree 2


def test_permtuple_keeps_its_label_outside_eq_hash_repr_and_pickle():
    t = parse_label("3; (123) | (12) | e")
    twin = PermTuple(t.k, t.sigmas)
    before = (hash(t), repr(t), pickle.dumps(t))
    label = t.label()
    assert label == "3; (123) | (12) | e" and t.label() is label  # formatted once, then kept
    assert (t == twin, hash(t), repr(t)) == (True, before[0], before[1])
    for back in (pickle.loads(before[2]), pickle.loads(pickle.dumps(t))):
        assert (back == t, hash(back), repr(back)) == (True, before[0], before[1])
        assert back.label() == label


def test_permtuple_validation():
    with pytest.raises(ValueError):
        PermTuple(2, ((0, 0),))
    with pytest.raises(ValueError):
        PermTuple(0, ((),))
    with pytest.raises(ValueError):
        PermTuple(2, ())


# ----------------------------------------------------------- canonical form


def test_canonicalize_transposition_tuple_is_fixed():
    t = PermTuple(2, ((1, 0), (0, 1)))
    assert canonicalize(t) == t


def test_canonicalize_merges_conjugate_cycles():
    # (123) and (132) = tau (123) tau^-1 for a transposition tau
    a = canonicalize(PermTuple(3, ((1, 2, 0),)))
    b = canonicalize(PermTuple(3, ((2, 0, 1),)))
    assert a == b
    # spot-check by enumerating all six conjugations explicitly
    orbit = {
        conjugate_tuple(PermTuple(3, ((1, 2, 0),)), tau).sigmas
        for tau in itertools.permutations(range(3))
    }
    assert (2, 0, 1) in {s[0] for s in orbit}


def test_canonicalize_distinguishes_cycle_orientations():
    # the two bipartite degree-3 "double cycle" diagrams are distinct
    same = PermTuple(3, ((1, 2, 0), (1, 2, 0)))
    opposite = PermTuple(3, ((1, 2, 0), (2, 0, 1)))
    assert canonicalize(same) != canonicalize(opposite)


def test_canonicalize_idempotent_and_orbit_constant():
    # exhaustive over n = 2, k <= 3 plus orbit reps at k = 4
    for k in (2, 3):
        sk = list(itertools.permutations(range(k)))
        for sigmas in itertools.product(sk, repeat=2):
            t = PermTuple(k, sigmas)
            c = canonicalize(t)
            assert canonicalize(c) == c
            for tau in sk:
                assert canonicalize(conjugate_tuple(t, tau)) == c
    for cls in enumerate_invariants(2, 4):
        rep = cls.representative
        assert canonicalize(rep) == rep
        for tau in itertools.permutations(range(4)):
            assert canonicalize(conjugate_tuple(rep, tau)) == rep


# ------------------------------------------------------------- enumeration


def test_enumerate_single_subsystem_counts():
    # one class per conjugacy class of S_k, i.e. partitions of k
    assert [len(enumerate_invariants(1, k)) for k in (1, 2, 3, 4)] == [1, 2, 3, 5]


def test_enumerate_k1():
    classes = enumerate_invariants(1, 1)
    assert len(classes) == 1
    assert classes[0].label() == "1; e"


def test_enumerate_n1_k2_labels():
    labels = [c.label() for c in enumerate_invariants(1, 2)]
    assert labels == ["2; e", "2; (12)"]


def brute_force_orbits(n, k):
    """Independent BFS orbit enumeration, all raw loops."""
    sk = list(itertools.permutations(range(k)))

    def conj(p, t):
        out = [0] * k
        for i in range(k):
            out[t[i]] = t[p[i]]
        return tuple(out)

    pool = set(itertools.product(sk, repeat=n))
    orbits = []
    while pool:
        t0 = next(iter(pool))
        orbit = {tuple(conj(s, tau) for s in t0) for tau in sk}
        pool -= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("n,k", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_enumerate_matches_brute_force(n, k):
    classes = enumerate_invariants(n, k)
    orbits = brute_force_orbits(n, k)
    assert len(classes) == len(orbits)
    # each representative sits in exactly one brute-force orbit, with
    # matching orbit size, and representatives cover all orbits
    reps = {c.representative.sigmas: c.orbit_size for c in classes}
    hit = 0
    for orbit in orbits:
        inside = [r for r in reps if r in orbit]
        assert len(inside) == 1
        assert reps[inside[0]] == len(orbit)
        hit += 1
    assert hit == len(reps)


def partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def burnside_count(n, k):
    """Orbits of S_k on S_k^n by simultaneous conjugation.

    Burnside: the mean over tau of |centralizer(tau)|^n, i.e. the sum over
    cycle types lambda of z_lambda^(n-1), z_lambda = prod_i i^m_i m_i!.
    """
    total = 0
    for lam in partitions(k):
        z = math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam))
        total += z ** (n - 1)
    return total


# every (n, k) the catalog benchmark lists, the three largest grids, and the
# deepest walks past and at the memo bound
@pytest.mark.parametrize(
    "n,k",
    [(2, 4), (3, 3), (4, 3), (2, 5), (3, 4), (5, 3), (1, 6), (2, 6), (3, 5), (4, 4),
     (6, 3), (12, 2)],
)
def test_enumerate_matches_burnside(n, k):
    classes = enumerate_invariants(n, k)
    assert len(classes) == burnside_count(n, k)
    assert sum(c.orbit_size for c in classes) == math.factorial(k) ** n
    assert all(type(c.orbit_size) is int for c in classes)
    codes = [c.representative.sigmas for c in classes]
    assert codes == sorted(codes)
    # each representative is its own orbit minimum by the independent lead
    # path, and its orbit size is k! over the relabellings fixing every sigma
    _, index, conj, _, _ = perms.conjugation_table(k)
    for c in classes:
        rep = c.representative
        assert canonicalize(rep) == rep
        idx = [index[s] for s in rep.sigmas]
        stabiliser = np.count_nonzero((conj[:, idx] == idx).all(axis=1))
        assert c.orbit_size == math.factorial(k) // stabiliser


def test_enumerate_orbit_sizes_sum():
    for n, k in [(1, 4), (2, 3)]:
        classes = enumerate_invariants(n, k)
        assert sum(c.orbit_size for c in classes) == math.factorial(k) ** n


def test_enumerate_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_invariants(1, 0)
    with pytest.raises(ValueError):
        enumerate_invariants(1, 7)
    with pytest.raises(ValueError):
        enumerate_invariants(0, 2)
    with pytest.raises(ValueError, match="more than 400000"):
        enumerate_invariants(9, 6)


def test_enumeration_bound_is_the_exact_class_count(monkeypatch):
    assert invariants.MAX_CLASSES == 400_000 and invariants.MAX_SUBSYSTEMS == 32
    # the documented largest grids stay within the bound
    assert burnside_count(5, 4) == 336465 and burnside_count(8, 3) == 282251
    for n, k in [(1, 1), (4, 2), (3, 3), (5, 3), (2, 4), (1, 6)]:
        count = burnside_count(n, k)
        clear_memos()
        monkeypatch.setattr(invariants, "MAX_CLASSES", count)
        assert len(enumerate_invariants(n, k)) == count
        clear_memos()
        monkeypatch.setattr(invariants, "MAX_CLASSES", count - 1)
        with pytest.raises(ValueError, match=f"has {count} classes, more than {count - 1}"):
            enumerate_invariants(n, k)


@pytest.mark.parametrize(
    "n, k, message",
    [
        (23, 2, "has 8388608 classes, more than 400000"),
        (19, 2, "has 524288 classes"),
        (3, 6, "has 524137 classes"),
        (33, 1, "n=33 subsystems, more than 32"),
        (10**9, 1, "more than 32"),
    ],
)
def test_enumeration_refuses_before_allocating(n, k, message):
    clear_memos()
    perms.conjugation_table(k)  # built once per process, 1 MB at k = 6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            enumerate_invariants(n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- evaluate


def test_evaluate_purity():
    for d in (2, 3):
        rho = random_density(d)
        t = PermTuple(2, ((1, 0),))
        val = evaluate_fast(t, rho, (d,))
        assert abs(val - np.trace(rho @ rho)) < 1e-12


def test_evaluate_maximally_mixed_qubit():
    t = PermTuple(2, ((1, 0),))
    val = evaluate_fast(t, np.eye(2) / 2, (2,))
    assert abs(val - 0.5) < 1e-14


def test_evaluate_identity_tuple_is_trace_power():
    rho = random_density(4)
    rho = rho * 1.7  # evaluate accepts any square operator
    for k in (1, 2, 3):
        t = PermTuple(k, (tuple(range(k)), ))
        val = evaluate_fast(t, rho, (4,))
        assert abs(val - np.trace(rho) ** k) < 1e-10


def test_evaluate_full_cycle_is_trace_of_power():
    rho = random_density(3)
    for k in (2, 3, 4):
        cyc = tuple(range(1, k)) + (0,)
        t = PermTuple(k, (cyc,))
        val = evaluate_fast(t, rho, (3,))
        want = np.trace(np.linalg.matrix_power(rho, k))
        assert abs(val - want) < 1e-10


def test_evaluate_fast_equals_explicit_oracle():
    # every bipartite qubit class up to degree 3, many random states
    classes = [
        c.representative
        for k in (1, 2, 3)
        for c in enumerate_invariants(2, k)
    ]
    cases = [((2, 2), classes, 100)]
    # unequal dims where equal permutations sit on subsystems 0 and 2, so
    # fusing them must move subsystem 2's legs past subsystem 1's
    split = [
        c.representative
        for k in (2, 3)
        for c in enumerate_invariants(3, k)
        if c.representative.sigmas[0] == c.representative.sigmas[2]
        != c.representative.sigmas[1]
    ]
    cases.append(((2, 3, 2), split, 2))
    # degrees 4 to 6, out of reach of a dense T and rho^(x)k (537 MB at 2 x 2 x 2, k = 4)
    high = [c.representative for k in (4, 5, 6) for c in enumerate_invariants(2, k)]
    cases.append(((2, 2), high, 2))
    quartic = [c.representative for c in enumerate_invariants(3, 4)]
    cases.append(((2, 2, 2), quartic, 1))
    for dims, tuples, states in cases:
        for i in range(states):
            rho = random_density(int(np.prod(dims)))
            for t in tuples:
                fast = evaluate_fast(t, rho, dims)
                ref = evaluate(t, rho, dims)
                assert abs(fast - ref) <= 1e-10 * abs(ref), (dims, t.label())
    # the psi route: k copies of psi and of conj(psi), against the density it stands for
    psi = random_pure_state((2, 2, 2), seed=12)
    rho = density_from_pure(psi)
    for t, fast in zip(quartic, evaluate_many(quartic, StateData.pure(psi), (2, 2, 2))):
        ref = evaluate(t, rho, (2, 2, 2))
        assert abs(fast - ref) <= 1e-10 * abs(ref), t.label()


def test_evaluate_equals_dense_construction():
    # tr(T rho^(x)k) with T and the k-fold power written out as D^k x D^k matrices
    for dims in ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)):
        rho = random_density(int(np.prod(dims)))
        for k in (1, 2, 3):
            power = kron_power(rho, k)
            for c in enumerate_invariants(len(dims), k):
                t = c.representative
                dense = np.einsum("ij,ji->", permutation_operator(t, dims), power)  # tr(T @ power)
                assert abs(evaluate(t, rho, dims) - dense) <= 1e-12 * abs(dense), (dims, t.label())


def test_evaluate_memory_is_the_index_map():
    # about k n D^k indices, not T and rho^(x)k at 2 x 16 x D^(2k) bytes:
    # 8.7 MB at 2 x 2 x 2, k = 3, and 137 GB at 2^4, k = 4
    for dims, label, bound in (
        ((2, 2, 2), "3; (123) | (12) | e", 2**20),
        ((2,) * 4, "4; (1234) | (12)(34) | (13) | e", 64 * 2**20),
    ):
        t, rho = parse_label(label), random_density(int(np.prod(dims)))
        tracemalloc.start()
        try:
            value = evaluate(t, rho, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (label, peak)
        fast = evaluate_fast(t, rho, dims)
        assert abs(value - fast) <= 1e-10 * abs(fast)


def test_evaluate_conjugation_invariance():
    rho = random_density(4)
    for k in (2, 3):
        for cls in enumerate_invariants(2, k):
            t = cls.representative
            base = evaluate_fast(t, rho, (2, 2))
            for tau in itertools.permutations(range(k)):
                val = evaluate_fast(conjugate_tuple(t, tau), rho, (2, 2))
                assert abs(val - base) <= 1e-10 * max(abs(base), 1.0)


def test_evaluate_bipartite_pure_factorizes():
    for seed in range(5):
        psi = random_pure_state((2, 2), seed=seed)
        rho = density_from_pure(psi)
        t = parse_label("3; (123) | (12)")
        val = evaluate_fast(t, rho, (2, 2))
        j1 = pure_jk(psi, ([0], [1]), 1)
        j2 = pure_jk(psi, ([0], [1]), 2)
        assert abs(val - j1 * j2) < 1e-10


def test_evaluate_dims_mismatch():
    rho = random_density(4)
    with pytest.raises(ShapeError):
        evaluate_fast(PermTuple(2, ((1, 0),)), rho, (2, 2, 2))
    with pytest.raises(ShapeError):
        evaluate_fast(PermTuple(2, ((1, 0), (1, 0))), rho, (2,))
    psi = StateData.pure(random_pure_state((2, 2, 2), seed=1))
    with pytest.raises(ShapeError, match=r"^state of size 8 does not match dims \(2, 2\)$"):
        evaluate_many([PermTuple(2, ((1, 0), (1, 0)))], psi, (2, 2))


def test_evaluate_fast_refuses_an_operator_with_more_subsystems_than_a_stack_can_hold():
    one, n = np.ones((1, 1)), DENSITY_LIMIT
    assert evaluate_fast(PermTuple(1, ((0,),) * n), one, (1,) * n) == 1
    past = PermTuple(1, ((0,),) * (n + 1))
    with pytest.raises(ShapeError, match=rf"^dims has {n + 1} entries"):
        evaluate_fast(past, one, (1,) * (n + 1))
    with pytest.raises(ShapeError, match=rf"^dims has {n + 1} entries"):
        verify_classes([past], Tensor(one), (1,) * (n + 1), trials=1)


def test_evaluate_many_names_a_label_that_does_not_fit_the_dims():
    psi = random_pure_state((2, 2, 2), seed=3)
    labels = [parse_label("2; (12) | e | e"), parse_label("2; (12) | e")]
    message = r"^label '2; \(12\) \| e' has 2 subsystems, state has 3$"
    for state in (StateData.pure(psi), density_from_pure(psi)):
        with pytest.raises(ShapeError, match=message):
            evaluate_many(labels, state, (2, 2, 2))
    with pytest.raises(ShapeError, match=message):
        evaluate(labels[1], density_from_pure(psi), (2, 2, 2))
    with pytest.raises(ShapeError, match=message):
        permutation_operator(labels[1], (2, 2, 2))


def test_evaluate_fast_shared_cycle_on_nine_qubits():
    # one fused group: tr(rho^6) over 2^9 dimensions
    rng = np.random.default_rng(44)
    a = rng.standard_normal((512, 3)) + 1j * rng.standard_normal((512, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    t = parse_label("6; " + " | ".join(["(123456)"] * 9))
    want = np.sum(np.linalg.eigvalsh(rho) ** 6)
    assert abs(evaluate_fast(t, rho, (2,) * 9) - want) <= 1e-10 * want


def test_evaluate_fast_label_limit():
    # 9 distinct permutations x degree 6 = 54 indices, over MAX_LABELS (52);
    # the check comes before rho is touched, so a tiny operator will do
    t = parse_label("6; (12) | (13) | (14) | (15) | (16) | (23) | (24) | (25) | (26)")
    with pytest.raises(ShapeError, match="52"):
        evaluate_fast(t, np.eye(512) / 512, (2,) * 9)
    # a shared permutation fuses: 2 groups x 6 = 12 indices
    psi = random_pure_state((2,) * 10, seed=6)
    shared = parse_label("6; " + " | ".join(["(123456)"] * 5 + ["e"] * 5))
    val = evaluate_fast(shared, density_from_pure(psi), (2,) * 10)
    assert abs(val - pure_jk(psi, (list(range(5)), list(range(5, 10))), 6)) < 1e-12


def test_evaluate_fast_pure_form_matches_rho_form():
    psi = random_pure_state((2, 3, 2, 2), seed=61)
    rho = density_from_pure(psi)
    # the same state read as 1, 2, 3 and 4 subsystems
    for dims in ((24,), (2, 12), (2, 3, 4), (2, 3, 2, 2)):
        pure = StateData.pure(psi, dims)
        for k in (1, 2, 3):
            for c in enumerate_invariants(len(dims), k):
                t = c.representative
                want = evaluate_fast(t, rho, dims)
                got = evaluate_fast(t, pure, dims)
                assert abs(got - want) <= 1e-12 * abs(want), (dims, t.label())
    pure = StateData.pure(psi)
    for keep, rest in (([0], [1, 2, 3]), ([1], [0, 2, 3]), ([0, 2], [1, 3]), ([1, 2, 3], [0])):
        for k in (1, 2, 3):
            val = evaluate_fast(reduced_power_label(4, keep, k), pure, (2, 3, 2, 2))
            assert abs(val - pure_jk(psi, (keep, rest), k)) <= 1e-12


def test_evaluate_fast_pure_form_checks_size():
    pure = StateData.pure(random_pure_state((2, 2), seed=62))
    with pytest.raises(ShapeError):
        evaluate_fast(PermTuple(2, ((1, 0), (1, 0))), pure, (2, 3))


def test_evaluate_many_shares_one_fused_operand_per_grouping(monkeypatch):
    psi = random_pure_state((2, 3, 2), seed=63)
    labels = [reduced_power_label(3, [1, 2], k) for k in (2, 3, 4)]
    labels.append(parse_label("2; e | (12) | e"))  # another grouping
    fused = []
    fuse = invariants._fuse
    monkeypatch.setattr(
        invariants, "_fuse", lambda src, axes, shape: fused.append(axes) or fuse(src, axes, shape)
    )
    for state in (density_from_pure(psi), StateData.pure(psi)):
        fused.clear()
        values = evaluate_many(labels, state, (2, 3, 2))
        assert len(fused) == 2 and fused[0] != fused[1]
        assert values == [evaluate_fast(t, state, (2, 3, 2)) for t in labels]
    assert evaluate_many([], StateData.pure(psi), (2, 3, 2)) == []


def greedy_einsum(t, state, dims):
    """The invariant network, one leg per subsystem, contracted by ``np.einsum``.

    Copy c carries row label sigma_s(c) * n + s and column label c * n + s
    on subsystem s, as in ``tests/test_tensor.py::loop_network``; a pure
    state splits copy c into psi with the rows and conj(psi) with the columns.
    """
    n, dims = len(dims), tuple(dims)
    rows = [[sigma[c] * n + s for s, sigma in enumerate(t.sigmas)] for c in range(t.k)]
    cols = [[c * n + s for s in range(n)] for c in range(t.k)]
    if isinstance(state, StateData) and state.kind == "pure":
        psi = state.tensor.data.reshape(dims)
        args = [x for c in range(t.k) for x in (psi, rows[c], psi.conj(), cols[c])]
    else:
        rho = np.asarray(state).reshape(dims + dims)
        args = [x for c in range(t.k) for x in (rho, rows[c] + cols[c])]
    return complex(np.einsum(*args, [], optimize="greedy"))


def test_compiled_program_matches_greedy_einsum():
    rng = np.random.default_rng(71)
    for dims in ((3,), (2, 3), (2, 3, 2), (2, 2, 2, 2)):
        rho = random_density(math.prod(dims), rng)
        for k in (1, 2, 3):
            tuples = [c.representative for c in enumerate_invariants(len(dims), k)]
            for t, got in zip(tuples, evaluate_many(tuples, rho, dims)):
                want = greedy_einsum(t, rho, dims)
                assert abs(got - want) <= 1e-12 * abs(want), (dims, t.label())
    pure = StateData.pure(random_pure_state((2, 3, 2), seed=72))
    for k in (1, 2, 3):
        tuples = [c.representative for c in enumerate_invariants(3, k)]
        for t, got in zip(tuples, evaluate_many(tuples, pure, (2, 3, 2))):
            want = greedy_einsum(t, pure, (2, 3, 2))
            assert abs(got - want) <= 1e-12 * abs(want), t.label()


def planner_digest(cases) -> str:
    """SHA-256 of each (tuple, dims) case's grouping and programs on both routes.

    Every NamedTuple is flattened to a plain tuple first, so renaming a
    field does not change the digest.  A step's ``None`` axes are written
    out as the identity on the axes its operand has at that step: psi's
    1 + m or an operator's 1 + 2m over m fused groups, less two a traced
    pair, and ``len(out)`` once a step has written the slot.
    """
    def flat(x):
        return tuple(map(flat, x)) if isinstance(x, tuple) else x

    digest = hashlib.sha256()
    for t, dims in cases:
        for pure in (False, True):
            grouping, p = invariants._network.__wrapped__(t, dims, pure)
            ndim = [1 + len(grouping[1]) * (1 if pure else 2)] * len(p.sources)
            for slot, pairs in p.traces:
                ndim[slot] -= 2 * len(pairs)
            steps = []
            for a, b, axes_a, shape_a, axes_b, shape_b, out in p.steps:
                axes_a = tuple(range(ndim[a])) if axes_a is None else axes_a
                axes_b = tuple(range(ndim[b])) if axes_b is None else axes_b
                steps.append((a, b, axes_a, shape_a, axes_b, shape_b, out))
                ndim[a] = len(out)
            record = (grouping, p.sources, p.traces, tuple(steps), p.result, p.flops, p.largest)
            digest.update(repr(flat(record)).encode())
    return digest.hexdigest()


def test_planner_programs_are_pinned():
    # every program of every class of n <= 4, k <= 3, operator and psi, tuple
    # for tuple: a planner change that moves an axis, a pair order, a flop
    # count or an intermediate changes the digest
    cases = [
        (c.representative, dims)
        for dims in ((3,), (2, 3), (2, 3, 2), (2, 2, 3, 2))
        for k in (1, 2, 3)
        for c in enumerate_invariants(len(dims), k)
    ]
    digest = planner_digest(cases)
    assert digest == "a061c6ad869ac9bad40d48e564fd1263fcb092865f49d5e335bd4aeea03ec09c"


def test_programs_are_plain_tuples():
    # the replay unpacks each trace and step; a tuple subclass unpacks
    # through its iterator, slower than a plain tuple
    for c in enumerate_invariants(4, 3):
        for pure in (False, True):
            _, program = invariants._network(c.representative, (2, 2, 2, 2), pure)
            assert all(type(trace) is tuple for trace in program.traces)
            assert all(type(step) is tuple for step in program.steps)


@pytest.mark.parametrize("label", ["5; (12345) | (13524)", "6; (123456) | (135)(246)"])
def test_program_never_falls_back_to_one_naive_loop(label):
    # every pairwise intermediate here is larger than rho, which a planner
    # capped at the largest input refuses, leaving a 64^k-term loop
    t, dims = parse_label(label), (8, 8)
    rho = random_density(64, np.random.default_rng(73))
    _, program = invariants._network(t, dims, False)
    assert program.largest <= 8**6
    # oracle: np.einsum along a fixed ring of the copies, no planner involved
    r = rho.reshape(8, 8, 8, 8)
    args = []
    for c in range(t.k):
        rows = [t.sigmas[s][c] * 2 + s for s in range(2)]
        args += [r, rows + [c * 2 + s for s in range(2)]]
    ring = ["einsum_path", (0, 1)] + [(0, t.k - 2 - i) for i in range(t.k - 2)]
    want = complex(np.einsum(*args, [], optimize=ring))
    assert abs(evaluate_fast(t, rho, dims) - want) <= 1e-12 * abs(want)


def test_permutation_operator_swap():
    t = PermTuple(2, ((1, 0),))
    op = permutation_operator(t, (2,))
    want = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            want[2 * j + i, 2 * i + j] = 1.0
    assert np.array_equal(op.real, want)


def test_permutation_operator_is_permutation_matrix():
    t = parse_label("3; (123) | (12)")
    op = permutation_operator(t, (2, 3))
    assert np.array_equal(op @ op.conj().T, np.eye(6**3))
    assert np.all(np.sum(np.abs(op), axis=0) == 1.0)


# ----------------------------------------------------------- components


def test_components_identity_tuple():
    t = PermTuple(3, ((0, 1, 2),))
    assert connected_components(t) == ((0,), (1, ), (2,))


def test_components_transposition_plus_fixed():
    t = PermTuple(3, ((1, 0, 2),))
    assert connected_components(t) == ((0, 1), (2,))
    rho = random_density(3)
    val = evaluate_fast(t, rho, (3,))
    want = np.trace(rho @ rho) * np.trace(rho)
    assert abs(val - want) < 1e-10


def test_components_full_cycle_connects_everything():
    # sigma_1 = (123) alone links all three copies: one component, even
    # though the value factorizes as J1 J2 on pure states after reduction
    t = parse_label("3; (123) | (12)")
    assert connected_components(t) == ((0, 1, 2),)
    assert len(component_subtuples(t)) == 1


def test_product_rule_over_components():
    rho = random_density(4)
    for k in (2, 3):
        for cls in enumerate_invariants(2, k):
            t = cls.representative
            total = evaluate_fast(t, rho, (2, 2))
            parts = component_subtuples(t)
            prod = 1.0 + 0.0j
            for sub in parts:
                prod *= evaluate_fast(sub, rho, (2, 2))
            assert abs(total - prod) <= 1e-10 * max(abs(total), 1.0)


# ---------------------------------------------------------------- realness


def loop_conjugate(p, tau):
    out = [0] * len(p)
    for i in range(len(p)):
        out[tau[i]] = tau[p[i]]
    return tuple(out)


def loop_canonicalize(t):
    """The S_k loop canonicalize used before the conjugation table."""
    best = min(
        tuple(loop_conjugate(s, tau) for s in t.sigmas)
        for tau in itertools.permutations(range(t.k))
    )
    return PermTuple(t.k, best)


def loop_is_real(t):
    """The S_k loop is_real_guaranteed used before the conjugation table."""
    inverses = tuple(perms.inverse(s) for s in t.sigmas)
    return any(
        tuple(loop_conjugate(s, tau) for s in t.sigmas) == inverses
        for tau in itertools.permutations(range(t.k))
    )


def test_table_lookups_match_loops():
    rng = np.random.default_rng(2024)
    checked_real = 0
    for k in (4, 5, 6):
        sk = list(itertools.permutations(range(k)))
        for n in range(1, 9):
            s = sk[rng.integers(len(sk))]
            powers = [s]  # one relabeling inverts every power of s: real
            while len(powers) < n:
                powers.append(tuple(s[x] for x in powers[-1]))
            tau = sk[rng.integers(len(sk))]
            for sigmas in (
                tuple(sk[i] for i in rng.integers(len(sk), size=n)),
                tuple(powers),
            ):
                t = PermTuple(k, sigmas)
                assert canonicalize(t) == loop_canonicalize(t)
                assert is_real_guaranteed(t) == loop_is_real(t)
                checked_real += loop_is_real(t)
                want = tuple(loop_conjugate(x, tau) for x in sigmas)
                assert conjugate_tuple(t, tau).sigmas == want
    assert checked_real >= 24
    for fn in (canonicalize, is_real_guaranteed):
        with pytest.raises(ValueError, match="degree"):
            fn(PermTuple(7, (tuple(range(7)),)))


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2) for k in (1, 2, 3, 4)] + [(3, 3)])
def test_is_real_guaranteed_matches_loop_on_every_small_tuple(n, k):
    sk = list(itertools.permutations(range(k)))
    answers = set()
    for sigmas in itertools.product(sk, repeat=n):
        t = PermTuple(k, sigmas)
        want = loop_is_real(t)
        assert is_real_guaranteed(t) is want, sigmas
        answers.add(want)
    # every pair over S_k, k <= 4, has a common inverting relabelling; not every triple
    assert answers == ({True, False} if n == 3 else {True})


def union_find_components(t):
    """Connected components by a plain union-find, sorted."""
    parent = list(range(t.k))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in t.sigmas:
        for j in range(t.k):
            parent[find(j)] = find(s[j])
    groups = {}
    for j in range(t.k):
        groups.setdefault(find(j), []).append(j)
    return tuple(sorted(tuple(g) for g in groups.values()))


def test_connected_components_matches_union_find_up_to_max_labels():
    rng = np.random.default_rng(52)
    split = 0
    for k in (1, 2, 3, 5, 8, 13, 21, 34, invariants.MAX_LABELS):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                # permutations inside random blocks of copies, so some diagrams split
                blocks = np.array_split(rng.permutation(k), rng.integers(1, k + 1))
                sigmas = []
                for _ in range(n):
                    s = list(range(k))
                    for block in blocks:
                        if rng.random() < 0.7:
                            for a, b in zip(block, rng.permutation(block)):
                                s[int(a)] = int(b)
                    sigmas.append(tuple(s))
                t = PermTuple(k, tuple(sigmas))
                comps = connected_components(t)
                assert comps == union_find_components(t), (k, sigmas)
                split += len(comps) > 1
    assert split >= 100


def test_trusted_tuple_is_a_validated_tuple():
    for text in ("3; (123) | (12) | e", "1; e", "6; (123456) | (12)(34) | e"):
        t = parse_label(text)
        fast = PermTuple._trusted(t.k, t.sigmas)
        assert (fast == t, hash(fast), repr(fast)) == (True, hash(t), repr(t))
        assert fast.label() == t.label() == text
        back = pickle.loads(pickle.dumps(fast))
        assert (back == t, hash(back), back.label()) == (True, hash(t), text)
    # the tuples built from the table hold plain int tuples, as validation makes them
    t = parse_label("4; (1234) | (12)(34) | (132)")
    built = [canonicalize(t), conjugate_tuple(t, (2, 0, 3, 1))]
    built += [c.representative for c in enumerate_invariants(2, 4)]
    for fast in built:
        checked = PermTuple(fast.k, fast.sigmas)
        assert (fast == checked, hash(fast), repr(fast)) == (True, hash(checked), repr(checked))
        assert type(fast.sigmas) is tuple
        assert all(type(s) is tuple and all(type(x) is int for x in s) for s in fast.sigmas)


def test_kept_labels_are_the_scans_labels(monkeypatch):
    clear_memos()
    classes = enumerate_invariants(3, 3)
    labels = invariants._kept_labels(3, 3, classes)
    assert labels == [format_label(c.representative) for c in classes]
    assert all(a is c.label() for a, c in zip(labels, classes))  # formatted once, by the scan
    again = invariants._kept_labels(3, 3, enumerate_invariants(3, 3))
    assert again == labels and again is not labels  # the caller's own list
    monkeypatch.setattr(invariants, "MEMO_ENTRIES", 0)  # fresh tuples, labelled by their scan
    fresh = enumerate_invariants(3, 3)
    assert all(c.representative._label is not None for c in fresh)
    assert invariants._kept_labels(3, 3, fresh) == labels
    assert all(a.representative is not b.representative for a, b in zip(fresh, classes))


def brute_canonicalize(t):
    """Minimum over every relabeling of S_k, conjugated by composition."""
    relabelings = [(tau, perms.inverse(tau)) for tau in itertools.permutations(range(t.k))]
    best = min(
        tuple(perms.compose(tau, perms.compose(s, tau_inv)) for s in t.sigmas)
        for tau, tau_inv in relabelings
    )
    return PermTuple(t.k, best)


@pytest.mark.parametrize("k, leads", [(5, ((0, 1, 2, 3, 4), (1, 0, 3, 2, 4))),
                                      (6, ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4)))])
def test_canonicalize_matches_brute_force_at_degrees_5_and_6(k, leads):
    # a random sigma_1 has a few lead rows; the identity has k! and the
    # involution (12)(34) or (12)(34)(56) 8 or 48
    rng = np.random.default_rng(522)
    sk = list(itertools.permutations(range(k)))
    _, index, _, _, lead = perms.conjugation_table(k)
    assert [len(lead[index[p]]) for p in leads] == [len(sk), 8 if k == 5 else 48]
    for n in range(1, 9):
        firsts = [sk[i] for i in rng.integers(len(sk), size=6)] + list(leads)
        for first in firsts:
            rest = tuple(sk[i] for i in rng.integers(len(sk), size=n - 1))
            t = PermTuple(k, (first, *rest))
            assert canonicalize(t) == brute_canonicalize(t)


def test_conjugate_tuple_refuses_a_tau_that_is_not_a_permutation():
    t = PermTuple(3, ((1, 2, 0), (0, 1, 2), (2, 0, 1)))
    for tau in ((0, 0, 1), (0, 1)):
        with pytest.raises(ValueError, match=r"tau \(0, .*degree-3"):
            conjugate_tuple(t, tau)


def test_reduced_power_label_checks_keep():
    for keep in ([7], [], [-1]):
        with pytest.raises(ShapeError, match="keep"):
            reduced_power_label(3, keep, 2)
    assert format_label(reduced_power_label(5, [0, 1], 3)) == "3; (123) | (123) | e | e | e"


def test_real_guaranteed_self_inverse():
    assert is_real_guaranteed(PermTuple(4, ((1, 0, 3, 2), (0, 1, 2, 3))))
    # only the identity relabeling fixes both transpositions
    assert is_real_guaranteed(parse_label("3; (12) | (23)"))


def test_real_guaranteed_three_cycle():
    # conjugation by a transposition inverts a 3-cycle
    assert is_real_guaranteed(PermTuple(3, ((1, 2, 0),)))


def test_real_guaranteed_identity():
    assert is_real_guaranteed(PermTuple(2, ((0, 1), (0, 1))))


def test_not_real_guaranteed_example_is_genuinely_complex():
    t = parse_label("3; (23) | (12) | (123)")
    assert not is_real_guaranteed(t)
    rng = np.random.default_rng(3)
    rho = random_density(8, rng)
    val = evaluate_fast(t, rho, (2, 2, 2))
    assert abs(val.imag) > 1e-6  # takes truly complex values
    # yet it is still an LU invariant
    assert verify_classes([t], rho, (2, 2, 2), trials=5, seed=1)[0] < 1e-9


def test_real_guaranteed_classes_have_real_values():
    classes = [
        c.representative for k in (1, 2, 3) for c in enumerate_invariants(2, k)
    ]
    classes = [t for t in classes if is_real_guaranteed(t)]
    assert classes
    for _ in range(100):
        rho = random_density(4)
        for t in classes:
            assert abs(evaluate_fast(t, rho, (2, 2)).imag) <= 1e-10


# ------------------------------------------------------------- invariance


def test_verify_identity_tuple():
    rho = random_density(4)
    t = PermTuple(2, ((0, 1), (0, 1)))
    assert verify_classes([t], rho, (2, 2), trials=5, seed=0)[0] <= 1e-12


def test_verify_all_bipartite_classes():
    rho = random_density(4)
    for k in (1, 2, 3):
        for cls in enumerate_invariants(2, k):
            [dev] = verify_classes([cls.representative], rho, (2, 2), trials=50, seed=17)
            assert dev <= 1e-9, cls.label()


def test_verify_reproducible():
    rho = random_density(4)
    t = parse_label("2; (12) | (12)")
    d1 = verify_classes([t], rho, (2, 2), trials=7, seed=3)
    d2 = verify_classes([t], rho, (2, 2), trials=7, seed=3)
    assert d1 == d2


def test_non_invariant_control_detected():
    # a fixed random operator in place of the permutation breaks invariance
    rho = random_density(4)
    k = 2
    f = crand(16, 16)

    def value(r):
        return complex(np.einsum("ij,ji->", f, kron_power(r.data, k)))

    dev = max_unitary_deviation(value, rho, (2, 2), trials=10, seed=5)
    assert dev > 1e-6


def test_both_invariance_checks_refuse_no_trials_and_keep_nan():
    rho = random_density(4)
    t = parse_label("2; (12) | e")
    clear_memos()
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_classes([t], rho, (2, 2), trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            max_unitary_deviation(lambda r: 1j, rho, (2, 2), trials=trials)
    # refused before any label is planned
    assert invariants._network.cache_info().currsize == 0
    assert invariants._program.cache_info().currsize == 0
    assert math.isnan(max_unitary_deviation(lambda r: complex("nan"), rho, (2, 2), trials=3))


def test_verify_classes_matches_per_class_loop(monkeypatch):
    # the oracle shares only the draw and the rotation, so any fault of the
    # chunked loop shows as a changed bit, at every chunk size
    for dims, count in (((2, 3, 2), 1 + 8 + 49), ((2, 2, 2, 2), 1 + 16 + 251), ((4, 4), 1 + 4 + 11)):
        rho = random_density(math.prod(dims), np.random.default_rng(232))
        tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
        assert len(tuples) == count
        want = [
            max_unitary_deviation(lambda r: evaluate_fast(t, r, dims), rho, dims, trials=4, seed=23)
            for t in tuples
        ]
        assert 0 < max(want) <= 1e-9, dims
        size = _row_bytes(tuples, rho, dims)
        for budget in (invariants.BATCH_BYTES, size, 2 * size):  # every row, then 1 and 2 a chunk
            monkeypatch.setattr(invariants, "BATCH_BYTES", budget)
            devs = verify_classes(tuples, rho, dims, trials=4, seed=23)
            assert same_bits(devs, want), (dims, budget)


def tninv_caches():
    """Every ``functools`` cache of the package, by qualified name."""
    return {
        f"{cache.__module__}.{cache.__qualname__}": cache
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "tninv"
        for cache in vars(module).values()
        if hasattr(cache, "cache_clear")
    }


def clear_memos():
    """Empty every per-process memo, so the next call runs cold."""
    for cache in tninv_caches().values():
        cache.cache_clear()


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_verify_classes_draws_once_per_trial_and_plans_once_per_class(monkeypatch):
    clear_memos()
    calls = {"draw": [], "rotate": [], "plan": 0, "einsum": 0}  # draw, rotate: trials a call

    def counting(key, fn, trials=None):
        def wrapper(*args, **kwargs):
            if trials is None:
                calls[key] += 1
            else:
                calls[key].append(trials(*args))
            return fn(*args, **kwargs)
        return wrapper

    for name, key, trials in (("random_local_unitary", "draw", lambda *args: "one trial"),
                              ("random_local_unitaries", "draw", lambda dims, ch: len(ch)),
                              ("apply_local_unitary", "rotate", lambda s, dims, us: len(us[0]))):
        monkeypatch.setattr(invariants, name, counting(key, getattr(invariants, name), trials))
    monkeypatch.setattr(invariants, "_compile", counting("plan", invariants._compile))
    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    monkeypatch.setattr(np, "einsum_path", counting("einsum", np.einsum_path))
    tuples = [c.representative for c in enumerate_invariants(3, 3)]
    rho = random_density(8)
    cold = verify_classes(tuples, rho, (2, 2, 2), trials=3, seed=4)
    # the 49 classes have 41 distinct networks (fused dims and subscripts); the
    # 3 trials fit one chunk, drawn by one stacked call and rotated by another
    assert calls == {"draw": [3], "rotate": [3], "plan": 41, "einsum": 0}
    warm = verify_classes(tuples, rho, (2, 2, 2), trials=3, seed=4)
    assert calls == {"draw": [3, 3], "rotate": [3, 3], "plan": 41, "einsum": 0}
    assert same_bits(warm, cold)


def test_verify_classes_rotates_psi_and_never_forms_rho(monkeypatch):
    rotated = []
    rotate = invariants.apply_local_unitary

    def spy(state, dims, us):
        rotated.append((state.kind, len(us[0])))
        return rotate(state, dims, us)

    def refuse(*args):
        raise AssertionError("density_from_pure called")

    monkeypatch.setattr(invariants, "apply_local_unitary", spy)
    monkeypatch.setattr(states, "density_from_pure", refuse)
    for dims in ((6,), (2, 3), (2, 3, 2), (3, 2, 2)):
        pure = StateData.pure(random_pure_state(dims, seed=sum(dims)))
        tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
        rotated.clear()
        devs = verify_classes(tuples, pure, dims, trials=3, seed=29)
        assert len(devs) == len(tuples) and max(devs) <= 1e-9, dims
        assert rotated == [("pure", 3)]  # one stacked rotation of psi for the one chunk


@pytest.mark.parametrize("n, k, programs", [(4, 3, 153), (6, 2, 12)])
def test_each_call_compiles_once_per_distinct_network(n, k, programs, monkeypatch):
    compiled, compile_ = [], invariants._compile

    def spy(terms, size, sources):
        compiled.append((tuple(map(tuple, terms)), tuple(size), sources))
        return compile_(terms, size, sources)

    monkeypatch.setattr(invariants, "_compile", spy)
    dims = (2,) * n
    tuples = [c.representative for c in enumerate_invariants(n, k)]
    rho = random_density(2**n, np.random.default_rng(74))
    for state in (rho, StateData.pure(random_pure_state(dims, seed=75))):
        clear_memos()
        compiled.clear()
        cost = ContractionCost()
        cold = evaluate_many(tuples, state, dims, cost=cost)
        assert len(compiled) == len(set(compiled)) == programs
        if state is rho and (n, k) == (4, 3):  # still charged once per class
            assert cost == ContractionCost(flops=362576, largest=256)
        compiled.clear()
        warm_cost = ContractionCost()
        warm = evaluate_many(tuples, state, dims, cost=warm_cost)
        assert compiled == [] and warm_cost == cost and same_bits(warm, cold)


def test_warm_calls_look_up_no_program():
    dims = (2,) * 4
    tuples = [c.representative for c in enumerate_invariants(4, 3)]
    rho = random_density(16, np.random.default_rng(76))
    pure = StateData.pure(random_pure_state(dims, seed=77))
    for state in (rho, pure):
        clear_memos()
        cold = (evaluate_many(tuples, state, dims), verify_classes(tuples, state, dims, trials=2))
        labels, programs = invariants._network.cache_info(), invariants._program.cache_info()
        warm = (evaluate_many(tuples, state, dims), verify_classes(tuples, state, dims, trials=2))
        assert invariants._program.cache_info() == programs
        # one label lookup per tuple and call, every one a hit
        after = invariants._network.cache_info()
        assert (after.hits - labels.hits, after.misses) == (2 * len(tuples), labels.misses)
        assert same_bits(warm[0], cold[0]) and same_bits(warm[1], cold[1])


def test_repeated_call_over_more_labels_than_the_memo_keeps_it_full_and_plans_alike():
    # every label goes through the label memo, which the LRU keeps at its bound
    clear_memos()
    dims = (2,) * 6
    tuples = [c.representative for c in enumerate_invariants(6, 3)]
    assert len(tuples) == 8051 > invariants.MEMO_ENTRIES
    first = invariants._plan(tuples, dims, False)
    assert invariants._network.cache_info().currsize == invariants.MEMO_ENTRIES
    second = invariants._plan(tuples, dims, False)
    assert invariants._network.cache_info().currsize == invariants.MEMO_ENTRIES
    assert second == first  # the same programs, and the same cost


def _row_bytes(tuples, state, dims) -> int:
    """Bytes of the widest row in a chunk of verify: the state, an intermediate or the values."""
    cost = ContractionCost()
    evaluate_many(tuples, state, dims, cost=cost)
    return 16 * max(invariants._operand(state, dims).array.size, cost.largest, len(tuples))


@pytest.mark.parametrize("dims_set", [
    ((2,), (2, 2), (2, 2, 2), (2, 2, 2, 2)),
    ((3,), (3, 2), (2, 3, 2), (2, 2, 3, 2)),
])
def test_chunk_size_changes_no_bit(dims_set, monkeypatch):
    rng, trials, seed = np.random.default_rng(81), 4, 82
    seen, contract_all = [], invariants._contract_all  # values, one column per stacked state

    def spy(plan, src, count):
        seen.append(contract_all(plan, src, count))
        return seen[-1]

    monkeypatch.setattr(invariants, "_contract_all", spy)
    for dims in dims_set:
        tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
        pure = StateData.pure(random_pure_state(dims, seed=len(dims)))
        for state in (random_density(math.prod(dims), rng), pure):
            size = _row_bytes(tuples, state, dims)
            devs, values = [], []
            for rows in (1, 2, trials + 1):  # a chunk of one row, two, and every row
                monkeypatch.setattr(invariants, "BATCH_BYTES", rows * size)
                seen.clear()
                devs.append(verify_classes(tuples, state, dims, trials=trials, seed=seed))
                assert [v.shape[1] for v in seen[:-1]] == [rows] * (len(seen) - 1)
                values.append(np.hstack(seen))
            assert same_bits(devs[0], devs[1]) and same_bits(devs[0], devs[2]), dims
            assert same_bits(values[0], values[1]) and same_bits(values[0], values[2]), dims
            # column 0 is the state itself, column i trial i, as evaluate_many gives them
            rotated = [state] + [
                apply_local_unitary(state, dims, random_local_unitary(dims, seed=child))
                for child in np.random.SeedSequence(seed).spawn(trials)
            ]
            alone = [evaluate_many(tuples, s, dims) for s in rotated]
            assert same_bits(np.array(alone).T, values[0]), dims
            assert max(devs[0]) <= 1e-9, dims


def _spy_replay_rows(monkeypatch) -> list:
    """The rows of the stack each ``_Program.contract`` call is given, in call order."""
    rows_seen, contract = [], invariants._Program.contract

    def spy(program, fused, traced):
        rows_seen.append(len(fused[0]))
        return contract(program, fused, traced)

    monkeypatch.setattr(invariants._Program, "contract", spy)
    return rows_seen


def test_each_program_replays_once_per_chunk(monkeypatch):
    rows_seen = _spy_replay_rows(monkeypatch)
    dims = (2, 2, 2)
    tuples = [c.representative for c in enumerate_invariants(3, 3)]
    rho = random_density(8, np.random.default_rng(83))
    verify_classes(tuples, rho, dims, trials=20, seed=84)
    # 21 states of 1 KB fit one chunk: one replay per program, not 21
    assert rows_seen == [21] * len(tuples)
    monkeypatch.setattr(invariants, "BATCH_BYTES", 3 * _row_bytes(tuples, rho, dims))
    rows_seen.clear()
    verify_classes(tuples, rho, dims, trials=7, seed=84)
    assert sorted(rows_seen) == sorted([3, 3, 2] * len(tuples))


def test_batch_budget_counts_the_widest_row(monkeypatch):
    rows_seen = _spy_replay_rows(monkeypatch)
    dims = (2,) * 6
    t = parse_label("6; (16425) | (1546)(23) | e | (165)(24) | (13624) | (235)")
    pure = StateData.pure(random_pure_state(dims, seed=87))
    _, program = invariants._network(t, dims, True)
    assert program.largest == 64 * 64  # 64 times psi
    [dev] = verify_classes([t], pure, dims, trials=20, seed=88)
    assert dev <= 1e-9 and sum(rows_seen) == 21
    assert max(rows_seen) * 16 * program.largest <= invariants.BATCH_BYTES
    # 251 values a row outgrow the 16 entries of psi and of every intermediate
    dims = (2,) * 4
    tuples = [c.representative for c in enumerate_invariants(4, 3)]
    pure = StateData.pure(random_pure_state(dims, seed=89))
    rows_seen.clear()
    assert max(verify_classes(tuples, pure, dims, trials=40, seed=90)) <= 1e-9
    assert sum(rows_seen) == 41 * len(tuples)
    assert max(rows_seen) * 16 * len(tuples) <= invariants.BATCH_BYTES


@pytest.mark.parametrize("dims, k, traces, distinct", [
    ((2, 2, 2, 2), 3, 608, 68),
    ((2, 2, 2), 3, 106, 16),
])
def test_each_distinct_trace_replays_once_per_grouping(dims, k, traces, distinct, monkeypatch):
    memos, planned, contract = [], [], invariants._Program.contract

    def spy(program, fused, traced):
        if not any(memo is traced for memo in memos):
            memos.append(traced)
        planned.append(len(program.traces))
        return contract(program, fused, traced)

    monkeypatch.setattr(invariants._Program, "contract", spy)
    tuples = [c.representative for c in enumerate_invariants(len(dims), k)]
    rho = random_density(math.prod(dims), np.random.default_rng(91))
    pure = StateData.pure(random_pure_state(dims, seed=92))
    for state, want in ((rho, (traces, distinct)), (pure, (0, 0))):
        memos.clear()
        planned.clear()
        evaluate_many(tuples, state, dims)
        # every trace a memo holds was computed once, on this call
        assert (sum(planned), sum(map(len, memos))) == want, state is pure


class _KeepsNothing(dict):
    """A trace memo that stores nothing, so every program computes its own traces."""

    def __setitem__(self, key, value):
        pass


def test_shared_traces_change_no_bit(monkeypatch):
    trials, seed = 4, 93
    seen, contract_all, contract = [], invariants._contract_all, invariants._Program.contract

    def spy(plan, src, count):
        seen.append(contract_all(plan, src, count))
        return seen[-1]

    def unshared(program, fused, traced):
        return contract(program, fused, _KeepsNothing())

    monkeypatch.setattr(invariants, "_contract_all", spy)
    for dims in ((2, 3, 2), (2, 2, 2, 2), (4, 4)):
        rho = random_density(math.prod(dims), np.random.default_rng(94))
        tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
        size = _row_bytes(tuples, rho, dims)
        for rows in (1, 2, trials + 1):  # a chunk of one row, two, and every row
            monkeypatch.setattr(invariants, "BATCH_BYTES", rows * size)
            runs = []
            for replay in (contract, unshared):
                monkeypatch.setattr(invariants._Program, "contract", replay)
                seen.clear()
                devs = verify_classes(tuples, rho, dims, trials=trials, seed=seed)
                runs.append((devs, np.hstack(seen)))
            (shared_devs, shared), (alone_devs, alone) = runs
            assert shared.shape == (len(tuples), trials + 1)
            assert same_bits(shared, alone) and same_bits(shared_devs, alone_devs), (dims, rows)


def reference_contract_all(plan, src, count) -> np.ndarray:
    """``_contract_all`` with the replay written out in full.

    Every step transposes and reshapes both operands, reading ``None`` axes
    as the identity; a trace is kept under ``(source, pairs)``; each value
    is ``math.prod`` over the program's result slots, connected or not.
    """
    values = np.empty((count, len(src.array)), dtype=np.complex128)
    for grouping, members in plan.items():
        fused, traced = invariants._fuse(src, *grouping), {}
        for i, program in members:
            ops = [fused[s] for s in program.sources]
            for slot, pairs in program.traces:
                key = (program.sources[slot], pairs)
                if key not in traced:
                    part = ops[slot]
                    for axis1, axis2 in pairs:
                        part = part.trace(axis1=axis1, axis2=axis2)
                    traced[key] = part
                ops[slot] = traced[key]
            for a, b, axes_a, shape_a, axes_b, shape_b, out in program.steps:
                mat_a = ops[a].transpose(range(ops[a].ndim) if axes_a is None else axes_a)
                mat_b = ops[b].transpose(range(ops[b].ndim) if axes_b is None else axes_b)
                mat_a, mat_b = mat_a.reshape(shape_a), mat_b.reshape(shape_b)
                ops[a] = (mat_a @ mat_b).reshape(out)
                ops[b] = None
            values[i] = math.prod(ops[s] for s in program.result)
    return values


def _replay_cases():
    """``(dims, tuples, states)``: lu_verify's shapes, then GHZ, product and real states."""
    rng = np.random.default_rng(97)
    for dims, ks in (((2, 2, 2), (2, 3)), ((2, 2, 2, 2), (2, 3)), ((2,) * 6, (2,)),
                     ((3, 3, 3), (2, 3)), ((4, 4, 4), (2, 3)), ((8, 8), (2, 3))):
        tuples = [c.representative for k in ks for c in enumerate_invariants(len(dims), k)]
        if dims == (8, 8):
            tuples.append(parse_label("6; (123456) | (12)(34)(56)"))
        d = math.prod(dims)
        pure = StateData.pure(random_pure_state(dims, seed=d))
        yield dims, tuples, (rank_r_density(dims, 2, d), pure)
    for dims in ((2, 2, 2), (2, 2, 2, 2)):
        tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
        d = math.prod(dims)
        ghz = np.zeros(d, dtype=np.complex128)
        ghz[[0, -1]] = 0.5 ** 0.5
        product = np.ones(d, dtype=np.complex128) / d ** 0.5
        a = rng.standard_normal((d, d))
        real = a @ a.T / np.trace(a @ a.T)
        yield dims, tuples, (
            StateData.pure(Tensor(ghz)), np.outer(ghz, ghz), StateData.pure(Tensor(product)),
            np.outer(product, product), real.astype(np.complex128),
        )


def test_replay_has_the_bits_of_the_replay_written_out_in_full(monkeypatch):
    # every value evaluate_many and verify_classes return, on either route and at
    # every chunk size, is bit for bit the written-out replay's; a replay that
    # skips a transpose it needs, or the 1 * of a connected value, fails here
    seen, contract_all, trials = [], invariants._contract_all, 2

    def spy(plan, src, count):
        values = contract_all(plan, src, count)
        assert same_bits(values, reference_contract_all(plan, src, count))
        seen.append((src.pure, len(src.array)))
        return values

    monkeypatch.setattr(invariants, "_contract_all", spy)
    connected, purified = set(), False
    for dims, tuples, states_ in _replay_cases():
        connected.update(len(connected_components(t)) == 1 for t in tuples)
        for state in states_:
            src = invariants._operand(state, dims)
            plan, _ = invariants._plan(tuples, dims, src.pure)
            want = reference_contract_all(plan, invariants._Operand(src.pure, src.array[None]), len(tuples))
            got = evaluate_many(tuples, state, dims)
            assert same_bits(np.array(got, dtype=np.complex128), want[:, 0]), dims
            size = _row_bytes(tuples, state, dims)
            for rows in (1, 2, trials + 1):  # a chunk of one row, two, and every row
                monkeypatch.setattr(invariants, "BATCH_BYTES", rows * size)
                seen.clear()
                verify_classes(tuples, state, dims, trials=trials, seed=98)
                assert sum(n for _, n in seen) == trials + 1
                purified |= not src.pure and seen[0][0]
    assert connected == {True, False} and purified
    # math.prod's 1 * shows on operators outside the densities: tr rho overflows to
    # inf + 0j, which 1 * makes inf + nan j, and (1 * tr rho) * tr rho is 1 - 0j when
    # tr rho is -1, which a second 1 * would make 1 + 0j
    tuples = [c.representative for k in (1, 2) for c in enumerate_invariants(2, k)]
    assert tuples[1] == parse_label("2; e | e")  # tr rho times tr rho: two parts
    huge = np.diag([1e308, 1e308, 1.0, 1.0]).astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        got = evaluate_many(tuples, huge, (2, 2))
    assert np.isnan(got[0].imag)
    got = evaluate_many(tuples, -np.eye(4, dtype=np.complex128) / 4, (2, 2))
    assert got[1] == 1 and np.signbit(got[1].imag)


def test_verify_peak_memory_does_not_grow_from_20_to_2000_trials():
    dims = (4, 8)
    rho = random_density(32, np.random.default_rng(85))
    tuples = [parse_label("2; (12) | e")]
    # a chunk fills before 20 trials, so a longer run adds only chunks
    assert invariants.BATCH_BYTES // _row_bytes(tuples, rho, dims) < 20
    # The plan memo and the caches that numpy and the interpreter grow once
    # are warmed under the tracer, and each run's peak is taken above what was
    # allocated when it began.  Until a process has filled CPython's 2-tuple
    # free list (2000 entries), each tuple(genexpr) of two dims that a chunk
    # builds parks a block there that the tracer counts as allocated: up to
    # 55 KB a 2000-trial run.  So warm-up runs repeat until one keeps nothing.
    def run(trials):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        [dev] = verify_classes(tuples, rho, dims, trials=trials, seed=86)
        assert dev <= 1e-9
        current, peak = tracemalloc.get_traced_memory()
        return peak - start, current - start

    tracemalloc.start()
    try:
        for _ in range(8):  # the free lists fill within a few runs
            if run(2000)[1] < 4096:
                break
        else:
            pytest.fail("a 2000-trial run still keeps memory after eight warm-up runs")
        peaks = {trials: run(trials)[0] for trials in (20, 2000)}
    finally:
        tracemalloc.stop()
    assert peaks[2000] - peaks[20] < 64 * 1024


def test_enumeration_memo_hands_out_fresh_lists():
    clear_memos()
    first = enumerate_invariants(3, 3)
    want = list(first)
    first.reverse()
    first.append(None)
    assert enumerate_invariants(3, 3) == want


def enumeration_memo():
    """(hits, misses, kept entries) of the enumeration memo."""
    info = invariants._scan.cache_info()
    return info.hits, info.misses, info.currsize


def test_enumeration_memo_keeps_only_small_recent_enumerations(monkeypatch):
    assert invariants.MEMO_ENTRIES == 4096
    clear_memos()
    assert len(enumerate_invariants(5, 3)) == 1393
    assert len(enumerate_invariants(6, 3)) == 8051
    assert len(enumerate_invariants(6, 3)) == 8051  # never kept, so never looked up
    assert enumeration_memo() == (0, 1, 1)
    enumerate_invariants(5, 3)
    assert enumeration_memo() == (1, 1, 1)  # (5, 3) was the one kept
    monkeypatch.setattr(invariants, "MEMO_ENTRIES", 49)
    enumerate_invariants(3, 3)  # 49 classes: kept
    enumerate_invariants(4, 3)  # 251: not kept
    assert enumeration_memo() == (1, 2, 2)
    for n in range(1, 8):  # one class each: kept beside the others
        enumerate_invariants(n, 1)
    assert enumeration_memo() == (1, 9, 9)
    monkeypatch.setattr(invariants, "MEMO_ENTRIES", 4096)
    for n in range(1, 8):
        enumerate_invariants(n, 1)
    enumerate_invariants(3, 3)
    assert enumeration_memo() == (9, 9, 9)  # (3, 3) and every (n, 1) were kept
    enumerate_invariants(5, 3)
    assert enumeration_memo() == (10, 9, 9)  # nothing is evicted


def test_enumeration_memo_keeps_every_enumeration_within_its_bound():
    clear_memos()
    sizes = [
        (n, k) for k in range(1, perms.MAX_DEGREE + 1) for n in range(1, invariants.MAX_SUBSYSTEMS + 1)
        if invariants._class_count(n, k) <= invariants.MEMO_ENTRIES  # the tables are built here
    ]
    assert len(sizes) == 56 and (12, 2) in sizes and (6, 3) not in sizes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(len(enumerate_invariants(*nk)) for nk in sizes) == 11738
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert enumeration_memo() == (0, 56, 56)
    assert grown < 8 * 2**20  # 5.5 MiB measured
    for nk in sizes:
        enumerate_invariants(*nk)
    assert enumeration_memo() == (56, 56, 56)
    enumerate_invariants(6, 3)  # 8051 classes: never kept
    assert enumeration_memo() == (56, 56, 56)


def test_lowered_class_bound_is_refused_after_the_count_is_memoised(monkeypatch):
    clear_memos()
    want = enumerate_invariants(3, 3)
    assert len(want) == 49 and enumeration_memo() == (0, 1, 1)
    monkeypatch.setattr(invariants, "MAX_CLASSES", 48)
    with pytest.raises(ValueError, match="n=3, k=3 has 49 classes, more than 48"):
        enumerate_invariants(3, 3)
    assert invariants._class_count.cache_info().misses == 1  # counted once
    monkeypatch.setattr(invariants, "MAX_CLASSES", 49)
    assert enumerate_invariants(3, 3) == want and enumeration_memo() == (1, 1, 1)


def test_warm_relabeling_lists_no_permutations(monkeypatch):
    listed = []
    all_perms = perms.all_perms
    monkeypatch.setattr(perms, "all_perms", lambda k: listed.append(k) or all_perms(k))
    clear_memos()
    caches = tninv_caches()
    assert set(caches) == {
        "tninv.perms.conjugation_table", "tninv.perms.format_perm", "tninv.cli._parser",
        "tninv.invariants._class_count", "tninv.invariants._scan",
        "tninv.invariants._network", "tninv.invariants._program",
    }
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())
    t = parse_label("3; (123) | (12) | (13)")
    tau = (1, 2, 0)
    cold = (canonicalize(t), conjugate_tuple(t, tau), enumerate_invariants(3, 3))
    assert listed == [3]  # once, by the conjugation table
    monkeypatch.setattr(invariants, "MEMO_ENTRIES", 0)  # every enumeration scans again
    warm = (canonicalize(t), conjugate_tuple(t, tau), enumerate_invariants(3, 3))
    assert listed == [3] and warm == cold


def test_memos_hold_under_concurrent_callers(tmp_path):
    sizes = [(n, k) for n in range(1, 4) for k in (2, 3)] + [(n, 1) for n in range(1, 25)]
    want = {nk: enumerate_invariants(*nk) for nk in sizes}
    rho = random_density(8, np.random.default_rng(76))
    values = evaluate_many([c.representative for c in want[3, 3]], rho, (2, 2, 2))
    # factor callers share two files and two policies: the load memo and its kept chains
    factors = {}
    for i, flags in itertools.product(range(2), ((), ("--truncate-chi", "2"))):
        psi = StateData.pure(random_pure_state((2,) * 6, seed=78 + i))
        save_state(psi, tmp_path / f"alone{i}{len(flags)}.json")
        save_state(psi, tmp_path / f"psi{i}.json")
        argv = ["factor", str(tmp_path / f"psi{i}.json"), *flags, "--json"]
        factors[tuple(argv)] = _factor_doc(["factor", str(tmp_path / f"alone{i}{len(flags)}.json"),
                                            *flags, "--json"])
    clear_memos()
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                nk = sizes[(i + offset) % len(sizes)]
                if enumerate_invariants(*nk) != want[nk]:
                    errors.append(nk)
                argv = list(factors)[(i + offset) % len(factors)]
                if i % 10 == 0 and _factor_doc(argv) != factors[argv]:
                    errors.append(argv)
            tuples = [c.representative for c in enumerate_invariants(3, 3)]
            if not same_bits(evaluate_many(tuples, rho, (2, 2, 2)), values):
                errors.append("values")
        except Exception as exc:  # a lost update surfaces here as KeyError
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and enumeration_memo()[2] == len(sizes) == 30


def _factor_doc(argv):
    """A ``factor`` document through the CLI's own command, without touching stdout."""
    args = cli._parse(list(argv))
    return args.run(args).render(True)


def _verify_cli(tmp_path, dims, k, *extra):
    rho = random_density(math.prod(dims), np.random.default_rng(77))
    path = tmp_path / "rho.json"
    save_state(StateData.density(Tensor(rho), dims), path)
    return main(["invariants", "verify", str(path), "-k", str(k), *extra])


def test_verify_cli_same_seed_same_output(tmp_path, capsys):
    for extra in ((), ("--json",)):
        outs = []
        for _ in range(2):
            assert _verify_cli(tmp_path, (2, 3, 2), 3, "--trials", "3", "--seed", "5", *extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_verify_cli_json_labels_order_and_keys(tmp_path, capsys):
    labels = [c.label() for c in enumerate_invariants(3, 3)]
    assert _verify_cli(tmp_path, (2, 2, 2), 3, "--trials", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  deviation=")[0] for line in lines[:-1]] == labels
    assert lines[-1].startswith("max deviation: ")
    assert _verify_cli(tmp_path, (2, 2, 2), 3, "--trials", "2", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["values"]) == sorted(labels)
    assert set(doc["diagnostics"]) == {"contraction", "max_deviation", "purification", "threshold"}
    assert doc["diagnostics"]["purification"] is None  # an 8 x 8 operator fits one chunk
    assert doc["diagnostics"]["threshold"] == VERIFY_THRESHOLD
    assert doc["diagnostics"]["max_deviation"] == max(doc["values"].values()) <= 1e-9
    assert doc["exit_code"] == 0 and doc["command"] == "invariants verify"


def test_verify_memory_does_not_grow_with_trials(tmp_path, capsys):
    dims = (2,) * 6
    _verify_cli(tmp_path, dims, 2, "--trials", "1")  # warm caches and imports
    peaks = {}
    for trials in (2, 40):
        tracemalloc.start()
        try:
            assert _verify_cli(tmp_path, dims, 2, "--trials", str(trials)) == 0
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[40] - peaks[2] < 64 * 64 * 16  # one complex 64 x 64 operator


# ------------------------------------------------ verify through a purification


def rank_r_density(dims, r, seed):
    """A density of rank r on ``dims``: r seeded pure states mixed with unequal weights."""
    rng = np.random.default_rng(seed)
    vecs = [random_pure_state(dims, seed=rng).data.reshape(-1) for _ in range(r)]
    weights = np.arange(1, r + 1) / (r * (r + 1) / 2)
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    return (rho + rho.conj().T) / 2


def _spy_stacks(monkeypatch) -> list:
    """``(pure, values)`` of each ``_contract_all`` call, in call order."""
    seen, contract_all = [], invariants._contract_all

    def spy(plan, src, count):
        seen.append((src.pure, contract_all(plan, src, count)))
        return seen[-1][1]

    monkeypatch.setattr(invariants, "_contract_all", spy)
    return seen


@pytest.mark.parametrize("dims, ks", [((2,) * 6, (1, 2)), ((4, 4, 4), (1, 2, 3)), ((8, 8), (1, 2, 3))])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_verify_contracts_a_low_rank_density_through_its_purification(dims, ks, rank, monkeypatch):
    seen = _spy_stacks(monkeypatch)
    rho, trials, seed = rank_r_density(dims, rank, 100 + rank), 6, 101
    for k in ks:
        tuples = [c.representative for c in enumerate_invariants(len(dims), k)]
        seen.clear()
        cost = ContractionCost()
        devs = verify_classes(tuples, rho, dims, trials=trials, seed=seed, cost=cost)
        assert cost.purification.rank == rank and cost.purification.discarded_weight <= 1e-12
        assert [pure for pure, _ in seen] == [True]  # psi, in one chunk
        # row 0 is psi itself: every label of rho, with e appended for P
        want = np.array(evaluate_many(tuples, rho, dims))
        assert np.all(np.abs(seen[0][1][:, 0] - want) <= 1e-12 * np.abs(want)), (dims, k)
        oracle = [
            max_unitary_deviation(lambda r: evaluate_fast(t, r, dims), rho, dims, trials, seed)
            for t in tuples
        ]
        assert np.abs(np.subtract(devs, oracle)).max() <= 1e-13, (dims, k)
        assert max(devs) <= 1e-12


def test_verify_keeps_the_operator_when_values_fill_the_row(monkeypatch):
    # the 8051 values of (6, 3) outgrow psi and the operator alike: one row a
    # chunk either way, a tie, so psi's programs are not even planned
    tuples = [c.representative for c in enumerate_invariants(6, 3)]
    rho = rank_r_density((2,) * 6, 2, 102)
    planned, plan = [], invariants._plan
    monkeypatch.setattr(invariants, "_plan", lambda *args: planned.append(args[1]) or plan(*args))
    cost = ContractionCost()
    state, src, _, rows = invariants._route(tuples, rho, (2,) * 6, 6, cost)
    assert state is rho and not src.pure and cost.purification is None and rows == 1
    assert planned == [(2,) * 6]


def test_purified_verify_replays_each_program_once(monkeypatch):
    rows_seen = _spy_replay_rows(monkeypatch)
    dims = (2,) * 6
    tuples = [c.representative for c in enumerate_invariants(6, 2)]
    rho = rank_r_density(dims, 2, 103)
    # the operator takes 2 rows a chunk, so 4 chunks for 7 rows; psi takes them in one
    assert invariants.BATCH_BYTES // _row_bytes(tuples, rho, dims) == 2
    _, src, _, rows = invariants._route(tuples, rho, dims, 6, None)
    assert src.pure and rows == 7
    rows_seen.clear()
    devs = verify_classes(tuples, rho, dims, trials=6, seed=104)
    assert rows_seen == [7] * len(tuples) and max(devs) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: random_density(64, np.random.default_rng(105)),  # full rank: psi is as large, a tie
    lambda: rank_r_density((8, 8), 2, 106) - 0.5 * rank_r_density((8, 8), 1, 107),  # indefinite
    lambda: rank_r_density((8, 8), 2, 108) + np.triu(np.full((64, 64), 0.01), 1),  # eigh reads one triangle
])
def test_verify_keeps_the_operator_route_bit_for_bit(make, monkeypatch):
    seen = _spy_stacks(monkeypatch)
    dims, rho = (8, 8), make()
    tuples = [c.representative for k in (1, 2) for c in enumerate_invariants(2, k)]
    cost = ContractionCost()
    devs = verify_classes(tuples, rho, dims, trials=3, seed=110, cost=cost)
    assert cost.purification is None and [pure for pure, _ in seen] == [False, False]
    oracle = [
        max_unitary_deviation(lambda r: evaluate_fast(t, r, dims), rho, dims, trials=3, seed=110)
        for t in tuples
    ]
    assert same_bits(devs, oracle)


def test_verify_keeps_the_operator_when_p_takes_a_label_past_max_labels():
    # 2 groups x degree 18 = 36 indices; P's e would add an 18-index third group
    cycle = "(" + " ".join(str(c) for c in range(1, 19)) + ")"
    t = parse_label(f"18; {cycle} | (12)")
    rho = rank_r_density((8, 8), 2, 114)
    cost = ContractionCost()
    [dev] = verify_classes([t], rho, (8, 8), trials=3, seed=115, cost=cost)
    assert cost.purification is None and dev <= 1e-9
    oracle = max_unitary_deviation(lambda r: evaluate_fast(t, r, (8, 8)), rho, (8, 8), 3, 115)
    assert same_bits(dev, oracle)


def test_verify_of_an_operator_that_fits_one_chunk_never_diagonalises(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rho = rank_r_density((2, 2, 2), 2, 111)
    tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(3, k)]
    cost = ContractionCost()
    assert max(verify_classes(tuples, rho, (2, 2, 2), trials=20, seed=112, cost=cost)) <= 1e-12
    assert cost.purification is None


@pytest.mark.parametrize("dims, step", [((8, 8), 1), ((2,) * 6, 500)])
def test_eval_of_a_low_rank_density_never_diagonalises(dims, step, monkeypatch):
    # eval's one row fits one chunk, so the route never purifies; verify of
    # the same density, whose 3 rows take 2 operator chunks, does
    def refuse(*args):
        raise AssertionError("np.linalg.eigh called")

    eigh, diagonalised = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rho = rank_r_density(dims, 2, 116)
    tuples = [c.representative for k in (1, 2, 3) for c in enumerate_invariants(len(dims), k)]
    stale = invariants.Purification(5, 0.25)  # eval sets its own route's: None
    cost = ContractionCost(purification=stale)
    values = evaluate_many(tuples, rho, dims, cost=cost)
    assert cost.purification is None and cost.flops > 0
    # the index sum takes 58 ms a degree-3 label of 2^6: 1 in 500 of its 8051
    for i, (t, got) in enumerate(zip(tuples, values)):
        if t.k < 3 or i % step == 0:
            want = evaluate(t, rho, dims)
            assert abs(got - want) <= 1e-10 * abs(want), (dims, t.label())
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: diagonalised.append(mat.shape) or eigh(mat))
    few = [t for t in tuples if t.k < 3]
    verify_classes(few, rho, dims, trials=2, seed=117, cost=cost)
    assert diagonalised == [(64, 64)] and cost.purification.rank == 2


def test_a_cost_records_the_route_of_the_call_that_charged_it():
    # a verify through the purification, then an eval on the operator, into one cost
    dims = (2,) * 6
    tuples = [c.representative for c in enumerate_invariants(6, 2)]
    rho = rank_r_density(dims, 2, 118)
    verified, evaluated, cost = ContractionCost(), ContractionCost(), ContractionCost()
    verify_classes(tuples, rho, dims, trials=6, seed=119, cost=verified)
    evaluate_many(tuples, rho, dims, cost=evaluated)
    verify_classes(tuples, rho, dims, trials=6, seed=119, cost=cost)
    assert cost.purification.rank == 2 and cost == verified
    evaluate_many(tuples, rho, dims, cost=cost)
    assert cost.purification is None and evaluated.purification is None
    assert cost.flops == verified.flops + evaluated.flops


def test_verify_cli_reports_the_purification(tmp_path, capsys):
    dims = (2,) * 6
    path = tmp_path / "rho.json"
    save_state(StateData.density(Tensor(rank_r_density(dims, 2, 113)), dims), path)
    argv = ["invariants", "verify", str(path), "-k", "2", "--trials", "4"]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    purification = doc["diagnostics"]["purification"]
    assert set(purification) == {"rank", "discarded_weight"} and purification["rank"] == 2
    assert 0 <= purification["discarded_weight"] <= 1e-12
    assert main(argv) == 0
    assert "purif" not in capsys.readouterr().out  # the human lines do not change


# ---------------------------------------------------- single-subsystem laws


def test_cayley_hamilton_recurrence_qubit():
    rho = random_density(2)
    a = -np.trace(rho)
    b = np.linalg.det(rho)
    vals = {}
    vals[1] = evaluate_fast(PermTuple(1, ((0,),)), rho, (2,))
    for m in range(2, 7):
        cyc = tuple(range(1, m)) + (0,)
        vals[m] = evaluate_fast(PermTuple(m, (cyc,)), rho, (2,))
    for m in range(1, 5):
        resid = vals[m + 2] + a * vals[m + 1] + b * vals[m]
        assert abs(resid) < 1e-9


def test_qubit_determinant_identity():
    rho = random_density(2)
    i1 = evaluate_fast(PermTuple(1, ((0,),)), rho, (2,))
    i2 = evaluate_fast(PermTuple(2, ((1, 0),)), rho, (2,))
    det = np.linalg.det(rho)
    assert abs(det - 0.5 * (i1**2 - i2)) < 1e-10


# ------------------------------------------------------------------- J_k


def test_jk_normalized_state():
    psi = random_pure_state((3, 4), seed=2)
    assert abs(pure_jk(psi, ([0], [1]), 1) - 1.0) < 1e-12


def test_jk_bell():
    from tninv import Tensor

    bell = Tensor(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    assert abs(pure_jk(bell, ([0], [1]), 2) - 0.5) < 1e-12


def test_jk_two_qubit_closed_form():
    for seed in range(10):
        psi = random_pure_state((2, 2), seed=seed)
        alpha = psi.data
        det = alpha[0, 0] * alpha[1, 1] - alpha[0, 1] * alpha[1, 0]
        j2 = pure_jk(psi, ([0], [1]), 2)
        assert abs(j2 - (1 - 2 * abs(det) ** 2)) < 1e-10


def test_jk_matches_invariant_evaluation():
    psi = random_pure_state((2, 2, 2), seed=9)
    rho = density_from_pure(psi)
    for k in (1, 2, 3):
        jk = pure_jk(psi, ([0], [1, 2]), k)
        cyc = tuple(range(1, k)) + (0,)
        t = PermTuple(k, (cyc, tuple(range(k))))
        # group the state as (first qubit) x (rest)
        val = evaluate_fast(t, rho, (2, 4))
        assert abs(val - jk) < 1e-10
        # or leave it ungrouped and let evaluate_fast fuse the legs
        for keep, rest in (([0], [1, 2]), ([1], [0, 2]), ([0, 2], [1])):
            t = reduced_power_label(3, keep, k)
            val = evaluate_fast(t, rho, (2, 2, 2))
            assert abs(val - pure_jk(psi, (keep, rest), k)) < 1e-10
