import numpy as np
import pytest

from tninv import (
    Tensor,
    ShapeError,
    PermTuple,
    evaluate,
    evaluate_fast,
    group_legs,
    permutation_operator,
)

RNG = np.random.default_rng(202401)


def crand(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def loop_network(t, rho, dims):
    """Explicit index-sum oracle for the invariant network, all loops written out.

    Copy c of rho has row index i[sigma_s(c)][s] and column index i[c][s] on
    subsystem s; the value sums the product of the k copies over every i.
    """
    n, k = len(dims), t.k
    mat = np.asarray(rho).reshape(dims + dims)
    total = 0j
    for flat in np.ndindex(*(dims * k)):
        idx = [flat[c * n:(c + 1) * n] for c in range(k)]
        term = 1 + 0j
        for c in range(k):
            row = tuple(idx[sigma[c]][s] for s, sigma in enumerate(t.sigmas))
            term *= mat[row + idx[c]]
        total += term
    return total


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1.0)


# -------------------------------------------------------------- group_legs


def test_group_then_ungroup_roundtrip():
    a = Tensor(crand(2, 3, 4, 2))
    m = group_legs(a, ([0, 1], [2, 3]))
    assert m.dims == (6, 8)
    assert np.array_equal(m.data.reshape(2, 3, 4, 2), a.data)


def test_group_index_arithmetic():
    arr = crand(2, 2, 2, 2)
    m = group_legs(Tensor(arr), ([0, 1], [2, 3])).data
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert m[2 * i + j, 2 * k + l] == arr[i, j, k, l]
    assert np.array_equal(group_legs(arr, ([0, 1], [2, 3])).data, m)  # an array bends alike


def test_group_all_legs_vectorizes():
    a = Tensor(crand(2, 3, 2))
    v = group_legs(a, ([0, 1, 2], []))
    assert v.dims == (12,)
    assert np.array_equal(v.data, a.data.reshape(-1))


def test_group_bad_split():
    a = Tensor(crand(2, 3))
    with pytest.raises(ShapeError):
        group_legs(a, ([0], [0, 1]))
    with pytest.raises(ShapeError):
        group_legs(a, ([0], []))


# ------------------------------------- contraction of the invariant network


def test_contract_matches_loop_oracle():
    rho = crand(3, 3)
    for sigma in [(1, 2, 0), (0, 2, 1), (0, 1, 2)]:
        t = PermTuple(3, (sigma,))
        assert rel_err(evaluate_fast(t, rho, (3,)), loop_network(t, rho, (3,))) < 1e-12


def test_contract_multi_pair_matches_loop_oracle():
    # equal permutations on subsystems 0 and 2 are fused across subsystem 1
    dims = (2, 3, 2)
    rho = crand(12, 12)
    t = PermTuple(3, ((1, 2, 0), (1, 0, 2), (1, 2, 0)))
    assert rel_err(evaluate_fast(t, rho, dims), loop_network(t, rho, dims)) < 1e-12


def test_contract_is_bilinear():
    # a degree-2 invariant is a quadratic form, so it obeys the parallelogram law
    dims = (2, 3)
    t = PermTuple(2, ((1, 0), (0, 1)))
    a, b = crand(6, 6), crand(6, 6)
    al = 0.3 - 1.1j

    def q(m):
        return evaluate_fast(t, m, dims)

    lhs = q(a + b) + q(a - b)
    rhs = 2 * q(a) + 2 * q(b)
    assert rel_err(lhs, rhs) < 1e-12
    assert rel_err(q(al * a), al**2 * q(a)) < 1e-12


def test_contract_dimension_mismatch():
    t = PermTuple(2, ((1, 0), (1, 0)))
    with pytest.raises(ShapeError):
        evaluate_fast(t, crand(4, 4), (4,))


# ------------------------------------------------- loops closed by the network


def test_self_trace_identity():
    t = PermTuple(1, ((0,),))
    for d in (2, 3, 7):
        assert evaluate_fast(t, np.eye(d), (d,)) == pytest.approx(d)


def test_self_trace_density_normalization():
    psi = crand(6)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    val = evaluate_fast(PermTuple(1, ((0,), (0,))), rho, (2, 3))
    assert abs(val - 1.0) < 1e-12


def test_self_trace_swap_both_loops():
    d = 3
    eye = np.eye(d)
    swap = PermTuple(2, ((1, 0),))
    got = evaluate_fast(swap, eye, (d,))
    assert abs(got - loop_network(swap, eye, (d,))) < 1e-12
    assert abs(got - d) < 1e-12  # the swap joins both copies into one loop
    # without the swap each copy closes its own loop
    apart = evaluate_fast(PermTuple(2, ((0, 1),)), eye, (d,))
    assert abs(apart - d * d) < 1e-12


def test_self_trace_dimension_mismatch():
    with pytest.raises(ShapeError):
        evaluate_fast(PermTuple(1, ((0,),)), crand(2, 3), (2,))


# ------------------------------------------------------- permutation_operator


def test_permute_identity():
    t = PermTuple(3, ((0, 1, 2), (0, 1, 2)))
    assert np.array_equal(permutation_operator(t, (2, 3)), np.eye(6**3))


def test_permute_transposition_is_self_inverse():
    t = PermTuple(2, ((1, 0), (1, 0)))
    op = permutation_operator(t, (3, 2))
    assert np.array_equal(op @ op, np.eye(36))


def test_permute_cycle_matches_reindexing_oracle():
    dims = (2, 3)
    t = PermTuple(3, ((1, 2, 0), (0, 2, 1)))
    got = permutation_operator(t, dims)
    full = dims * t.k
    want = np.zeros_like(got)
    for src in np.ndindex(*full):
        dst = [0] * len(full)
        for c in range(t.k):
            for s, sigma in enumerate(t.sigmas):
                dst[sigma[c] * len(dims) + s] = src[c * len(dims) + s]
        want[np.ravel_multi_index(dst, full), np.ravel_multi_index(src, full)] = 1.0
    assert np.array_equal(got, want)


def test_permute_then_inverse_is_identity():
    for _ in range(10):
        n, k = int(RNG.integers(1, 3)), int(RNG.integers(1, 4))
        dims = tuple(int(d) for d in RNG.integers(1, 4, size=n))
        sigmas = [tuple(int(x) for x in RNG.permutation(k)) for _ in range(n)]
        inverses = [tuple(int(x) for x in np.argsort(s)) for s in sigmas]
        op = permutation_operator(PermTuple(k, tuple(sigmas)), dims)
        back = permutation_operator(PermTuple(k, tuple(inverses)), dims)
        assert np.array_equal(back @ op, np.eye(op.shape[0]))


def test_permute_wrong_length():
    with pytest.raises(ShapeError):
        permutation_operator(PermTuple(2, ((1, 0), (0, 1))), (2,))


# --------------------------------------------- networks on product operators


def test_tensor_product_identity_trace():
    eye4 = np.kron(np.eye(2), np.eye(2))
    val = evaluate_fast(PermTuple(1, ((0,), (0,))), eye4, (2, 2))
    assert val == pytest.approx(4.0)


def test_tensor_product_trace_multiplicative():
    a, b = crand(2, 2), crand(3, 3)
    prod_op = np.kron(a, b)
    val = evaluate_fast(PermTuple(1, ((0,), (0,))), prod_op, (2, 3))
    assert abs(val - np.trace(a) * np.trace(b)) < 1e-12 * max(abs(val), 1.0)
    # a swap on A and no swap on B factor into tr(a^2) tr(b)^2
    t = PermTuple(2, ((1, 0), (0, 1)))
    want = np.trace(a @ a) * np.trace(b) ** 2
    assert rel_err(evaluate_fast(t, prod_op, (2, 3)), want) < 1e-12
    assert rel_err(evaluate(t, prod_op, (2, 3)), want) < 1e-12


# ----------------------------------------------------------------- Tensor


def test_tensor_is_immutable():
    t = Tensor(crand(2, 2))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0


def test_scalar_tensor():
    t = Tensor(np.array(2.0 + 1.0j))
    assert t.dims == ()
    assert complex(t.data) == 2.0 + 1.0j


def test_tensor_refuses_a_zero_length_leg():
    with pytest.raises(ShapeError, match=r"^leg dimensions must be positive, got \(2, 0\)$"):
        Tensor(np.zeros((2, 0)))


def test_tensor_repr_names_its_dims():
    assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(dims=(2, 3))"
