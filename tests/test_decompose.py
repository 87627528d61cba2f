import numpy as np
import pytest

from tninv import (
    Tensor,
    ShapeError,
    MPSChain,
    diagrammatic_svd,
    schmidt,
    mps_factor,
    mps_reconstruct,
    classify_topology,
    verify_isometry,
    fidelity,
    group_legs,
    random_pure_state,
    SEPARABLE,
    MAXIMALLY_ENTANGLED,
    GENERIC,
)
from tninv.decompose import RANK_TOL, _count_rank

RNG = np.random.default_rng(7)


def test_mps_chain_refuses_a_malformed_chain():
    site = Tensor(np.ones((1, 2, 1)))
    for sites, sigmas, message in (
        ([], [], "at least one site"),
        ([Tensor(np.ones((1, 2)))], [], "site 0 has 2 legs, want 3"),
        ([Tensor(np.ones((2, 2, 1)))], [], "boundary bonds"),
        ([Tensor(np.ones((1, 2, 2))), site], [np.ones(2)], "bond mismatch between sites 0 and 1"),
        ([site, site], [], "one bond vector per internal bond"),
    ):
        with pytest.raises(ShapeError, match=message):
            MPSChain(sites, sigmas)


def test_fidelity_refuses_a_size_mismatch_and_the_zero_state():
    with pytest.raises(ShapeError, match="states of size 4 and 2"):
        fidelity(Tensor(np.ones(4)), Tensor(np.ones(2)))
    for a, b in ((np.zeros(2), np.ones(2)), (np.ones(2), np.zeros(2))):
        with pytest.raises(ValueError, match="zero state"):
            fidelity(Tensor(a), Tensor(b))


def test_verify_isometry_needs_three_legs():
    for shape in ((2, 2), (1, 2, 2, 1)):
        with pytest.raises(ShapeError, match=f"3 legs, got {len(shape)}"):
            verify_isometry(Tensor(np.ones(shape)))


def crand(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def reduced_eigenvalues(psi, keep_legs):
    """Independent oracle: eigenvalues of the reduced density operator."""
    arr = psi.data if isinstance(psi, Tensor) else psi
    traced = [i for i in range(arr.ndim) if i not in keep_legs]
    rho = np.tensordot(arr, arr.conj(), axes=(traced, traced))
    d = int(np.sqrt(rho.size))
    return np.sort(np.linalg.eigvalsh(rho.reshape(d, d)))[::-1]


# --------------------------------------------------------------------- SVD


def test_svd_identity():
    f = diagrammatic_svd(Tensor(np.eye(4)))
    assert np.allclose(f.sigma, np.ones(4))
    assert not f.q_needed
    # with all singular values 1, U Sigma V = U V must reassemble the input
    assert np.allclose(f.u @ f.v, np.eye(4), atol=1e-12)


def test_svd_diagonal():
    f = diagrammatic_svd(Tensor(np.diag([3.0, 4.0])))
    assert np.allclose(f.sigma, [4.0, 3.0])


def test_svd_rectangular_reconstruction():
    mat = crand(4, 6)
    f = diagrammatic_svd(Tensor(mat))
    assert f.q_needed
    assert f.u.shape == (4, 4) and f.v.shape == (6, 6)
    assert np.linalg.norm(f.reconstruct() - mat) < 1e-10
    # and the transpose orientation
    g = diagrammatic_svd(Tensor(mat.T))
    assert np.linalg.norm(g.reconstruct() - mat.T) < 1e-10


def test_svd_q_form_reassembly():
    # the U . Q . diag(sigma) . V product, with sigma zero-padded to the
    # input dimension, reproduces the matrix in both orientations
    for shape in ((4, 6), (6, 4), (5, 5)):
        mat = crand(*shape)
        f = diagrammatic_svd(Tensor(mat))
        padded = np.zeros(shape[1])
        padded[: len(f.sigma)] = f.sigma
        rebuilt = f.u @ f.q @ np.diag(padded) @ f.v
        assert np.linalg.norm(rebuilt - mat) < 1e-10


def test_svd_factors_unitary_and_sorted():
    mat = crand(5, 5)
    f = diagrammatic_svd(Tensor(mat))
    assert np.max(np.abs(f.u.conj().T @ f.u - np.eye(5))) < 1e-10
    assert np.max(np.abs(f.v.conj().T @ f.v - np.eye(5))) < 1e-10
    assert np.all(f.sigma[:-1] >= f.sigma[1:])
    assert np.all(f.sigma >= 0)


def test_svd_sigma_unique_across_runs():
    mat = crand(6, 3)
    s1 = diagrammatic_svd(Tensor(mat)).sigma
    s2 = diagrammatic_svd(Tensor(mat)).sigma
    assert np.max(np.abs(s1 - s2)) < 1e-12


def test_svd_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        diagrammatic_svd(Tensor(bad))


def test_svd_needs_two_legs():
    with pytest.raises(ShapeError):
        diagrammatic_svd(Tensor(crand(2, 2, 2)))


# ----------------------------------------------------------------- Schmidt


def test_schmidt_bell_state():
    bell = Tensor(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    form = schmidt(bell, ([0], [1]))
    assert np.allclose(form.sigma, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert form.rank == 2


def test_schmidt_product_state():
    ket01 = np.zeros((2, 2))
    ket01[0, 1] = 1.0
    form = schmidt(Tensor(ket01), ([0], [1]))
    assert np.allclose(form.sigma, [1.0, 0.0], atol=1e-12)
    assert form.rank == 1


def test_schmidt_matches_reduced_density_oracle():
    psi = random_pure_state((2,) * 5, seed=11)
    form = schmidt(psi, ([0, 1], [2, 3, 4]))
    want = reduced_eigenvalues(psi, [0, 1])
    assert np.max(np.abs(np.sort(form.sigma**2)[::-1] - want)) < 1e-10


def test_schmidt_reconstructs_state():
    psi = random_pure_state((2, 3, 2), seed=3)
    groups = ([0, 2], [1])
    form = schmidt(psi, groups)
    grouped = group_legs(psi, groups).data
    assert np.max(np.abs(form.reconstruct_matrix() - grouped)) < 1e-10


def test_schmidt_bases_orthonormal():
    psi = random_pure_state((4, 3), seed=5)
    form = schmidt(psi, ([0], [1]))
    r = len(form.sigma)
    assert np.max(np.abs(form.left_basis.conj().T @ form.left_basis - np.eye(r))) < 1e-10
    assert np.max(np.abs(form.right_basis.conj().T @ form.right_basis - np.eye(r))) < 1e-10


def test_schmidt_normalization_over_bipartitions():
    psi = random_pure_state((2,) * 4, seed=13)
    for cut in range(1, 4):
        groups = (list(range(cut)), list(range(cut, 4)))
        form = schmidt(psi, groups)
        assert abs(np.sum(form.sigma**2) - 1.0) < 1e-10


def test_schmidt_empty_group_rejected():
    psi = random_pure_state((2, 2), seed=1)
    with pytest.raises(ShapeError):
        schmidt(psi, ([], [0, 1]))


# ------------------------------------------------------------- entanglement


def test_classify_topology():
    assert classify_topology(np.array([1.0, 0.0])) == SEPARABLE
    assert classify_topology(np.array([1.0, 1.0]) / np.sqrt(2)) == MAXIMALLY_ENTANGLED
    assert classify_topology(np.array([0.9, np.sqrt(1 - 0.81)])) == GENERIC


def test_classify_topology_unnormalized_rejected():
    with pytest.raises(ValueError):
        classify_topology(np.array([1.0, 1.0]))


# --------------------------------------------------------------------- MPS


def test_mps_product_state_bond_dims_one():
    ket = np.zeros((2, 2, 2, 2))
    ket[0, 1, 0, 1] = 1.0
    chain = mps_factor(Tensor(ket))
    assert chain.bond_dims == (1, 1, 1)
    for sig in chain.bond_sigmas:
        assert np.allclose(sig, [1.0], atol=1e-12)


def test_mps_middle_bond_at_most_four():
    # qubit chain: the inside partition carries at most four singular values
    psi = random_pure_state((2,) * 4, seed=21)
    chain = mps_factor(psi)
    assert len(chain.bond_sigmas[1]) <= 4
    assert chain.bond_dims[1] <= 4


@pytest.mark.parametrize("n", [4, 5, 6])
def test_mps_roundtrip_fidelity(n):
    psi = random_pure_state((2,) * n, seed=100 + n)
    chain = mps_factor(psi)
    assert fidelity(psi, mps_reconstruct(chain)) >= 1 - 1e-10
    # the matrix chain gives the bits of a tensordot over each bond in turn,
    # on exact and truncated chains and with mixed physical dimensions
    mixed = random_pure_state((3, 2, 1, 4)[: n - 2] + (2, 2), seed=n)
    for c in (chain, mps_factor(psi, max_chi=2), mps_factor(mixed), mps_factor(mixed, max_chi=3)):
        acc = c.sites[0].data[0]
        for site in c.sites[1:]:
            acc = np.tensordot(acc, site.data, axes=([acc.ndim - 1], [0]))
        out = mps_reconstruct(c).data
        assert out.shape == c.phys_dims and np.array_equal(out, acc[..., 0])


def test_mps_bond_sigmas_match_schmidt():
    for n, seed in ((5, 31), (10, 3)):
        psi = random_pure_state((2,) * n, seed=seed)
        chain = mps_factor(psi)
        for b in range(n - 1):
            left = list(range(b + 1))
            right = list(range(b + 1, n))
            sig = np.sort(schmidt(psi, (left, right)).sigma)[::-1]
            bond = np.sort(chain.bond_sigmas[b])[::-1]
            padded = np.zeros(len(sig))
            padded[: len(bond)] = bond
            assert np.max(np.abs(padded - sig)) < 1e-10
            # numpy's SVD of psi cut after qubit b: every value, within 1e-12 relative
            want = np.linalg.svd(psi.data.reshape(2 ** (b + 1), -1), compute_uv=False)
            assert len(bond) == len(want) and np.all(np.abs(bond - want) <= 1e-12 * want), (n, b)


def test_mps_single_site_reconstruct():
    site = Tensor(crand(1, 3, 1))
    chain = MPSChain(sites=[site], bond_sigmas=[])
    out = mps_reconstruct(chain)
    assert np.array_equal(out.data, site.data[0, :, 0])


def test_mps_needs_two_legs():
    with pytest.raises(ShapeError):
        mps_factor(Tensor(crand(4)))


def test_mps_bad_policy():
    psi = random_pure_state((2, 2), seed=1)
    with pytest.raises(ValueError):
        mps_factor(psi, max_chi=0)
    for cutoff in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="sigma_cutoff"):
            mps_factor(psi, sigma_cutoff=cutoff)


def test_mps_zero_sigma_bond_is_inert():
    # a dead bond component does not contribute to the reconstruction
    site0 = np.zeros((1, 2, 2), dtype=complex)
    site0[0, 0, 0] = 1.0
    site1 = np.zeros((2, 2, 1), dtype=complex)
    site1[0, 0, 0] = 1.0
    site1[1, 1, 0] = 0.123  # multiplied by sigma = 0 in the state
    chain = MPSChain(
        sites=[Tensor(site0), Tensor(site1)],
        bond_sigmas=[np.array([1.0, 0.0])],
    )
    full = mps_reconstruct(chain)
    assert np.array_equal(full.data, np.array([[1.0, 0.0], [0.0, 0.0]]))


# -------------------------------------------------------------- truncation


def test_mps_factor_truncation_keeps_chain_left_canonical():
    bell = Tensor(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    chain = mps_factor(bell, max_chi=1)
    assert chain.bond_dims == (1,)
    assert abs(fidelity(bell, mps_reconstruct(chain)) - 0.5) < 1e-12
    psi = random_pure_state((2,) * 5, seed=66)
    exact = mps_reconstruct(mps_factor(psi, sigma_cutoff=0.0)).data
    assert np.max(np.abs(exact - psi.data)) < 1e-12
    fids = []
    for chi in (4, 3, 2, 1):
        chain = mps_factor(psi, max_chi=chi)
        assert max(chain.bond_dims) <= chi
        assert all(verify_isometry(site, "left") <= 1e-10 for site in chain.sites[:-1])
        fids.append(fidelity(psi, mps_reconstruct(chain)))
    assert all(fids[i] >= fids[i + 1] - 1e-12 for i in range(len(fids) - 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mps_factor_refuses_non_finite_input(bad):
    # the first cut is wide for (2, 8) and tall for (8, 2): either way the
    # state is refused before any factorization
    for dims in ((2, 8), (8, 2)):
        data = random_pure_state(dims, seed=5).data.copy()
        data[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mps_factor(Tensor(data))


# ------------------------------------------------------------------ routes


def _reference_sweep(psi, max_chi=None, sigma_cutoff=None):
    """The left-to-right sweep with the plain thin SVD at every cut."""
    dims = psi.dims
    sites, sigmas, shapes = [], [], []
    work, r = psi.data, 1
    for d in dims[:-1]:
        mat = work.reshape(r * d, -1)
        shapes.append(mat.shape)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        chi = max(int(np.count_nonzero(s > RANK_TOL * s[0])), 1)
        if sigma_cutoff is not None:
            chi = min(chi, max(int(np.count_nonzero(s > sigma_cutoff)), 1))
        if max_chi is not None:
            chi = min(chi, max_chi)
        sites.append(u[:, :chi].reshape(r, d, chi))
        sigmas.append(s[:chi])
        work, r = s[:chi, None] * vh[:chi], chi
    sites.append(work.reshape(r, dims[-1], 1))
    return sites, sigmas, shapes


def _ghz(n):
    ket = np.zeros((2,) * n)
    ket[(0,) * n] = ket[(1,) * n] = 1 / np.sqrt(2)
    return Tensor(ket)


def _product(n):
    ket = np.zeros((2,) * n)
    ket[(0, 1) * (n // 2) + (0,) * (n % 2)] = 1.0
    return Tensor(ket)


ROUTE_DIMS = [(2,) * 10, (2, 3, 2, 3), (3, 3, 3, 3), (4, 2, 5), (1, 2, 3), (3, 1, 2), (6, 2, 2)]
ROUTE_STATES = [random_pure_state(d, seed=90 + i) for i, d in enumerate(ROUTE_DIMS)]
ROUTE_STATES += [_ghz(3), _ghz(7), _product(4), _product(7)]
# max_chi 4 and sigma_cutoff 1e-3 mix cuts that keep every value with cuts
# that drop some in one sweep
POLICIES = [{}, {"max_chi": 2}, {"max_chi": 4}, {"sigma_cutoff": 0.1}, {"sigma_cutoff": 1e-3}]


def test_mps_routes_agree_with_the_plain_svd_sweep():
    cuts = set()
    for psi in ROUTE_STATES:
        for policy in POLICIES:
            chain = mps_factor(psi, **policy)
            sites, sigmas, shapes = _reference_sweep(psi, **policy)
            cuts.update(np.sign(m - n) for m, n in shapes)
            assert chain.bond_dims == tuple(s.shape[2] for s in sites[:-1]), (psi.dims, policy)
            for got, want in zip(chain.bond_sigmas, sigmas):
                assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
            for site in chain.sites[:-1]:
                assert verify_isometry(site) <= 1e-13
            ref = mps_reconstruct(MPSChain([Tensor(s) for s in sites], sigmas))
            got = fidelity(psi, mps_reconstruct(chain))
            assert abs(got - fidelity(psi, ref)) <= 1e-12, (psi.dims, policy)
    assert cuts == {-1, 0, 1}  # wide, square and tall cuts were all taken


@pytest.mark.parametrize("policy", POLICIES)
def test_mps_chi_is_the_exact_rank_on_ghz_and_product_states(policy):
    for n in (3, 7):
        assert mps_factor(_ghz(n), **policy).bond_dims == (2,) * (n - 1)
        assert mps_factor(_product(n), **policy).bond_dims == (1,) * (n - 1)


def _svd_calls(monkeypatch, psi, **policy):
    """The chain, and (min(m, n), compute_uv) of each SVD the sweep takes."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((min(a.shape), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    chain = mps_factor(psi, **policy)
    monkeypatch.undo()
    return chain, calls


def test_mps_builds_singular_vectors_only_at_cuts_that_drop_values(monkeypatch):
    # full rank and no policy: every cut keeps all its values, so no SVD
    # builds vectors; the cuts of 10 qubits have min(m, n) 2, 4, ..., 32, ..., 2
    psi = random_pure_state((2,) * 10, seed=12)
    chain, calls = _svd_calls(monkeypatch, psi)
    assert calls == [(k, False) for k in (2, 4, 8, 16, 32, 16, 8, 4, 2)]
    assert all(verify_isometry(site) <= 1e-13 for site in chain.sites[:-1])
    # max_chi 4: a cut with min(m, n) > 4 goes straight to the SVD with vectors
    chain, calls = _svd_calls(monkeypatch, psi, max_chi=4)
    assert chain.bond_dims == (2, 4, 4, 4, 4, 4, 4, 4, 2)
    assert calls == [(k, k > 4) for k in (2, 4, 8, 8, 8, 8, 8, 4, 2)]
    # GHZ has rank 2 at every cut: the cuts with min(m, n) 4 drop values by the
    # rank cut, so they take the values and then the vectors
    chain, calls = _svd_calls(monkeypatch, _ghz(7))
    assert chain.bond_dims == (2,) * 6
    assert calls == [(2, False)] + [(4, False), (4, True)] * 4 + [(2, False)]


# ---------------------------------------------------------------- isometry


def test_isometry_from_unitary_block():
    z = crand(4, 4)
    q, _ = np.linalg.qr(z)
    site = Tensor(q.reshape(2, 2, 4))
    assert verify_isometry(site, "left") < 1e-12


def test_isometry_of_untruncated_chain():
    psi = random_pure_state((2,) * 5, seed=77)
    chain = mps_factor(psi)
    for site in chain.sites[:-1]:
        assert verify_isometry(site, "left") <= 1e-10


def test_isometry_detects_scaling():
    z = crand(4, 4)
    q, _ = np.linalg.qr(z)
    site = Tensor(2.0 * q.reshape(2, 2, 4))
    dev = verify_isometry(site, "left")
    assert abs(dev - 3.0) < 1e-10


def test_isometry_right_direction():
    z = crand(4, 4)
    q, _ = np.linalg.qr(z)
    site = Tensor(q.reshape(4, 2, 2))  # rows orthonormal when fusing (d, r)
    assert verify_isometry(site, "right") < 1e-12
    with pytest.raises(ValueError):
        verify_isometry(site, "up")


def test_rank_of_a_zero_vector_is_zero():
    assert _count_rank(np.zeros(3)) == 0
    assert schmidt(Tensor(np.zeros((2, 2))), ([0], [1])).rank == 0
