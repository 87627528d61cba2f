"""Singular-value factorizations of states: Schmidt form and MPS chains.

A state tensor is cut into two leg groups, bent into a linear map, and
factored with the SVD; iterating the cut from left to right produces a
matrix product chain whose internal tensors are isometries and whose bond
vectors are the singular values across each cut.  The sweep takes a cut's
singular values first and builds singular vectors only where the
truncation policy drops a value; a cut that keeps every value takes the
identity or the Q of a QR as its isometry (the gauge freedom of the
chain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, ShapeError, group_legs

RANK_TOL = 1e-10  # sigma_i counts as nonzero iff sigma_i > RANK_TOL * sigma_max

SEPARABLE = "separable"
MAXIMALLY_ENTANGLED = "maximally_entangled"
GENERIC = "generic"


@dataclass
class SVDFactors:
    """Full SVD of a map A -> B written as matrix = u @ sigma_matrix @ v.

    u is dim(B) x dim(B) unitary, v is dim(A) x dim(A) unitary, sigma holds
    the min(dim A, dim B) singular values in non-increasing order.  q is
    the rectangular dimension changer with 1's on the diagonal; it is the
    identity (and ``q_needed`` false) for square input.  ``q``, ``q_needed``
    and ``sigma_matrix`` illustrate the paper's diagrammatic SVD, U Q Sigma V.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    q: np.ndarray
    q_needed: bool

    def sigma_matrix(self) -> np.ndarray:
        """Rectangular diagonal q * sigma, shaped like the input matrix."""
        out = np.zeros(self.q.shape, dtype=np.complex128)
        np.fill_diagonal(out, self.sigma)
        return out

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.sigma_matrix() @ self.v


def diagrammatic_svd(m: Tensor) -> SVDFactors:
    """Factor a two-leg tensor, read as a map from leg 1 into leg 0.

    The singular vector is unique; u and v are unique only up to phase and
    degenerate-subspace freedom.
    """
    if m.nlegs != 2:
        raise ShapeError(f"need a two-leg tensor, got {m.nlegs} legs")
    mat = m.data
    if not np.all(np.isfinite(mat)):
        raise ValueError("input tensor has non-finite components")
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    db, da = mat.shape
    q = np.zeros((db, da), dtype=np.complex128)
    np.fill_diagonal(q, 1.0)
    return SVDFactors(u=u, sigma=s, v=vh, q=q, q_needed=(da != db))


@dataclass
class SchmidtForm:
    """Schmidt decomposition of a bipartite pure state.

    The state equals sum_i sigma[i] |left_i> x |right_i> with the left
    vectors in the columns of ``left_basis`` and the right vectors in the
    columns of ``right_basis`` (stored unconjugated, so the reconstruction
    is ``left_basis @ diag(sigma) @ right_basis.T``).  ``rank`` counts the
    singular values above the relative rank tolerance.
    """

    sigma: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int

    def reconstruct_matrix(self) -> np.ndarray:
        return self.left_basis @ np.diag(self.sigma) @ self.right_basis.T


def schmidt(state: Tensor, bipartition) -> SchmidtForm:
    """Schmidt decomposition across the given pair of leg groups.

    Parameters
    ----------
    state : Tensor
        Pure-state tensor, one leg per subsystem.
    bipartition : (sequence, sequence)
        Two ordered, nonempty leg groups covering every leg once.

    Returns
    -------
    SchmidtForm
        Coefficients sorted non-increasing; sigma**2 are the eigenvalues of
        either reduced density operator.
    """
    ga, gb = bipartition
    if len(ga) == 0 or len(gb) == 0:
        raise ShapeError("both bipartition groups must be nonempty")
    mat = group_legs(state, (list(ga), list(gb))).data
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtForm(sigma=s, left_basis=u, right_basis=vh.T, rank=_count_rank(s))


def _count_rank(s: np.ndarray) -> int:
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def classify_topology(sigma, tol: float = 1e-10) -> str:
    """Entanglement topology of a normalized Schmidt vector.

    Exactly one coefficient above ``tol`` means the state factorizes
    (``separable``); all nonzero coefficients equal within ``tol`` means
    ``maximally_entangled``; anything else is ``generic``.
    """
    sigma = np.asarray(sigma, dtype=float)
    total = float(np.sum(sigma**2))
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"Schmidt vector not normalized: sum sigma^2 = {total!r}")
    nonzero = sigma[sigma > tol]
    if len(nonzero) == 1:
        return SEPARABLE
    if np.max(nonzero) - np.min(nonzero) <= tol:
        return MAXIMALLY_ENTANGLED
    return GENERIC


@dataclass
class MPSChain:
    """Left-canonical matrix product chain.

    sites: one 3-leg tensor per subsystem, legs (left bond, physical,
    right bond); boundary bonds have dimension 1.  bond_sigmas: per
    internal bond, the kept singular values across that cut.
    """

    sites: list[Tensor]
    bond_sigmas: list[np.ndarray]

    def __post_init__(self):
        if not self.sites:
            raise ShapeError("chain needs at least one site")
        for i, t in enumerate(self.sites):
            if t.nlegs != 3:
                raise ShapeError(f"site {i} has {t.nlegs} legs, want 3")
        if self.sites[0].dims[0] != 1 or self.sites[-1].dims[2] != 1:
            raise ShapeError("boundary bonds must have dimension 1")
        for i in range(len(self.sites) - 1):
            if self.sites[i].dims[2] != self.sites[i + 1].dims[0]:
                raise ShapeError(f"bond mismatch between sites {i} and {i + 1}")
        if len(self.bond_sigmas) != len(self.sites) - 1:
            raise ShapeError("need one bond vector per internal bond")

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.dims[1] for t in self.sites)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(t.dims[2] for t in self.sites[:-1])


def mps_factor(
    state: Tensor, max_chi: int | None = None, sigma_cutoff: float | None = None
) -> MPSChain:
    """Factor a state into a left-canonical matrix product chain.

    Sweeps left to right, cutting one physical leg at a time.  Each cut M
    (m rows, n columns) first takes only its singular values: from the
    m x m triangle R of ``qr(M^dagger, mode="r")`` when it is wide
    (m < n), from M itself when square, and from the triangle of its
    reduced QR, M = Q R, when tall.  This pass is skipped when ``max_chi``
    is below min(m, n).  If the policy keeps all min(m, n) values, no
    singular vector is built: a wide or square cut's site is the identity
    and M is the remainder, and a tall cut's site is Q and R is the
    remainder.  Any isometry onto the cut's range gives the same state and
    the same bond spectra.  A cut that drops values takes the SVD: a wide
    one through R (the SVD of R^dagger gives the site u and the bond
    vector s, and the remainder is u^dagger M), a square or tall one as the
    plain thin SVD, so a truncation keeps the largest singular values.
    With no truncation policy the chain reconstructs the state exactly (up
    to float noise).  Every site but the last is a left isometry; it is
    the cut's left singular basis only where values were dropped.

    Parameters
    ----------
    state : Tensor
        State with at least two legs.
    max_chi : int, optional
        Keep at most this many singular values per bond.
    sigma_cutoff : float, optional
        Drop singular values <= this absolute cutoff (at least one is
        always kept).

    Raises
    ------
    ValueError
        If the state has a NaN or infinite component, or the policy is
        invalid.
    """
    if state.nlegs < 2:
        raise ShapeError("need at least two legs to factor")
    _check_policy(max_chi, sigma_cutoff)
    if not np.all(np.isfinite(state.data)):
        raise ValueError("input state has non-finite components")
    dims = state.dims
    sites, bond_sigmas = [], []
    work, r = state.data, 1
    for i in range(len(dims) - 1):
        site, s, work = _cut(work.reshape(r * dims[i], -1), max_chi, sigma_cutoff)
        r = site.shape[1]
        sites.append(Tensor._wrap(site.reshape(-1, dims[i], r)))
        bond_sigmas.append(s)
    sites.append(Tensor._wrap(work.reshape(r, dims[-1], 1)))
    return MPSChain(sites=sites, bond_sigmas=bond_sigmas)


def _cut(mat, max_chi, sigma_cutoff):
    """One cut of the sweep: (site, kept singular values, remainder).

    The site is a left isometry, and site @ remainder is mat, or its best
    approximation of the kept rank.  Singular vectors are built only when
    the policy drops a value; a cut that keeps them all is free to take
    any isometry onto its range.
    """
    m, n = mat.shape
    if m < n:  # mat = R^dagger Q^dagger, and R^dagger has mat's u and s
        tri = np.linalg.qr(mat.conj().T, mode="r")
    if max_chi is None or max_chi >= min(m, n):
        if m > n:
            q, tri = np.linalg.qr(mat)
        s = np.linalg.svd(mat if m == n else tri, compute_uv=False)
        if _keep(s, max_chi, sigma_cutoff) == len(s):
            return (np.eye(m, dtype=mat.dtype), s, mat) if m <= n else (q, s, tri)
    if m < n:
        u, s, _ = np.linalg.svd(tri.conj().T)
    else:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    chi = _keep(s, max_chi, sigma_cutoff)
    site = u[:, :chi]
    return site, s[:chi].copy(), site.conj().T @ mat if m < n else s[:chi, None] * vh[:chi]


def _check_policy(max_chi, sigma_cutoff):
    if max_chi is not None and max_chi < 1:
        raise ValueError(f"max_chi must be >= 1, got {max_chi}")
    if sigma_cutoff is not None and not sigma_cutoff >= 0:  # NaN too
        raise ValueError(f"sigma_cutoff must be >= 0, got {sigma_cutoff}")


def _keep(s, max_chi, sigma_cutoff):
    """How many of the singular values s the policy keeps: at least one."""
    chi = max(_count_rank(s), 1)
    if sigma_cutoff is not None:
        chi = min(chi, max(int(np.count_nonzero(s > sigma_cutoff)), 1))
    if max_chi is not None:
        chi = min(chi, max_chi)
    return chi


def mps_reconstruct(chain: MPSChain) -> Tensor:
    """Contract the chain back into a full state tensor.

    One matrix chain: the accumulator stays (physical indices so far, bond),
    and each site joins as its (left bond, physical x right bond) matrix.
    """
    first = chain.sites[0]
    acc = first.data.reshape(-1, first.dims[2])  # (d0, r); the left bond is 1
    for site in chain.sites[1:]:
        l, d, r = site.dims
        acc = (acc @ site.data.reshape(l, d * r)).reshape(-1, r)
    return Tensor._wrap(acc.reshape(chain.phys_dims))


def verify_isometry(site: Tensor, direction: str = "left") -> float:
    """Max deviation of a site tensor from the isometry condition.

    ``left`` checks I^dagger I = identity with (left bond, physical) fused
    as the domain; ``right`` checks the mirror condition.
    """
    if site.nlegs != 3:
        raise ShapeError(f"site tensor must have 3 legs, got {site.nlegs}")
    l, d, r = site.dims
    if direction == "left":
        m = site.data.reshape(l * d, r)
        dev = m.conj().T @ m - np.eye(r)
    elif direction == "right":
        m = site.data.reshape(l, d * r)
        dev = m @ m.conj().T - np.eye(l)
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    return float(np.max(np.abs(dev)))


def fidelity(a: Tensor, b: Tensor) -> float:
    """Normalized squared overlap |<a|b>|^2 / (|a|^2 |b|^2)."""
    va, vb = a.data.reshape(-1), b.data.reshape(-1)
    if va.size != vb.size:
        raise ShapeError(f"states of size {va.size} and {vb.size}")
    na, nb = np.vdot(va, va).real, np.vdot(vb, vb).real
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for the zero state")
    return float(abs(np.vdot(va, vb)) ** 2 / (na * nb))
