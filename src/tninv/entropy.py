"""Entropies from spectra or invariant values, and spectrum recovery.

Natural logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import StateData, _checked_keep, as_operator, partial_trace
from .tensor import group_legs

CLAMP_TOL = 1e-12
SUM_TOL = 1e-9


@dataclass(eq=False)
class Spectrum:
    """Eigenvalue distribution of a density operator.

    Entries from ``-1e-12`` up to 0, -0.0 included, are clamped to +0.0;
    NaN, inf, anything more negative, or a total off 1 by more than
    ``1e-9``, is rejected.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("empty spectrum")
        if not np.isfinite(p).all():  # NaN fails both comparisons below
            raise ValueError(f"non-finite probabilities {p[~np.isfinite(p)].tolist()}")
        low = float(p.min())
        if low < -CLAMP_TOL:
            raise ValueError(f"negative probability {low:.3e} beyond clamp tolerance")
        p = _unsigned(p)
        total = float(p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probs = p

    @classmethod
    def from_density(cls, rho) -> "Spectrum":
        """Eigenvalues of rho's hermitian part.

        Those within ``CLAMP_TOL`` of zero are rounding noise of a
        rank-deficient operator and read as 0; kept, each would add
        p^alpha to the Renyi sums below order 1.
        """
        mat = as_operator(rho)
        p = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        return cls(np.where(np.abs(p) <= CLAMP_TOL, 0.0, p))

    @classmethod
    def from_state(cls, state: StateData, keep) -> "Spectrum":
        """Spectrum of a state's reduced operator on ``keep``.

        A density state is traced down with :func:`partial_trace`.  A pure
        state is bent across the cut into M (d_keep x d_rest), whose
        reduced operator is M M^H.  M^H M has the same nonzero eigenvalues,
        so the Gram matrix of the smaller side is diagonalised: keeping
        every subsystem costs a 1 x 1 matrix, and |psi><psi| is never
        formed.  The zeros this leaves out change no entropy.
        """
        keep = _checked_keep(keep, len(state.dims))
        if state.legs != 1:
            return cls.from_density(partial_trace(state.tensor, state.dims, keep))
        rest = [i for i in range(len(state.dims)) if i not in keep]
        bent = group_legs(state.tensor, (keep, rest)).data
        mat = bent.reshape(len(bent), -1)  # (D, 1) when every subsystem is kept
        gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
        return cls.from_density(gram)


def renyi(spectrum: Spectrum, alpha: float) -> float:
    """Renyi entropy of order alpha: ln(sum p^alpha) / (1 - alpha).

    The sum is taken over p / p_max, so it is at least 1 and cannot
    underflow at large alpha, where the entropy tends to -ln p_max.
    """
    if not 0 < alpha < np.inf:  # NaN too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if alpha == 1:
        raise ValueError("alpha = 1 is the von Neumann limit; use von_neumann()")
    p = spectrum.probs
    top = float(p.max())
    # alpha / (1 - alpha) rather than alpha * ln(p_max), which overflows near 1e308
    scaled = np.log(np.sum((p / top) ** alpha)) / (1.0 - alpha)
    return float(_unsigned(alpha / (1.0 - alpha) * np.log(top) + scaled))


def von_neumann(spectrum: Spectrum) -> float:
    """-sum p ln p with 0 ln 0 = 0; the alpha -> 1 limit of renyi()."""
    p = spectrum.probs[spectrum.probs > 0.0]
    return float(_unsigned(-np.sum(p * np.log(p))))


def renyi_from_invariant(value: float, alpha: int) -> float:
    """Renyi entropy from an invariant equal to tr(rho^alpha).

    For a bipartition of a pure state, the degree-alpha invariant with a
    full cycle on one side and identity on the other equals tr of the
    reduced operator to the alpha-th power, so this is the entanglement
    Renyi entropy of that cut.
    """
    if int(alpha) != alpha or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    value = float(np.real(value))
    if value <= 0.0:
        raise ValueError(f"invariant value {value!r} is not positive")
    return float(_unsigned(np.log(value) / (1.0 - alpha)))


def _unsigned(x):
    """x with every entry below 0 read as +0.0, -0.0 included; NaN passes."""
    return np.maximum(x, 0.0) + 0.0


@dataclass
class CharPolyRelation:
    """Trailing coefficients of the monic characteristic polynomial, and residuals.

    ``coeffs[i]`` multiplies lambda**(d - 1 - i) for d = ``len(coeffs)``;
    the leading 1 is implicit.
    """

    coeffs: np.ndarray
    residual: float        # entropy form, via exp(-(k-1) S_k)
    trace_residual: float  # trace form, via matrix powers


def char_poly_relation(rho) -> CharPolyRelation:
    """Characteristic-polynomial identity among the Renyi entropies.

    The traced Cayley-Hamilton identity
    ``sum_{m=0..d} c_{d-m} tr(rho^m) = 0``, with c_0 = 1 and tr(rho^0) = d,
    reads ``tr(rho^d) + c1 tr(rho^(d-1)) + ... + c_{d-1} tr(rho) + d c_d = 0``
    and becomes, after substituting tr(rho^m) = exp(-(m-1) S_m) for m >= 2,
    a relation among the entropies; the m = 0 and m = 1 terms fold into the
    constant c_{d-1} tr(rho) + d c_d.  Returns the coefficients and both
    residuals (expected ~1e-8 or below for a valid reduced density operator).
    """
    mat = as_operator(rho)
    n = len(mat)
    if not 0 < n <= 8:
        bound = "large; expected a reduced operator <= 8" if n else "small; expected one >= 1"
        raise ValueError(f"dimension {n} too {bound}")
    herm = (mat + mat.conj().T) / 2.0
    evals = np.linalg.eigvalsh(herm)
    poly = np.real(np.poly(evals))  # 1, c1..cd
    tr = float(np.trace(herm).real)
    spec = Spectrum(evals) if n > 1 else None  # S_m enters at m >= 2 only; 1 x 1 takes any trace
    total = t_total = n * poly[n] + poly[n - 1] * tr
    power = herm
    for m in range(2, n + 1):
        power = power @ herm
        total += poly[n - m] * np.exp(-(m - 1) * renyi(spec, m))
        t_total += poly[n - m] * float(np.trace(power).real)
    return CharPolyRelation(poly[1:], abs(float(total)), abs(float(t_total)))


def schmidt_from_jk(jvals) -> np.ndarray:
    """Recover Schmidt coefficients from the power sums J_k = sum sigma^(2k).

    ``jvals`` lists J_1..J_d.  d = 1 is sigma = sqrt(J_1), refused below
    ``-CLAMP_TOL``.  d = 2 uses the quadratic closed form
    sigma^2 = (J_1 +- sqrt(2 J_2 - J_1^2)) / 2; larger d converts power
    sums to elementary symmetric polynomials with Newton's identities and
    takes the roots of the resulting polynomial.  Output is sorted
    non-increasing; every sigma^2 below 0 reads as +0.0, so no entry is -0.0.

    The root finding loses accuracy fast as d grows: over 200 Haar-random
    d x d states the worst |sigma error| is about 1e-14 at d = 3, 5e-12 at
    d = 6 and 1e-9 at d = 8.
    """
    j = np.asarray(jvals, dtype=float).reshape(-1)
    d = len(j)
    if d < 1 or d > 8:
        raise ValueError(f"need 1..8 power sums, got {d}")
    if d == 1:
        if j[0] < -CLAMP_TOL:
            raise ValueError(f"J_1 = {float(j[0])!r} is negative")
        q = j
    elif d == 2:
        j1, j2 = map(float, j)
        if j2 > j1**2 + 1e-10 or j1**2 > 2 * j2 + 1e-10:
            raise ValueError(
                f"inconsistent power sums: need J2 <= J1^2 <= 2 J2, got {j1!r}, {j2!r}"
            )
        root = np.sqrt(_unsigned(2 * j2 - j1**2))  # below 0 only within the tolerance above
        q = np.array([(j1 - root) / 2.0, (j1 + root) / 2.0])  # ascending: the sort keeps the order
    else:
        e = [1.0]
        for m in range(1, d + 1):
            total = 0.0
            for i in range(1, m + 1):
                total += (-1.0) ** (i - 1) * e[m - i] * j[i - 1]
            e.append(total / m)
        poly = [(-1.0) ** m * e[m] for m in range(d + 1)]
        roots = np.roots(poly)
        if np.max(np.abs(roots.imag)) > 1e-8:
            raise ValueError(f"inconsistent power sums: complex sigma^2 {roots!r}")
        q = roots.real
        if np.min(q) < -1e-10:
            raise ValueError(f"inconsistent power sums: negative sigma^2 {q!r}")
    return np.sqrt(np.sort(_unsigned(q))[::-1])
