"""Polynomial local-unitary invariants labeled by permutation tuples.

A degree-k invariant of an n-subsystem operator rho is the trace of k
copies of rho wired together by one permutation of the copies per
subsystem.  Tuples related by relabeling the identical copies (conjugating
every permutation by the same element) give the same number, so classes
are enumerated up to simultaneous conjugation.

The value is computed one way in production: :func:`evaluate_fast`,
:func:`evaluate_many` and :func:`verify_classes` contract the whole
network in one ``np.einsum``, built by the same fused-leg network builder
from an operator or, for a pure state, from copies of psi and conj(psi).
:func:`evaluate` builds the k-fold tensor power and the permutation matrix
explicitly and is kept only as the reference that tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, log, prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import perms
from .decompose import schmidt
from .tensor import Tensor, ShapeError
from .states import StateData, apply_local_unitary, as_operator, random_local_unitary

# Most (k!)^n tuples enumerate_invariants visits.  Time grows with the class
# count; on one core, (3,5) (1.7e6 tuples, 14721 classes) and (4,4) (3.3e5,
# 14491) take 0.6 s and 11 MB each, (5,4) (8.0e6, 336465) 16 s and 274 MB.
MAX_TUPLES = 10**7
EINSUM_LABELS = 52  # np.einsum names its indices with the letters a-z, A-Z


@dataclass(frozen=True)
class PermTuple:
    """Label of one invariant: degree k plus one permutation per subsystem."""

    k: int
    sigmas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"degree must be >= 1, got {self.k}")
        if not self.sigmas:
            raise ValueError("need at least one subsystem permutation")
        norm = tuple(tuple(int(x) for x in s) for s in self.sigmas)
        object.__setattr__(self, "sigmas", norm)
        for s in norm:
            if sorted(s) != list(range(self.k)):
                raise ValueError(f"{s} is not a permutation of 0..{self.k - 1}")

    @property
    def n(self) -> int:
        return len(self.sigmas)

    def label(self) -> str:
        return format_label(self)


def parse_label(text: str) -> PermTuple:
    """Parse ``k; cycles | cycles | ...`` into a PermTuple.

    Cycle terms use 1-based parenthesized cycle notation with ``e`` for the
    identity; whitespace is insignificant.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"label {text!r} is missing the '; ' after the degree")
    try:
        k = int(head.strip())
    except ValueError:
        raise ValueError(f"bad degree {head.strip()!r} in label {text!r}") from None
    terms = tail.split("|")
    if not terms or not tail.strip():
        raise ValueError(f"label {text!r} has no permutation terms")
    sigmas = tuple(perms.parse_perm(term, k) for term in terms)
    return PermTuple(k, sigmas)


def format_label(t: PermTuple) -> str:
    return f"{t.k}; " + " | ".join(perms.format_perm(s) for s in t.sigmas)


def conjugate_tuple(t: PermTuple, tau) -> PermTuple:
    """Relabel the k copies through tau in every subsystem permutation."""
    index, conj, _ = perms.conjugation_table(t.k)
    row, sk = conj[index[tuple(tau)]], perms.all_perms(t.k)
    return PermTuple(t.k, tuple(sk[row[index[s]]] for s in t.sigmas))


def canonicalize(t: PermTuple) -> PermTuple:
    """Lexicographically minimal tuple over all simultaneous conjugations.

    Two tuples canonicalize equal iff they label the same invariant diagram
    (up to reordering the identical copies of rho).
    """
    index, conj, _ = perms.conjugation_table(t.k)
    best = min(conj[:, [index[s] for s in t.sigmas]].tolist())
    sk = perms.all_perms(t.k)
    return PermTuple(t.k, tuple(sk[i] for i in best))


def connected_components(t: PermTuple) -> tuple[tuple[int, ...], ...]:
    """Partition of the k copies into the diagram's connected components."""
    parent = list(range(t.k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in t.sigmas:
        for j in range(t.k):
            a, b = find(j), find(s[j])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for j in range(t.k):
        groups.setdefault(find(j), []).append(j)
    return tuple(tuple(g) for g in sorted(groups.values()))


def component_subtuples(t: PermTuple) -> list[PermTuple]:
    """Restrict the tuple to each connected component of copies."""
    out = []
    for comp in connected_components(t):
        pos = {c: i for i, c in enumerate(comp)}
        sigmas = tuple(
            tuple(pos[s[c]] for c in comp) for s in t.sigmas
        )
        out.append(PermTuple(len(comp), sigmas))
    return out


def is_real_guaranteed(t: PermTuple) -> bool:
    """True iff some common relabeling inverts every permutation at once.

    Such tuples coincide with their complex conjugate label, so the
    invariant is real on every input.
    """
    index, conj, inv = perms.conjugation_table(t.k)
    idx = [index[s] for s in t.sigmas]
    return bool((conj[:, idx] == inv[idx]).all(axis=1).any())


@dataclass(frozen=True)
class CanonicalClass:
    """One simultaneous-conjugation orbit of permutation tuples."""

    representative: PermTuple
    orbit_size: int
    components: tuple[tuple[int, ...], ...]

    def label(self) -> str:
        return self.representative.label()


def enumerate_invariants(n: int, k: int) -> list[CanonicalClass]:
    """All degree-k invariant classes of an n-subsystem state.

    Returns exactly one representative per simultaneous-conjugation orbit
    of n-tuples over S_k, sorted by the lexicographic tuple encoding (the
    representative is the orbit minimum).
    """
    if n < 1:
        raise ValueError(f"need at least one subsystem, got n={n}")
    _, conj, _ = perms.conjugation_table(k)  # refuses k outside 1..MAX_DEGREE
    if n * log(factorial(k)) > log(MAX_TUPLES):  # no big integer for huge n
        raise ValueError(f"(k!)^n = {factorial(k)}^{n} tuples, more than {MAX_TUPLES}")
    sk = perms.all_perms(k)
    radix = len(sk)
    shape = (radix,) * n
    seen = bytearray(radix**n)
    marks = np.frombuffer(seen, dtype=np.uint8)
    classes = []
    code = seen.find(0)
    while code >= 0:  # an unseen code is its orbit's minimum
        digits = np.unravel_index(code, shape)
        orbit = np.ravel_multi_index(conj[:, digits].T, shape)
        marks[orbit] = 1
        rep = PermTuple(k, tuple(sk[int(d)] for d in digits))
        size = radix // int(np.count_nonzero(orbit == code))  # orbit-stabilizer
        classes.append(CanonicalClass(rep, size, connected_components(rep)))
        code = seen.find(0, code)
    return classes


def permutation_operator(t: PermTuple, dims: Sequence[int]) -> np.ndarray:
    """Matrix permuting, per subsystem, the k copies of that subsystem.

    Acts on the k-fold product space ordered copy-major; copy c of
    subsystem s is sent to copy sigma_s(c).
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if n != t.n:
        raise ShapeError(f"{n} dims for an {t.n}-subsystem tuple")
    k = t.k
    full_dims = dims * k
    dk = prod(dims) ** k
    inv = [perms.inverse(s) for s in t.sigmas]
    digits = np.array(np.unravel_index(np.arange(dk), full_dims))
    src = [inv[s][c] * n + s for c in range(k) for s in range(n)]
    rows = np.ravel_multi_index(tuple(digits[src]), full_dims)
    op = np.zeros((dk, dk), dtype=np.complex128)
    op[rows, np.arange(dk)] = 1.0
    return op


def evaluate(t: PermTuple, rho, dims: Sequence[int]) -> complex:
    """Invariant value by explicit construction.

    Materializes the k-fold tensor power of rho and the permutation matrix
    and takes the trace of their product.  Exponential in k; intended as
    the reference route backing :func:`evaluate_fast`.
    """
    op = permutation_operator(t, dims)
    mat = as_operator(rho, dims)
    power = mat
    for _ in range(t.k - 1):
        power = np.kron(power, mat)
    return complex(np.einsum("ij,ji->", op, power))


class _Operand(NamedTuple):
    """What a network's copies are cut from: psi (``pure``) or an operator."""

    pure: bool
    array: np.ndarray


def _operand(state, dims: tuple[int, ...]) -> _Operand:
    """A pure StateData as psi itself; anything else as its square matrix."""
    if isinstance(state, StateData):
        if state.kind == "pure":
            psi = state.tensor.data
            if psi.size != prod(dims):
                raise ShapeError(f"state of size {psi.size} does not match dims {dims}")
            return _Operand(True, psi)
        state = state.tensor
    return _Operand(False, as_operator(state, dims))


@dataclass(frozen=True)
class _Network:
    """The fused-leg einsum of one label on one set of subsystem dims.

    Subsystems with the same permutation are wired identically, so their
    legs are fused into one: the operator's ``dims + dims`` legs are
    transposed by ``axes`` and reshaped to ``fused``.  Over the m fused
    groups, copy c carries row labels sigma_j(c) * m + j and column labels
    c * m + j; ``subscripts`` holds one rows + cols list per copy.  For a
    pure state, rho = |psi><psi| splits copy c into psi with its row labels
    and conj(psi) with its column labels: 2k operands the size of psi.
    """

    legs: tuple[int, ...]
    axes: tuple[int, ...]
    fused: tuple[int, ...]
    subscripts: tuple[list[int], ...]

    def fuse(self, src: _Operand) -> tuple[np.ndarray, ...]:
        """``src`` with its legs moved into group order and fused.

        Returns the fused operator alone, or psi and conj(psi) fused.
        """
        if src.pure:  # psi has the row legs only
            n, m = len(self.legs) // 2, len(self.fused) // 2
            ket = src.array.reshape(self.legs[:n]).transpose(self.axes[:n]).reshape(self.fused[:m])
            return ket, ket.conj()
        return (src.array.reshape(self.legs).transpose(self.axes).reshape(self.fused),)

    def operands(self, fused: tuple[np.ndarray, ...]) -> list:
        """Arguments of ``np.einsum`` for what :meth:`fuse` returned."""
        if len(fused) == 2:  # psi takes each copy's rows, conj(psi) its columns
            ket, bra = fused
            m = len(self.fused) // 2
            return [x for sub in self.subscripts for x in (ket, sub[:m], bra, sub[m:])] + [[]]
        return [x for sub in self.subscripts for x in (fused[0], sub)] + [[]]

    def contract(self, fused: tuple[np.ndarray, ...], optimize="greedy") -> complex:
        return complex(np.einsum(*self.operands(fused), optimize=optimize))


def _network(t: PermTuple, dims: tuple[int, ...]) -> _Network:
    n = len(dims)
    if n != t.n:
        raise ShapeError(f"{n} dims for an {t.n}-subsystem tuple")
    groups: dict[tuple[int, ...], list[int]] = {}
    for s, sigma in enumerate(t.sigmas):
        groups.setdefault(sigma, []).append(s)
    m = len(groups)
    if m * t.k > EINSUM_LABELS:
        raise ShapeError(
            f"label {t.label()} needs {m * t.k} contraction indices "
            f"({m} distinct permutations x degree {t.k}); einsum has {EINSUM_LABELS}"
        )
    order = [s for members in groups.values() for s in members]
    fused = tuple(prod(dims[s] for s in members) for members in groups.values())
    subscripts = tuple(
        [sigma[c] * m + j for j, sigma in enumerate(groups)] + [c * m + j for j in range(m)]
        for c in range(t.k)
    )
    axes = tuple(order + [n + s for s in order])
    return _Network(dims + dims, axes, fused + fused, subscripts)


def evaluate_many(tuples: Sequence[PermTuple], state, dims: Sequence[int]) -> list[complex]:
    """:func:`evaluate_fast` of every tuple, in order.

    Consecutive tuples that group the subsystems alike share one fused
    operand, so the reduced powers of one cut (:func:`reduced_power_label`
    at several orders) transpose the operator once.
    """
    dims = tuple(int(d) for d in dims)
    nets = [_network(t, dims) for t in tuples]
    src = _operand(state, dims)
    values, key, fused = [], None, None
    for net in nets:
        if (net.axes, net.fused) != key:
            key, fused = (net.axes, net.fused), net.fuse(src)
        values.append(net.contract(fused))
    return values


def evaluate_fast(t: PermTuple, state, dims: Sequence[int]) -> complex:
    """Invariant value as one planned contraction of the k copies of rho.

    Fuses the legs of subsystems that share a permutation and sums the k
    copies in a single ``np.einsum``; never materializes the k-fold tensor
    power.  ``state`` is an operator, or a StateData: a pure one is
    contracted as k copies of psi and k of conj(psi), so rho is never
    formed.  Raises ShapeError when the network needs more than the 52
    index labels einsum has.
    """
    dims = tuple(int(d) for d in dims)
    net = _network(t, dims)
    return net.contract(net.fuse(_operand(state, dims)))


def reduced_power_label(n: int, keep: Sequence[int], k: int) -> PermTuple:
    """Label of tr(rho_keep^k): the k-cycle on ``keep``, ``e`` elsewhere.

    :func:`evaluate_fast` fuses the kept legs itself, so the operator needs
    no regrouping into (kept, rest) blocks first.
    """
    cycle, e = tuple(range(1, k)) + (0,), tuple(range(k))
    return PermTuple(k, tuple(cycle if s in keep else e for s in range(n)))


def pure_jk(state: Tensor, bipartition, k: int) -> float:
    """Power sum of squared Schmidt coefficients across a bipartition.

    Equals the invariant :func:`reduced_power_label` gives for one side of
    the cut, evaluated on the pure state's density operator.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    form = schmidt(state, bipartition)
    return float(np.sum(form.sigma ** (2 * k)))


def _max_deviations(
    values_fn: Callable[[Tensor], list], rho, dims: Sequence[int], trials: int, seed
) -> list[float]:
    """Per-entry max relative change of ``values_fn`` under local unitaries.

    Trial i draws its unitaries from child i of ``SeedSequence(seed)`` and
    rotates rho once; every value is taken on that one rotated operator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    rho_t = Tensor._wrap(as_operator(rho, dims))
    bases = [complex(v) for v in values_fn(rho_t)]
    scales = [max(abs(b), 1e-300) for b in bases]
    worst = [0.0] * len(bases)
    for child in np.random.SeedSequence(seed).spawn(trials):
        us = random_local_unitary(dims, seed=child)
        values = values_fn(apply_local_unitary(rho_t, dims, us))
        for i, (value, base, scale) in enumerate(zip(values, bases, scales)):
            worst[i] = max(worst[i], abs(complex(value) - base) / scale)
    return worst


def max_unitary_deviation(
    value_fn: Callable[[Tensor], complex],
    rho,
    dims: Sequence[int],
    trials: int = 20,
    seed=0,
) -> float:
    """Max relative change of ``value_fn`` under random local unitaries."""
    return _max_deviations(lambda r: [value_fn(r)], rho, dims, trials, seed)[0]


def verify_classes(
    tuples: Sequence[PermTuple], rho, dims: Sequence[int], trials: int = 20, seed=0
) -> list[float]:
    """:func:`verify_invariance` of every tuple on one set of Haar trials.

    Each trial draws its local unitaries and rotates rho once for all the
    tuples.  Each tuple's network is built, and its einsum path planned,
    once on the unrotated operator and reused for every trial.
    """
    dims = tuple(int(d) for d in dims)
    nets = [_network(t, dims) for t in tuples]
    src = _operand(rho, dims)
    paths = [np.einsum_path(*net.operands(net.fuse(src)), optimize="greedy")[0] for net in nets]

    def values(r: Tensor) -> list[complex]:
        rotated = _operand(r, dims)
        return [net.contract(net.fuse(rotated), optimize=p) for net, p in zip(nets, paths)]

    return _max_deviations(values, rho, dims, trials, seed)


def verify_invariance(
    t: PermTuple, rho, dims: Sequence[int], trials: int = 20, seed=0
) -> float:
    """Empirical invariance check: max relative deviation over Haar trials."""
    return verify_classes([t], rho, dims, trials=trials, seed=seed)[0]
