"""Polynomial local-unitary invariants labeled by permutation tuples.

A degree-k invariant of an n-subsystem operator rho is the trace of k
copies of rho wired together by one permutation of the copies per
subsystem.  Tuples related by relabeling the identical copies (conjugating
every permutation by the same element) give the same number, so classes
are enumerated up to simultaneous conjugation.

The value is computed one way in production: :func:`evaluate_fast`,
:func:`evaluate_many` and :func:`verify_classes` plan each call once.
They build each label's fused-leg network, from an operator or, for a
pure state, from copies of psi and conj(psi) (verify rotates psi itself;
rho is never formed), and compile every distinct network of the call
once into a program of traces and pairwise matrix products, planned
greedily over the network's integer labels.  Labels that differ only in
which subsystems they fuse share a program.
Replaying a program is transposes, reshapes and ``@``; no ``np.einsum``
call remains on the value path.
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
# Most index labels a network may carry.  The planner itself has no limit;
# the cap bounds the degree of every label the CLI builds, so an order such
# as ``entropy --alpha 1e7`` is refused instead of building 10^7 copies.
MAX_LABELS = 52


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
        classes.append(CanonicalClass(rep, size))
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
    """A pure StateData as psi, anything else as its operator; one leg per dim."""
    if isinstance(state, StateData) and state.kind == "pure":
        psi = state.tensor.data
        if psi.size != prod(dims):
            raise ShapeError(f"state of size {psi.size} does not match dims {dims}")
        return _Operand(True, psi.reshape(dims))
    return _Operand(False, as_operator(state, dims).reshape(dims + dims))


class _Trace(NamedTuple):
    """Sum one term over the labels it carries twice."""

    slot: int
    axes: tuple[int, ...]  # kept axes, then each twice-carried label's first and second axis
    shape: tuple[int, int, int]  # (kept, traced, traced) elements
    out: tuple[int, ...]


class _Step(NamedTuple):
    """Slot ``a`` becomes a @ b over the labels they share; slot ``b`` is freed."""

    a: int
    b: int
    axes_a: tuple[int, ...]  # a's kept axes, then its shared ones
    shape_a: tuple[int, int]  # (m, k)
    axes_b: tuple[int, ...]  # b's shared axes in a's order, then its kept ones
    shape_b: tuple[int, int]  # (k, n)
    out: tuple[int, ...]  # a's kept dims, then b's


class _Program(NamedTuple):
    """A network compiled into traces and pairwise matrix products.

    Slot i starts as ``fused[sources[i]]``.  After the traces and steps,
    the slots in ``result`` hold one scalar per connected part of the
    network, and the value is their product.  ``flops`` counts two per
    multiply-add of every product and one per traced entry; ``largest`` is
    the element count of the biggest intermediate.
    """

    sources: tuple[int, ...]
    traces: tuple[_Trace, ...]
    steps: tuple[_Step, ...]
    result: tuple[int, ...]
    flops: int
    largest: int

    def contract(self, fused: tuple[np.ndarray, ...]) -> complex:
        ops = [fused[s] for s in self.sources]
        for slot, axes, shape, out in self.traces:
            traced = ops[slot].transpose(axes).reshape(shape).trace(axis1=1, axis2=2)
            ops[slot] = traced.reshape(out)
        for a, b, axes_a, shape_a, axes_b, shape_b, out in self.steps:
            mat_a = ops[a].transpose(axes_a).reshape(shape_a)
            mat_b = ops[b].transpose(axes_b).reshape(shape_b)
            ops[a] = (mat_a @ mat_b).reshape(out)
            ops[b] = None
        return prod(complex(ops[s]) for s in self.result)


def _compile(
    terms: Sequence[Sequence[int]], size: Sequence[int], sources: tuple[int, ...]
) -> _Program:
    """Plan the contraction of ``terms``, each label of which occurs exactly twice.

    Labels that one term carries twice are traced out first.  Then, greedily,
    of the pairs of terms that share a label, the one whose product grows the
    network least (output minus input elements, then fewest flops) is
    contracted.  There is no memory cap, so no pair is ever refused.  Only
    connected pairs are scanned, and each connected part ends as a scalar
    that :meth:`_Program.contract` multiplies in.  ``size[x]`` is the
    dimension of label x.
    """
    dim = size.__getitem__
    labels, numel, traces, steps, flops, largest = [], [], [], [], 0, 0
    for slot, term in enumerate(terms):
        if len(set(term)) < len(term):
            first: dict[int, int] = {}  # label -> axis, for the labels seen once so far
            twice = []  # (first axis, second axis) of each label carried twice
            for i, x in enumerate(term):
                if x in first:
                    twice.append((first.pop(x), i))
                else:
                    first[x] = i
            out = tuple(map(dim, first))
            outer, inner = prod(out), prod(size[term[i]] for i, _ in twice)
            axes = (*first.values(), *(i for i, _ in twice), *(j for _, j in twice))
            traces.append(_Trace(slot, axes, (outer, inner, inner), out))
            flops, largest, term = flops + outer * inner, max(largest, outer), list(first)
        labels.append(list(term))
        numel.append(prod(map(dim, term)))
    owner: dict[int, tuple[int, int]] = {}  # label -> the two slots that carry it, ascending
    for slot, term in enumerate(labels):
        for x in term:
            owner[x] = owner.get(x, ()) + (slot,)
    while owner:
        shared_size: dict[tuple[int, int], int] = {}  # connected pair -> elements they share
        for x, pair in owner.items():
            shared_size[pair] = shared_size.get(pair, 1) * size[x]
        best = None
        for (a, b), k in shared_size.items():
            n = numel[b] // k
            key = (numel[a] // k * n - numel[a] - numel[b], numel[a] * n)
            if best is None or key < best[0]:
                best = (key, a, b, k)
        _, a, b, k = best
        la, lb = labels[a], labels[b]
        shared = [x for x in la if x in lb]
        kept_a = [x for x in la if x not in lb]
        kept_b = [x for x in lb if x not in la]
        m, n = numel[a] // k, numel[b] // k
        steps.append(_Step(
            a, b,
            tuple(map(la.index, kept_a + shared)), (m, k),
            tuple(map(lb.index, shared + kept_b)), (k, n),
            tuple(map(dim, kept_a + kept_b)),
        ))
        flops, largest = flops + 2 * m * k * n, max(largest, m * n)
        labels[a], labels[b], numel[a] = kept_a + kept_b, None, m * n
        for x in shared:
            del owner[x]
        for x in kept_b:  # its other holder c now meets slot a instead of b
            c = sum(owner[x]) - b
            owner[x] = (a, c) if a < c else (c, a)
    result = tuple(slot for slot, term in enumerate(labels) if term is not None)
    return _Program(sources, tuple(traces), tuple(steps), result, flops, largest)


@dataclass(frozen=True)
class _Network:
    """The fused-leg network of one label on one set of subsystem dims.

    Subsystems with the same permutation are wired identically, so their
    legs are fused into one: the subsystems are put in group order ``axes``
    and the legs reshaped to ``fused``, once for the rows and once more for
    the columns of an operator.  Over the m fused groups, copy c carries
    row labels sigma_j(c) * m + j and column labels c * m + j;
    ``subscripts`` holds one rows + cols tuple per copy.  For a pure state,
    rho = |psi><psi| splits copy c into psi with its row labels and
    conj(psi) with its column labels: 2k operands the size of psi.
    """

    axes: tuple[int, ...]
    fused: tuple[int, ...]
    subscripts: tuple[tuple[int, ...], ...]

    def fuse(self, src: _Operand) -> tuple[np.ndarray, ...]:
        """``src`` with its legs moved into group order and fused.

        Returns the fused operator alone, or psi and conj(psi) fused.
        """
        if src.pure:
            ket = src.array.transpose(self.axes).reshape(self.fused)
            return ket, ket.conj()
        n = len(self.axes)
        axes = self.axes + tuple(n + s for s in self.axes)
        return (src.array.transpose(axes).reshape(self.fused + self.fused),)

    def compile(self, pure: bool) -> _Program:
        """The program that contracts what :meth:`fuse` returns for this route."""
        m = len(self.fused)
        size = [self.fused[x % m] for x in range(len(self.subscripts) * m)]
        if pure:  # psi takes each copy's rows, conj(psi) its columns
            terms = [half for sub in self.subscripts for half in (sub[:m], sub[m:])]
            return _compile(terms, size, (0, 1) * len(self.subscripts))
        return _compile(self.subscripts, size, (0,) * len(self.subscripts))


def _network(t: PermTuple, dims: tuple[int, ...]) -> _Network:
    n = len(dims)
    if n != t.n:
        raise ShapeError(f"{n} dims for an {t.n}-subsystem tuple")
    groups: dict[tuple[int, ...], list[int]] = {}
    for s, sigma in enumerate(t.sigmas):
        groups.setdefault(sigma, []).append(s)
    m = len(groups)
    if m * t.k > MAX_LABELS:
        raise ShapeError(
            f"label {t.label()} needs {m * t.k} contraction indices "
            f"({m} distinct permutations x degree {t.k}); the limit is {MAX_LABELS}"
        )
    axes = tuple(s for members in groups.values() for s in members)
    fused = tuple(prod(dims[s] for s in members) for members in groups.values())
    subscripts = tuple(
        tuple(sigma[c] * m + j for j, sigma in enumerate(groups)) + tuple(range(c * m, c * m + m))
        for c in range(t.k)
    )
    return _Network(axes, fused, subscripts)


@dataclass
class ContractionCost:
    """Summed FLOPs and largest intermediate (elements) of compiled programs."""

    flops: int = 0
    largest: int = 0

    def add(self, program: _Program) -> None:
        self.flops += program.flops
        self.largest = max(self.largest, program.largest)


def _plan(tuples, dims, pure: bool, cost: ContractionCost | None) -> dict:
    """Each grouping ``(axes, fused)``: its network and ``(position, program)`` per tuple.

    A program depends only on the fused dims and the subscripts, so tuples
    whose networks agree on both share one compile.  A ``cost`` passed in
    is charged once per tuple.
    """
    plan: dict[tuple, tuple[_Network, list]] = {}
    programs: dict[tuple, _Program] = {}
    for i, t in enumerate(tuples):
        net = _network(t, dims)
        key = net.fused, net.subscripts
        if key not in programs:
            programs[key] = net.compile(pure)
        if cost is not None:
            cost.add(programs[key])
        plan.setdefault((net.axes, net.fused), (net, []))[1].append((i, programs[key]))
    return plan


def _contract_all(plan: dict, src: _Operand, count: int) -> list[complex]:
    """The ``count`` planned values on ``src``, with one fused operand alive at a time."""
    values = [0j] * count
    for net, members in plan.values():
        fused = net.fuse(src)
        for i, program in members:
            values[i] = program.contract(fused)
        del fused  # before the next grouping is fused
    return values


def evaluate_many(
    tuples: Sequence[PermTuple], state, dims: Sequence[int], cost: ContractionCost | None = None
) -> list[complex]:
    """:func:`evaluate_fast` of every tuple, in order.

    Tuples whose networks match share one compiled program.  Tuples that
    group the subsystems alike share one fused operand, so the reduced
    powers of one cut (:func:`reduced_power_label` at several orders)
    transpose the operator once.  A ``cost`` passed in is charged with
    every tuple's program.
    """
    dims = tuple(int(d) for d in dims)
    src = _operand(state, dims)
    return _contract_all(_plan(tuples, dims, src.pure, cost), src, len(tuples))


def evaluate_fast(t: PermTuple, state, dims: Sequence[int]) -> complex:
    """Invariant value as a compiled sequence of pairwise contractions.

    Fuses the legs of subsystems that share a permutation, then contracts
    the k copies pair by pair as matrix products in a greedily planned
    order; never materializes the k-fold tensor power.  ``state`` is an
    operator, or a StateData: a pure one is contracted as k copies of psi
    and k of conj(psi), so rho is never formed.  Raises ShapeError when
    the network needs more than ``MAX_LABELS`` (52) index labels.
    """
    return evaluate_many([t], state, dims)[0]


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
    values_fn: Callable, state, dims: Sequence[int], trials: int, seed
) -> list[float]:
    """Per-entry max relative change of ``values_fn`` under local unitaries.

    Trial i draws its unitaries from child i of ``SeedSequence(seed)`` and
    rotates ``state`` once; every value is taken on that one rotated state.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    bases = [complex(v) for v in values_fn(state)]
    scales = [max(abs(b), 1e-300) for b in bases]
    worst = [0.0] * len(bases)
    for child in np.random.SeedSequence(seed).spawn(trials):
        us = random_local_unitary(dims, seed=child)
        values = values_fn(apply_local_unitary(state, dims, us))
        for i, (value, base, scale) in enumerate(zip(values, bases, scales)):
            worst[i] = max(worst[i], abs(complex(value) - base) / scale)
    return worst


def max_unitary_deviation(
    value_fn: Callable[[Tensor], complex], rho, dims: Sequence[int], trials: int = 20, seed=0
) -> float:
    """Max relative change of ``value_fn`` (given operator Tensors) under local unitaries."""
    rho_t = Tensor._wrap(as_operator(rho, dims))
    return _max_deviations(lambda r: [value_fn(r)], rho_t, dims, trials, seed)[0]


def verify_classes(
    tuples: Sequence[PermTuple],
    state,
    dims: Sequence[int],
    trials: int = 20,
    seed=0,
    cost: ContractionCost | None = None,
) -> list[float]:
    """Empirical invariance check: each tuple's max relative deviation over Haar trials.

    ``state`` takes its :func:`evaluate_many` route: a pure StateData stays
    psi, so rho is never formed.  Each trial draws its local unitaries and
    rotates that state once for all the tuples.  The call is planned once
    and replayed on every rotated state: one program per distinct network
    and one fused operand per grouping.  A ``cost`` passed in is charged
    with every tuple's program once.
    """
    dims = tuple(int(d) for d in dims)
    plan = _plan(tuples, dims, _operand(state, dims).pure, cost)
    return _max_deviations(
        lambda s: _contract_all(plan, _operand(s, dims), len(tuples)), state, dims, trials, seed
    )

