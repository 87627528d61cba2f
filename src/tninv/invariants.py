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
rho is never formed), and compile every distinct network into a program
of traces and pairwise matrix products, planned greedily over the
network's integer labels.  Labels that differ only in which subsystems
they fuse share a program.
Replaying a program is transposes, reshapes and ``@``; no ``np.einsum``
call remains on the value path.  Each self-trace acts on a fused operand,
and a fixed point shared by several copies or labels draws the same loop,
so one dict of partial traces lives beside each grouping's fused operand
and is dropped with it: each distinct trace is computed once per grouping
and reused by every program that needs it.  The same op on the same array
gives the same bits, so sharing changes no value.  On density input most
traces repeat (608 traces, 68 distinct, over the 251 degree-3 classes of
2 x 2 x 2 x 2); psi terms carry none.  Products are not shared: on density
input no two are alike.

Every program acts on a stack of states: axis 0 of each operand is a
batch, kept first by every transpose and led by -1 in every reshape, all
fixed when the program is compiled, and ``@`` broadcasts over it.
:func:`evaluate_many` replays a stack of one.  :func:`verify_classes`
is the one verify loop: it writes the unrotated state and its rotated
copies into one stack of ``max(1, BATCH_BYTES // size)`` rows, at most
trials + 1, and replays each program once per chunk of rows.  Size is
the bytes, as complex128, of the widest row any array of the chunk has:
psi or the operator, the largest intermediate of the call's programs, or
the values of all its labels.  ``BATCH_BYTES`` (128 KiB) thus bounds each
array a chunk makes: the stack, a grouping's fused copies, each
intermediate, each kept trace and the values.  A chunk holds a few of
them at once, so a verify call's memory is a small multiple of
``BATCH_BYTES``, or of one row when a row is larger, whatever the trial
count.  Measured with tracemalloc over the k <= 3 classes (k <= 2 past 6
qubits), 20 trials peak at 0.03-1.6 MB for psi of 2 to 10 qubits and of
8 x 8, and at 0.04-0.87 MB for operators of 2 to 5 qubits, 3 x 3 x 3,
4 x 4 x 4 and 8 x 8; the kept traces add at most 0.03 MB (0.54 to 0.56 MB
on 2 x 2 x 2 x 2).  Batching pays for small operands, where Python overhead per step
sets the cost.  For a 64 x 64 operator the transposed copies dominate,
and batch-first stacks of them cost more than separate ones, so the
budget keeps such operators at two rows.  Its oracle,
:func:`max_unitary_deviation`, takes one trial at a time and shares only
the draw and the rotation with it.
:func:`evaluate` builds the k-fold tensor power and the permutation matrix
explicitly and is kept only as the reference that tests compare against.

A label's grouping and program depend only on the label, the dims and
the route, and a program only on the fused dims, the subscripts and the
route, never on the state.  Both are memoised per process on exactly
those keys, at most ``MEMO_ENTRIES`` (4096) of each; a label entry holds
its shared program, so a warm call makes one lookup per label.  Only a
call's first ``MEMO_ENTRIES`` labels go through the label memo, so a
repeated call over more labels still hits that many.  Measured
with tracemalloc, a label entry takes 0.4-1.3 KB (5 MB for a full memo);
a program entry takes 1.4-4.5 KB up to degree 6 (18 MB) and up to 24 KB
if it uses all ``MAX_LABELS`` indices (97 MB).  :func:`enumerate_invariants` keeps the last
``MEMO_ENUMERATIONS`` (8) enumerations that have at most ``MEMO_CLASSES``
(4096) classes.  A class takes 0.5-1 KB, so a kept enumeration holds at
most about 4 MB and all of them about 33 MB; only at k = 1, one class
of n identity permutations, does an entry grow past that, by about 60 B
per subsystem.  A cold call compiles exactly what an unmemoised one
would; a warm one compiles nothing and returns the same values bit for
bit.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from math import isnan, prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import perms
from .decompose import schmidt
from .tensor import Tensor, ShapeError
from .states import StateData, apply_local_unitary, as_operator, random_local_unitary

# Most classes and subsystems enumerate_invariants takes.  On one core, (4,4)
# (14491 classes) takes 0.6 s and 11 MB, (5,4) (336465) 16 s and 274 MB.  A
# tuple is indexed with one numpy axis per subsystem; numpy >= 1.24 allows 32.
MAX_CLASSES = 400_000
MAX_SUBSYSTEMS = 32
# Most index labels a network may carry.  The planner itself has no limit;
# the cap bounds the degree of every label the CLI builds or parses, so an
# order such as ``entropy --alpha 1e7`` or a label ``1000000000; e`` is
# refused instead of building 10^7 copies or a 10^9-point permutation.
MAX_LABELS = 52
# Memo bounds; see the module docstring for the memory they retain.
MEMO_ENTRIES = 4096
MEMO_CLASSES = 4096
MEMO_ENUMERATIONS = 8
# Bytes of states that verify_classes stacks into one batch of Haar trials;
# see the module docstring.
BATCH_BYTES = 128 * 1024


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
    identity; whitespace is insignificant; a degree over ``MAX_LABELS`` is refused.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"label {text!r} is missing the '; ' after the degree")
    try:
        k = int(head.strip())
    except ValueError:
        raise ValueError(f"bad degree {head.strip()!r} in label {text!r}") from None
    if k > MAX_LABELS:  # before parse_perm builds a k-element permutation
        raise ValueError(f"label {text!r} has degree {k}, above the limit of {MAX_LABELS}")
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


_ENUMERATIONS: dict[tuple[int, int], tuple[CanonicalClass, ...]] = {}  # oldest first
_ENUMERATIONS_LOCK = threading.Lock()


def enumerate_invariants(n: int, k: int) -> list[CanonicalClass]:
    """All degree-k invariant classes of an n-subsystem state.

    Returns exactly one representative per simultaneous-conjugation orbit
    of n-tuples over S_k, sorted by the lexicographic tuple encoding (the
    representative is the orbit minimum).  The list is the caller's own;
    the memo behind it keeps the last ``MEMO_ENUMERATIONS`` enumerations
    built that have at most ``MEMO_CLASSES`` classes.  Raises ValueError
    past ``MAX_CLASSES`` classes or ``MAX_SUBSYSTEMS`` subsystems.
    """
    classes = _ENUMERATIONS.get((n, k))
    if classes is None:
        classes = _enumerate(n, k)
        if len(classes) <= MEMO_CLASSES:
            with _ENUMERATIONS_LOCK:  # insert and evict as one step
                _ENUMERATIONS[n, k] = classes
                while len(_ENUMERATIONS) > MEMO_ENUMERATIONS:
                    del _ENUMERATIONS[next(iter(_ENUMERATIONS))]
    return list(classes)


def _enumerate(n: int, k: int) -> tuple[CanonicalClass, ...]:
    if n < 1:
        raise ValueError(f"need at least one subsystem, got n={n}")
    _, conj, _ = perms.conjugation_table(k)  # refuses k outside 1..MAX_DEGREE
    if n > MAX_SUBSYSTEMS:
        raise ValueError(f"n={n} subsystems, more than {MAX_SUBSYSTEMS}")
    # Burnside: conjugation by g fixes the tuples of n permutations that commute with g
    centralizers = np.count_nonzero(conj == np.arange(len(conj)), axis=1)
    count = sum(int(c) ** n for c in centralizers) // len(conj)
    if count > MAX_CLASSES:
        raise ValueError(f"n={n}, k={k} has {count} classes, more than {MAX_CLASSES}")
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
    return tuple(classes)


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
    """Sum one term over the labels it carries twice.

    Every axis tuple and shape here and in :class:`_Step` leads with the
    batch: axis 0 stays first and each reshape target starts with -1.
    """

    slot: int
    axes: tuple[int, ...]  # batch, kept axes, then each twice-carried label's two axes
    shape: tuple[int, int, int, int]  # (-1, kept, traced, traced) elements
    out: tuple[int, ...]


class _Step(NamedTuple):
    """Slot ``a`` becomes a @ b over the labels they share; slot ``b`` is freed."""

    a: int
    b: int
    axes_a: tuple[int, ...]  # batch, a's kept axes, then its shared ones
    shape_a: tuple[int, int, int]  # (-1, m, k)
    axes_b: tuple[int, ...]  # batch, b's shared axes in a's order, then its kept ones
    shape_b: tuple[int, int, int]  # (-1, k, n)
    out: tuple[int, ...]  # -1, a's kept dims, then b's


class _Program(NamedTuple):
    """A network compiled into traces and pairwise matrix products.

    Slot i starts as ``fused[sources[i]]``, a stack of operands on batch
    axis 0.  After the traces and steps, the slots in ``result`` hold one
    value per row for each connected part of the network, and the values
    are their product.  ``flops`` counts two per multiply-add of every
    product and one per traced entry; ``largest`` is the element count of
    the biggest intermediate.  Both are per row.
    """

    sources: tuple[int, ...]
    traces: tuple[_Trace, ...]
    steps: tuple[_Step, ...]
    result: tuple[int, ...]
    flops: int
    largest: int

    def contract(self, fused: tuple[np.ndarray, ...], traced: dict) -> np.ndarray:
        """The values of every row of ``fused``.

        ``traced`` holds the partial traces of ``fused`` computed so far,
        keyed by ``(source, axes, shape, out)``; each trace missing from it
        is computed and added.  Every trace acts on a source operand, so a
        kept trace has the bits a recomputed one would have.
        """
        ops = [fused[s] for s in self.sources]
        for slot, axes, shape, out in self.traces:
            key = (self.sources[slot], axes, shape, out)
            part = traced.get(key)
            if part is None:
                part = ops[slot].transpose(axes).reshape(shape).trace(axis1=2, axis2=3)
                part = traced[key] = part.reshape(out)
            ops[slot] = part
        for a, b, axes_a, shape_a, axes_b, shape_b, out in self.steps:
            mat_a = ops[a].transpose(axes_a).reshape(shape_a)
            mat_b = ops[b].transpose(axes_b).reshape(shape_b)
            ops[a] = (mat_a @ mat_b).reshape(out)
            ops[b] = None
        return prod(ops[s] for s in self.result)


def _compile(
    terms: Sequence[Sequence[int]], size: Sequence[int], sources: tuple[int, ...]
) -> _Program:
    """Plan the contraction of ``terms``, each label of which occurs exactly twice.

    Labels that one term carries twice are traced out first.  Then, greedily,
    of the pairs of terms that share a label, the one whose product grows the
    network least (output minus input elements, then fewest flops) is
    contracted.  There is no memory cap, so no pair is ever refused.  Only
    connected pairs are scanned, and each connected part ends as a scalar
    per row that :meth:`_Program.contract` multiplies in.  ``size[x]`` is
    the dimension of label x; axis 0 of every term is the batch, which no
    label names.
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
            traces.append(_Trace(
                slot, (0, *(1 + i for i in axes)), (-1, outer, inner, inner), (-1, *out)
            ))
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
            (0, *(1 + la.index(x) for x in kept_a + shared)), (-1, m, k),
            (0, *(1 + lb.index(x) for x in shared + kept_b)), (-1, k, n),
            (-1, *map(dim, kept_a + kept_b)),
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


def _fuse(src: _Operand, axes: tuple[int, ...], fused: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The stacked operators, or psi and conj(psi), with legs put in order ``axes`` and fused.

    ``src.array`` carries the batch on axis 0, and so does every result.
    """
    lead = (0, *(1 + s for s in axes))
    if src.pure:
        ket = src.array.transpose(lead).reshape(-1, *fused)
        return ket, ket.conj()
    n = len(axes)
    both = lead + tuple(1 + n + s for s in axes)
    return (src.array.transpose(both).reshape(-1, *fused, *fused),)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _program(
    fused: tuple[int, ...], subscripts: tuple[tuple[int, ...], ...], pure: bool
) -> _Program:
    """The program that contracts what :func:`_fuse` returns for this route."""
    m = len(fused)
    size = [fused[x % m] for x in range(len(subscripts) * m)]
    if pure:  # psi takes each copy's rows, conj(psi) its columns
        terms = [half for sub in subscripts for half in (sub[:m], sub[m:])]
        return _compile(terms, size, (0, 1) * len(subscripts))
    return _compile(subscripts, size, (0,) * len(subscripts))


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _network(t: PermTuple, dims: tuple[int, ...], pure: bool) -> tuple[tuple, _Program]:
    """The grouping ``(axes, fused)`` of one label on one set of dims, and its program.

    Subsystems with the same permutation are wired identically, so their
    legs are fused into one: the subsystems are put in group order ``axes``
    and the legs reshaped to ``fused``, once for the rows and once more for
    the columns of an operator.  Over the m fused groups, copy c carries
    row labels sigma_j(c) * m + j and column labels c * m + j.  For a pure
    state, rho = |psi><psi| splits copy c into psi with its row labels and
    conj(psi) with its column labels: 2k operands the size of psi.
    """
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
    return (axes, fused), _program(fused, subscripts, pure)


@dataclass
class ContractionCost:
    """Summed FLOPs and largest intermediate (elements) of compiled programs.

    ``flops`` is the planned sum over labels: a self-trace that several
    labels share is counted in each, though the replay computes it once per
    grouping, so it bounds the replayed work from above.
    """

    flops: int = 0
    largest: int = 0

    def add(self, program: _Program) -> None:
        self.flops += program.flops
        self.largest = max(self.largest, program.largest)


def _plan(tuples, dims, pure: bool, cost: ContractionCost | None) -> dict:
    """Each grouping ``(axes, fused)``: its ``(position, program)`` per tuple.

    Tuples whose networks agree on the fused dims and the subscripts share
    one memoised program.  A ``cost`` passed in is charged once per tuple.
    Only the first ``MEMO_ENTRIES`` tuples go through the label memo: past
    that, a scan in class order would evict each entry before it came round
    again, so a repeated call would hit none.
    """
    plan: dict[tuple, list] = {}
    for i, t in enumerate(tuples):
        network = _network if i < MEMO_ENTRIES else _network.__wrapped__
        grouping, program = network(t, dims, pure)
        if cost is not None:
            cost.add(program)
        plan.setdefault(grouping, []).append((i, program))
    return plan


def _contract_all(plan: dict, src: _Operand, count: int) -> np.ndarray:
    """The ``count`` planned values on each row of ``src``, one fused operand alive at a time.

    Row i of the result holds tuple i's values, one per row of the stack.
    The partial traces of a fused operand live and die with it, so each
    distinct one is computed once per grouping.
    """
    values = np.empty((count, len(src.array)), dtype=np.complex128)
    for grouping, members in plan.items():
        fused, traced = _fuse(src, *grouping), {}
        for i, program in members:
            values[i] = program.contract(fused, traced)
        del fused, traced  # before the next grouping is fused
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
    pure, array = _operand(state, dims)
    plan = _plan(tuples, dims, pure, cost)
    return _contract_all(plan, _Operand(pure, array[None]), len(tuples))[:, 0].tolist()


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


def _batch_rows(elements: int) -> int:
    """Rows in one chunk of trials whose arrays hold at most ``elements`` complex entries a row."""
    return max(1, BATCH_BYTES // (np.dtype(np.complex128).itemsize * elements))


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's ``abs`` rounds it (``hypot``); ``np.abs`` differs in the last bit."""
    return np.hypot(z.real, z.imag)


def max_unitary_deviation(
    value_fn: Callable[[Tensor], complex], rho, dims: Sequence[int], trials: int = 20, seed=0
) -> float:
    """Max relative change of ``value_fn`` (given operator Tensors) under local unitaries.

    The oracle that :func:`verify_classes` is checked against: one trial at
    a time, with nothing in common but the draw and the rotation.  Trial i
    draws its unitaries from child i of ``SeedSequence(seed)``, spawned one
    at a time, so memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    rho_t = Tensor._wrap(as_operator(rho, dims))
    base = value_fn(rho_t)
    scale = max(abs(base), 1e-300)
    parent, worst = np.random.SeedSequence(seed), 0.0
    for _ in range(trials):
        [child] = parent.spawn(1)
        rotated = apply_local_unitary(rho_t, dims, random_local_unitary(dims, seed=child))
        dev = abs(value_fn(rotated) - base) / scale
        if isnan(dev):  # max() would drop it
            return dev
        worst = max(worst, dev)
    return worst


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
    rotates that state once for all the tuples.  The call is planned once.
    One stack of ``max(1, BATCH_BYTES // size)`` rows, at most trials + 1,
    holds a chunk: the unrotated state in row 0 of the first, then the
    rotated states in trial order.  Size is the bytes of the widest row of
    any array in a chunk: psi or the operator, the largest intermediate of
    the tuples' programs, or one value per tuple.  Each chunk is fused once
    per grouping and every program replays once per chunk.  Memory follows
    the chunk, not the trial count; the module docstring gives measured
    peaks.  Trial i draws from child i of ``SeedSequence(seed)``, spawned a
    chunk at a time.  The deviations do not depend on the chunk size; for an
    operator they equal :func:`max_unitary_deviation` of :func:`evaluate_fast`
    bit for bit.
    A ``cost`` passed in is charged with every tuple's program once.
    """
    dims = tuple(int(d) for d in dims)
    src = _operand(state, dims)
    plan = _plan(tuples, dims, src.pure, cost)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    largest = max((p.largest for members in plan.values() for _, p in members), default=0)
    rows = min(_batch_rows(max(src.array.size, largest, len(tuples))), trials + 1)
    stack = np.empty((rows, *src.array.shape), dtype=np.complex128)
    stack[0], start, left = src.array, 1, trials
    parent, worst = np.random.SeedSequence(seed), np.zeros(len(tuples))
    while left:
        take = min(rows - start, left)
        for row, child in enumerate(parent.spawn(take), start):
            us = random_local_unitary(dims, seed=child)
            stack[row] = _operand(apply_local_unitary(state, dims, us), dims).array
        values = _contract_all(plan, _Operand(src.pure, stack[:start + take]), len(tuples))
        if start:  # the first chunk: row 0 holds the unrotated state
            bases, values = values[:, :1], values[:, 1:]
            scales = np.maximum(_modulus(bases), 1e-300)
        worst = np.maximum(worst, (_modulus(values - bases) / scales).max(axis=1, initial=0.0))
        start, left = 0, left - take
    return worst.tolist()
