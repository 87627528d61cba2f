"""Polynomial local-unitary invariants labeled by permutation tuples.

A degree-k invariant of an n-subsystem operator rho is the trace of k
copies of rho wired together by one permutation of the copies per
subsystem.  Tuples related by relabeling the identical copies (conjugating
every permutation by the same element) give the same number, so classes
are enumerated up to simultaneous conjugation.  S_k is listed once, in
:func:`tninv.perms.conjugation_table`: enumeration, :func:`canonicalize`,
:func:`conjugate_tuple` and :func:`is_real_guaranteed` all read it, the
last only through its per-permutation bitmasks of inverting relabellings.
The tuples they build come from its entries and skip validation.

The value is computed one way in production: :func:`evaluate_fast`,
:func:`evaluate_many` and :func:`verify_classes` plan each call once.
They build each label's fused-leg network, from an operator or, for a
pure state, from copies of psi and conj(psi) (verify rotates psi itself;
rho is never formed), and compile every distinct network into a program
of traces and pairwise matrix products, planned greedily over the
network's integer labels.  Labels that differ only in which subsystems
they fuse share a program.
Replaying a program is ``ndarray.trace`` calls, then transposes, reshapes
and ``@``; no ``np.einsum`` call remains on the value path.  A self-trace
is one ``trace(axis1, axis2)`` per label its copy carries twice, on the
fused operand itself, so it neither transposes nor copies the operand.
A fixed point shared by several copies or labels draws the same loop, so
one dict of partial traces lives beside each grouping's fused operand
and is dropped with it: each distinct trace is computed once per grouping
and reused by every program that needs it.  The same op on the same array
gives the same bits, so sharing changes no value.  On density input most
traces repeat (608 traces, 68 distinct, over the 251 degree-3 classes of
2 x 2 x 2 x 2); psi terms carry none.  Products are not shared: on density
input no two are alike.
A program has one form: the steps the tests pin are the steps a replay
runs, fixed when the program is compiled so that a replay makes only the
numpy calls that do work.  A transpose whose axes are the identity is
compiled as ``None`` and left out (344 of the 970 transposes of an
operator's 485 products over those 251 classes, 939 of psi's 2442).  A
trace is kept under its ``pairs`` alone, since only an operator's
programs trace and every term of one is that operator.  A connected
network's value is its one result slot as its last product left it: the
``1 *`` that ``math.prod`` gives every value is applied to all rows of a
call in one multiply, and only then are the values of networks in
several parts written, which ``math.prod`` made in full.  So each value
keeps the bits of the product over its parts, signed zeros and NaNs
included.

Every program acts on a stack of states: axis 0 of each operand is a
batch, kept first by every transpose and led by -1 in every reshape, all
fixed when the program is compiled, and ``@`` broadcasts over it.
:func:`evaluate_many` and :func:`verify_classes` share one route: the
private ``_route`` picks the operand, plans it, charges the cost and
sizes the chunks of the trials + 1 rows, eval's one row being trials = 0.
:func:`evaluate_many` replays a stack of one.  :func:`verify_classes`
is the one verify loop: it writes the unrotated state and its rotated
copies into one stack of ``max(1, BATCH_BYTES // size)`` rows, at most
trials + 1, drawing and rotating each chunk of trials with one call each,
and replays each program once per chunk of rows.  Size is
the bytes, as complex128, of the widest row any array of the chunk has:
psi or the operator, the largest intermediate of the call's programs, or
the values of all its labels.  ``BATCH_BYTES`` (128 KiB) thus bounds each
array a chunk makes: the stack, a grouping's fused copies, each
intermediate, each kept trace and the values.  A chunk holds a few of
them at once, so a verify call's memory is a small multiple of
``BATCH_BYTES``, or of one row when a row is larger, whatever the trial
count.  Measured with tracemalloc over the k <= 3 classes (k <= 2 past 6
qubits), 20 trials peak at 0.03-1.6 MB for psi of 2 to 10 qubits and of
8 x 8, and at 0.04-0.95 MB for operators of 2 to 5 qubits, 3 x 3 x 3,
4 x 4 x 4 and 8 x 8; the kept traces add at most 0.03 MB (0.61 to 0.64 MB
on 2 x 2 x 2 x 2).  Batching pays for small operands, where Python
overhead per step sets the cost.  For a 64 x 64 operator the transposed
copies dominate, and batch-first stacks of them cost more than separate
ones, so the budget gives such an operator two rows a chunk.  A low-rank
operator is verified through its purification instead when that takes
fewer chunks: rho = tr_P |psi><psi| for psi = V sqrt(lambda) on
``dims + (r,)``, each label of rho is the same label with ``e`` appended
for the purifying party P, and a trial rotates psi's system legs, D r
amplitudes in one pass instead of D^2 entries in two.  A rank-2 64 x 64
density then takes the 7 rows of 6 trials in one chunk, not 4.  The
choice reads only ``BATCH_BYTES``, the rank and the two plans' largest
intermediates; an operator whose rows fit one chunk is never
diagonalised, so :func:`evaluate_many`, whose one row always fits one
chunk, never purifies.  Its oracle,
:func:`max_unitary_deviation`, takes one trial at a time on the operator
and shares only the draw and the rotation with the operator route.
:func:`evaluate`, the reference that tests compare against, sums
tr(T rho^(x)k) over T's index map, building neither T nor the power.

A label's grouping and program depend only on the label, the dims and
the route, and a program only on the fused dims, the subscripts and the
route, never on the state.  Both are memoised per process on exactly
those keys, in LRUs of at most ``MEMO_ENTRIES`` (4096) entries each; a
label entry holds its shared program, so a warm call makes one lookup per
label.  Every label of a call goes through the label memo, so a call over
more labels than it holds evicts its own first ones.  Measured with
tracemalloc, a label entry takes 0.4-1.3 KB (5 MB for a full memo).  A
program entry, its key and LRU link included, takes 0.7-8.4 KB up to
degree 6 (34 MB for a full memo of the largest), the most for six
subsystems that carry six distinct permutations, and 9.7-28 KB if it
uses all ``MAX_LABELS`` indices (113 MB); that is over 12264 entries of
2 to 6 subsystems of dimension 2 to 8 and degree 1 to 6, and 910 of 52
indices, on both routes, after a collection.  The 251 degree-3 classes of
2 x 2 x 2 x 2 fill the memos with 410 KiB on the operator route and
506 KiB on psi's.  A tuple that has been hashed keeps its hash, some
40 B more.
:func:`enumerate_invariants` keeps every enumeration of at most
``MEMO_ENTRIES`` classes, so the one memo bound also fixes which are
kept: within ``MAX_SUBSYSTEMS`` and ``perms.MAX_DEGREE`` there are 56
such (n, k), 11738 classes in all.  Its
stabiliser-chain walk labels each representative as it finds it, and an
entry keeps the labels beside its classes, which ``invariants list``
copies: a repeated list, or an eval or verify over a kept enumeration,
formats no label again.  A labelled class takes 0.4-0.5 KB, its tuple
sharing the table's permutation tuples (tracemalloc, 4096 classes of
n = 12, k = 2 to 901 of n = 2, k = 6): an entry holds at most about
2.1 MB, or 80 B more a subsystem at k = 1, and all 56 about 5.5 MiB.
Past ``MEMO_ENTRIES`` each call builds fresh, labelled tuples and keeps
none.  A cold call compiles exactly what an unmemoised one would; a warm
one compiles nothing and returns the same values bit for bit.

A :class:`ContractionCost` passed to :func:`evaluate_many` or
:func:`verify_classes` is charged once per tuple with the program of the
route the call took, and its ``purification`` is set to that route's:
``None`` unless the call contracted an operator's purification, so it is
``None`` after every eval.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import dataclass, field
from math import isnan, prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import perms
from .decompose import schmidt
from .entropy import CLAMP_TOL
from .tensor import Tensor, ShapeError
from .states import (
    StateData, _check_state, _checked_keep, apply_local_unitary, as_operator,
    random_local_unitaries, random_local_unitary,
)

# Most classes and subsystems enumerate_invariants takes.  On one core, (4,4)
# (14491 classes) takes 0.17 s and (5,4) (336465) 4.3 s, with tracemalloc peaks
# of 6 and 152 MB, nearly all classes.  32 subsystems bound Burnside's c ** n,
# the walk's depth and the length of a k = 1 tuple (one class of n identities).
MAX_CLASSES = 400_000
MAX_SUBSYSTEMS = 32
# Most index labels a network may carry.  The planner itself has no limit;
# the cap bounds the degree of every label the CLI builds or parses, so an
# order such as ``entropy --alpha 1e7`` or a label ``1000000000; e`` is
# refused instead of building 10^7 copies or a 10^9-point permutation.
MAX_LABELS = 52
# Memo bound; see the module docstring for the memory it retains.
MEMO_ENTRIES = 4096
# Bytes of states that verify_classes stacks into one batch of Haar trials;
# see the module docstring.
BATCH_BYTES = 128 * 1024


@dataclass(frozen=True)
class PermTuple:
    """Label of one invariant: degree k plus one permutation per subsystem."""

    k: int
    sigmas: tuple[tuple[int, ...], ...]
    # The label text and the hash, each set by its first call; no part of ==, hash or repr.
    _label: str | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"degree must be >= 1, got {self.k}")
        if not self.sigmas:
            raise ValueError("need at least one subsystem permutation")
        norm = tuple(tuple(map(int, s)) for s in self.sigmas)
        object.__setattr__(self, "sigmas", norm)
        for s in norm:
            if sorted(s) != list(range(self.k)):
                raise ValueError(f"{s} is not a permutation of 0..{self.k - 1}")

    @classmethod
    def _trusted(cls, k: int, sigmas: tuple[tuple[int, ...], ...]) -> "PermTuple":
        # internal fast path: sigmas are already int tuples of S_k, such as table entries
        t = object.__new__(cls)
        attrs = t.__dict__
        attrs["k"] = k
        attrs["sigmas"] = sigmas
        return t

    @property
    def n(self) -> int:
        return len(self.sigmas)

    def label(self) -> str:
        if self._label is None:
            object.__setattr__(self, "_label", format_label(self))
        return self._label

    def __hash__(self) -> int:  # the dataclass's hash of (k, sigmas), once: each label memo lookup takes one
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.k, self.sigmas)))
        return self._hash


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
    sk, index, conj, _, _ = perms.conjugation_table(t.k)
    tau = tuple(tau)
    if tau not in index:
        raise ValueError(f"tau {tau} is not a permutation of 0..{t.k - 1} for a degree-{t.k} tuple")
    row = conj[index[tau]]
    return PermTuple._trusted(t.k, tuple(sk[row[index[s]]] for s in t.sigmas))


def canonicalize(t: PermTuple) -> PermTuple:
    """Lexicographically minimal tuple over all simultaneous conjugations.

    Two tuples canonicalize equal iff they label the same invariant diagram
    (up to reordering the identical copies of rho).  A lexicographic minimum
    first minimises the first permutation, so only the relabellings in the
    table's ``lead`` of sigma_1, those that send it to the least element of
    its conjugacy class, can win: 11 of the 720 at k = 6 on average, all 720
    only when sigma_1 is the identity.
    """
    sk, index, conj, _, lead = perms.conjugation_table(t.k)
    idx = [index[s] for s in t.sigmas]
    best = min(conj[lead[idx[0]][:, None], idx].tolist())
    return PermTuple._trusted(t.k, tuple(sk[i] for i in best))


def connected_components(t: PermTuple) -> tuple[tuple[int, ...], ...]:
    """Partition of the k copies into the diagram's connected components.

    Each component is grown from its least copy, breadth first through
    every sigma, and listed sorted; components come in order of least copy.
    """
    sigmas, seen, out = t.sigmas, [False] * t.k, []
    for start in range(t.k):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for x in comp:  # comp grows while it is walked
            for s in sigmas:
                y = s[x]
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def component_subtuples(t: PermTuple) -> list[PermTuple]:
    """Restrict the tuple to each connected component of copies."""
    out = []
    for comp in connected_components(t):
        pos = {c: i for i, c in enumerate(comp)}
        out.append(PermTuple(len(comp), tuple(tuple(pos[s[c]] for c in comp) for s in t.sigmas)))
    return out


def is_real_guaranteed(t: PermTuple) -> bool:
    """True iff some common relabeling inverts every permutation at once.

    Such tuples coincide with their complex conjugate label, so the
    invariant is real on every input.  The table's ``inverting`` masks of
    the sigmas are ANDed, stopping as soon as no relabelling is left.
    """
    _, index, _, inverting, _ = perms.conjugation_table(t.k)
    common = -1  # every relabelling
    for s in t.sigmas:
        common &= inverting[index[s]]
        if not common:
            return False
    return True


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
    representative is the orbit minimum).  The list is the caller's own;
    the memo behind it keeps every enumeration that has at most
    ``MEMO_ENTRIES`` classes, 56 of them (5.5 MiB) in all.  Raises
    ValueError, before it allocates, past ``MAX_CLASSES`` classes or
    ``MAX_SUBSYSTEMS`` subsystems.
    """
    if n < 1:
        raise ValueError(f"need at least one subsystem, got n={n}")
    perms.conjugation_table(k)  # refuses k outside 1..MAX_DEGREE
    if n > MAX_SUBSYSTEMS:
        raise ValueError(f"n={n} subsystems, more than {MAX_SUBSYSTEMS}")
    count = _class_count(n, k)  # memoised; the bounds below are read on every call
    if count > MAX_CLASSES:
        raise ValueError(f"n={n}, k={k} has {count} classes, more than {MAX_CLASSES}")
    scan = _scan if count <= MEMO_ENTRIES else _scan.__wrapped__
    return list(scan(n, k)[0])


def _kept_labels(n: int, k: int, classes: list[CanonicalClass]) -> list[str]:
    """The labels of ``classes``, which :func:`enumerate_invariants` just returned for (n, k).

    A kept enumeration's labels are copied from its memo entry; past
    ``MEMO_ENTRIES`` the scan has labelled each fresh tuple.
    """
    if len(classes) > MEMO_ENTRIES:
        return [c.label() for c in classes]
    return list(_scan(n, k)[1])


@functools.cache  # called only once n <= MAX_SUBSYSTEMS and k <= MAX_DEGREE are checked
def _class_count(n: int, k: int) -> int:
    """Burnside: conjugation by g fixes the tuples of n permutations that commute with g."""
    conj = perms.conjugation_table(k)[2]
    centralizers = np.count_nonzero(conj == np.arange(len(conj)), axis=1)
    return sum(int(c) ** n for c in centralizers) // len(conj)


@functools.cache  # called only for enumerations of at most MEMO_ENTRIES classes
def _scan(n: int, k: int) -> tuple[tuple[CanonicalClass, ...], tuple[str, ...]]:
    """The classes in code order and their labels, found down a stabiliser chain.

    A tuple is its orbit's minimum iff each sigma_i is least in its orbit under the
    relabellings fixing the sigmas before it (Sims): the walk visits these minima in
    ascending order, and each orbit is k! over the last stabiliser's order.
    """
    sk, _, conj, _, _ = perms.conjugation_table(k)
    classes, labels = [], []

    def walk(prefix: tuple, stab: np.ndarray) -> None:
        if len(prefix) == n:
            classes.append(CanonicalClass(PermTuple._trusted(k, prefix), len(sk) // len(stab)))
            labels.append(classes[-1].label())
            return
        images = conj if len(stab) == len(sk) else conj[stab]  # S_k: no 1 MB copy at k = 6
        for p in np.flatnonzero(images.min(axis=0) == np.arange(len(sk))).tolist():
            walk(prefix + (sk[p],), stab[images[:, p] == p])

    walk((), np.arange(len(sk)))
    return tuple(classes), tuple(labels)


def _index_map(t: PermTuple, dims: Sequence[int]) -> np.ndarray:
    """Where T sends each copy-major index x: copy c of s reads x's copy sigma_s^-1(c)."""
    dims = tuple(map(int, dims))
    if len(dims) != t.n:
        raise ShapeError(f"label {t.label()!r} has {t.n} subsystems, state has {len(dims)}")
    full_dims, inv = dims * t.k, [perms.inverse(s) for s in t.sigmas]
    digits = np.unravel_index(np.arange(prod(full_dims)), full_dims)
    src = [inv[s][c] * t.n + s for c in range(t.k) for s in range(t.n)]
    return np.ravel_multi_index(tuple(digits[i] for i in src), full_dims)


def permutation_operator(t: PermTuple, dims: Sequence[int]) -> np.ndarray:
    """Matrix permuting, per subsystem, the k copies of that subsystem.

    Acts on the k-fold product space ordered copy-major; copy c of
    subsystem s is sent to copy sigma_s(c).  The paper's operator T, kept as
    illustration: :func:`evaluate` sums over its index map instead.
    """
    rows = _index_map(t, dims)
    op = np.zeros((rows.size, rows.size), dtype=np.complex128)
    op[rows, np.arange(rows.size)] = 1.0
    return op


def evaluate(t: PermTuple, rho, dims: Sequence[int]) -> complex:
    """Invariant value tr(T rho^(x)k), summed over the k-fold space.

    Index x adds the product over copies c of rho[x_c, y_c], y being where T
    sends x; neither T nor the power is built (about k n D^k indices).  The
    reference for :func:`evaluate_fast`, sharing no planner or memo with it.
    """
    mat, y = as_operator(rho, dims), _index_map(t, dims)
    copies = (len(mat),) * t.k
    terms = zip(np.unravel_index(np.arange(y.size), copies), np.unravel_index(y, copies))
    return complex(prod(mat[i, j] for i, j in terms).sum())


class _Operand(NamedTuple):
    """What a network's copies are cut from: psi (``pure``) or an operator."""

    pure: bool
    array: np.ndarray


def _operand(state, dims: tuple[int, ...]) -> _Operand:
    """A pure StateData as psi, anything else as its operator, viewed on ``dims * legs`` axes."""
    layout = _check_state(dims, state.kind) if isinstance(state, StateData) else _check_state(dims)
    legs = len(layout)
    array = state.tensor.data if legs == 1 else as_operator(state, dims)
    if array.size != prod(layout):  # as_operator has refused an operator of another size
        raise ShapeError(f"state of size {array.size} does not match dims {dims}")
    return _Operand(legs == 1, array.reshape(dims * legs))


class _Program(NamedTuple):
    """A network compiled into traces and pairwise matrix products.

    Slot i starts as ``fused[sources[i]]``, a stack of operands on batch
    axis 0.  After the traces and steps, the slots in ``result`` hold one
    value per row for each connected part of the network, and the values
    are their product.  ``flops`` counts two per multiply-add of every
    product and one per traced entry; ``largest`` is the element count of
    the biggest intermediate.  Both are per row.

    Each trace ``(slot, pairs)`` sums that slot over the labels it carries
    twice, in place: ``pairs`` holds the two axes of each such label, each
    pair numbered as the operand stands once the earlier pairs are traced
    away; axis 0, the batch, is in no pair, and the kept axes stay in
    their order.

    Each step ``(a, b, axes_a, shape_a, axes_b, shape_b, out)`` makes slot
    ``a`` a @ b over the labels they share and frees slot ``b``.
    ``axes_a`` orders a's axes as the batch, its kept axes, then its shared
    ones, for ``shape_a`` = (-1, m, k); ``axes_b`` orders b's as the batch,
    its shared axes in a's order, then its kept ones, for ``shape_b`` =
    (-1, k, n); ``out`` is -1, a's kept dims, then b's.  An axes field is
    ``None`` where its transpose would be the identity.  The steps are the
    one form of the program, the one :meth:`contract` replays.  Traces and
    steps are plain tuples because CPython unpacks a NamedTuple through
    its iterator, some 70 ns more a step.
    """

    sources: tuple[int, ...]
    traces: tuple[tuple, ...]
    steps: tuple[tuple, ...]
    result: tuple[int, ...]
    flops: int
    largest: int

    def contract(self, fused: tuple[np.ndarray, ...], traced: dict) -> np.ndarray:
        """The values of every row of ``fused``, less ``math.prod``'s ``1 *`` when connected.

        ``traced`` holds the partial traces of ``fused`` computed so far,
        keyed by ``pairs``; each trace missing from it is computed and
        added.  Only an operator's programs trace, and all their sources
        are the one operator, so ``pairs`` names a trace of it, and a kept
        trace has the bits a recomputed one would have.  A connected
        network's value is returned as its last product left it; the
        caller owes it the ``1 *`` that ``math.prod`` gives every other
        value (:func:`_contract_all` does it for all rows at once).
        """
        ops = [fused[s] for s in self.sources]
        for slot, pairs in self.traces:
            part = traced.get(pairs)
            if part is None:
                part = ops[slot]
                for axis1, axis2 in pairs:
                    part = part.trace(axis1=axis1, axis2=axis2)
                traced[pairs] = part
            ops[slot] = part
        for a, b, axes_a, shape_a, axes_b, shape_b, out in self.steps:
            mat_a, mat_b = ops[a], ops[b]
            if axes_a is not None:
                mat_a = mat_a.transpose(axes_a)
            if axes_b is not None:
                mat_b = mat_b.transpose(axes_b)
            ops[a] = (mat_a.reshape(shape_a) @ mat_b.reshape(shape_b)).reshape(out)
            ops[b] = None
        return ops[self.result[0]] if len(self.result) == 1 else prod(ops[s] for s in self.result)


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
    def moved(axes: tuple[int, ...]) -> tuple[int, ...] | None:
        return None if axes == tuple(range(len(axes))) else axes

    dim = size.__getitem__
    labels, numel, traces, steps, flops, largest = [], [], [], [], 0, 0
    for slot, term in enumerate(terms):
        term, pairs, inner = list(term), [], 1
        while len(set(term)) < len(term):  # trace the label whose second axis comes first
            j = min(range(len(term)), key=lambda j: (term[j] not in term[:j], j))
            i = term.index(term[j])
            pairs.append((1 + i, 1 + j))  # after the batch, with the earlier pairs gone
            inner *= size[term[j]]
            del term[j], term[i]
        labels.append(term)
        numel.append(prod(map(dim, term)))
        if pairs:  # each of the numel[-1] kept entries sums inner traced ones
            traces.append((slot, tuple(pairs)))
            flops, largest = flops + numel[-1] * inner, max(largest, numel[-1])
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
        steps.append((
            a, b,
            moved((0, *(1 + la.index(x) for x in kept_a + shared))), (-1, m, k),
            moved((0, *(1 + lb.index(x) for x in shared + kept_b))), (-1, k, n),
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
    if len(dims) != t.n:
        raise ShapeError(f"label {t.label()!r} has {t.n} subsystems, state has {len(dims)}")
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


class Purification(NamedTuple):
    """psi = V sqrt(lambda) of an operator, over its eigenvalues above ``CLAMP_TOL``.

    ``rank`` is psi's last leg, the purifying party P; ``discarded_weight``
    is the sum of |lambda| over the eigenvalues cut.
    """

    rank: int
    discarded_weight: float


@dataclass
class ContractionCost:
    """Summed FLOPs and largest intermediate (elements) of compiled programs.

    ``flops`` is the planned sum over labels: a self-trace that several
    labels share is counted in each, though the replay computes it once per
    grouping, so it bounds the replayed work from above.  Each call of
    :func:`evaluate_many` or :func:`verify_classes` that charges a cost
    sets its ``purification`` to the route that call took: the operator's
    purification when it contracted that, else ``None``.
    """

    flops: int = 0
    largest: int = 0
    purification: Purification | None = None


def _plan(tuples, dims, pure: bool) -> tuple[dict, ContractionCost]:
    """Each grouping ``(axes, fused)``: its ``(position, program)`` per tuple; and their cost.

    Every tuple goes through the label memo.  Tuples whose networks agree
    on the fused dims and the subscripts share one memoised program.  The
    cost is a fresh one, summed once over every tuple's program.
    """
    plan: dict[tuple, list] = {}
    programs = []
    for i, t in enumerate(tuples):
        grouping, program = _network(t, dims, pure)
        plan.setdefault(grouping, []).append((i, program))
        programs.append(program)
    largest = max((program.largest for program in programs), default=0)
    return plan, ContractionCost(sum(program.flops for program in programs), largest)


def _contract_all(plan: dict, src: _Operand, count: int) -> np.ndarray:
    """The ``count`` planned values on each row of ``src``, one fused operand alive at a time.

    Row i of the result holds tuple i's values, one per row of the stack.
    The partial traces of a fused operand live and die with it, so each
    distinct one is computed once per grouping.  Every row then takes
    ``math.prod``'s ``1 *`` in one multiply, and the values of networks in
    several parts, which ``math.prod`` made in full, are written after it:
    each value has the bits of the product over its parts.
    """
    values = np.zeros((count, len(src.array)), dtype=np.complex128)  # the multiply reads every row
    split = []
    for grouping, members in plan.items():
        fused, traced = _fuse(src, *grouping), {}
        for i, program in members:
            value = program.contract(fused, traced)
            if len(program.result) > 1:
                split.append((i, value))
            else:
                values[i] = value
        del fused, traced  # before the next grouping is fused
    values *= 1  # 1 * z may flip a signed zero or make inf + 0j inf + nan j
    for i, value in split:
        values[i] = value
    return values


def evaluate_many(
    tuples: Sequence[PermTuple], state, dims: Sequence[int], cost: ContractionCost | None = None
) -> list[complex]:
    """:func:`evaluate_fast` of every tuple, in order.

    Tuples whose networks match share one compiled program.  Tuples that
    group the subsystems alike share one fused operand, so the reduced
    powers of one cut (:func:`reduced_power_label` at several orders)
    transpose the operator once.  The route is :func:`verify_classes`'s
    with no trials: one row fits one chunk, so an operator is never
    purified.  A ``cost`` passed in is charged with every tuple's program,
    and its ``purification`` is set to ``None``.  A tuple with other than
    ``len(dims)`` subsystems raises ShapeError naming its label.
    """
    _, src, plan, _ = _route(tuples, state, dims, 0, cost)
    return _contract_all(plan, _Operand(src.pure, src.array[None]), len(tuples))[:, 0].tolist()


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
    no regrouping into (kept, rest) blocks first.  Raises ShapeError when
    ``keep`` is empty or names a position outside 0..n-1.
    """
    keep = _checked_keep(keep, n)
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


def _route(tuples, state, dims: Sequence[int], trials: int, cost: ContractionCost | None):
    """What :func:`evaluate_many` and :func:`verify_classes` contract: ``(state, src, plan, rows)``.

    The trials + 1 rows (eval's one row is trials = 0) go in chunks of
    ``rows``, as many as ``BATCH_BYTES`` holds at the widest row of any
    array of a chunk: the operand, the plan's largest intermediate or one
    value per tuple.  The state's own route is planned first.  Only when an
    operator needs more than one chunk is the purification of
    :func:`_purify` planned too, every label with ``e`` appended for P, and
    taken if it needs fewer chunks; a tie stays on the operator.  So eval,
    whose one row fits one chunk, never purifies.  A ``cost`` passed in is
    charged with the plan taken, and its ``purification`` is set to say
    which plan that was, on every call.  A purified state keeps one copy of
    psi, which ``src`` shares.
    """
    def chunking(array: np.ndarray, largest: int) -> tuple[int, int]:
        width = max(array.size, largest, len(tuples)) * np.dtype(np.complex128).itemsize
        rows = min(max(1, BATCH_BYTES // width), trials + 1)
        return rows, -(-(trials + 1) // rows)

    dims = tuple(map(int, dims))
    src = _operand(state, dims)
    plan, spent = _plan(tuples, dims, src.pure)
    rows, chunks = chunking(src.array, spent.largest)
    found = None if src.pure or chunks == 1 else _purify(src.array, dims)
    if found is not None and chunking(found[0], 0)[1] < chunks:  # else no plan of psi takes fewer
        psi, psi_plan = found[0], None
        psi_tuples = [PermTuple._trusted(t.k, (*t.sigmas, tuple(range(t.k)))) for t in tuples]
        with suppress(ShapeError):  # P's leg may take a label past MAX_LABELS
            psi_plan, psi_spent = _plan(psi_tuples, psi.shape, True)
        if psi_plan is not None and (taken := chunking(psi, psi_spent.largest))[1] < chunks:
            state = StateData.pure(Tensor._wrap(psi))
            src, spent, plan, rows = _Operand(True, state.tensor.data), psi_spent, psi_plan, taken[0]
            spent.purification = found[1]
    if cost is not None:
        cost.flops, cost.largest = cost.flops + spent.flops, max(cost.largest, spent.largest)
        cost.purification = spent.purification
    return state, src, plan, rows


def _purify(op: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, Purification] | None:
    """psi on ``dims + (r,)`` with tr_P |psi><psi| = op to ``CLAMP_TOL``, or None if there is none.

    One ``eigh`` gives psi = V sqrt(lambda) over the r eigenvalues above
    ``CLAMP_TOL``.  An operator that is not hermitian to ``CLAMP_TOL``, has
    an eigenvalue below ``-CLAMP_TOL`` or none above it has no such psi.
    """
    d = prod(dims)
    mat = op.reshape(d, d)
    if not np.abs(mat - mat.conj().T).max() <= CLAMP_TOL:  # eigh reads one triangle; NaN fails too
        return None
    lam, vecs = np.linalg.eigh(mat)
    kept = lam > CLAMP_TOL
    if lam[0] < -CLAMP_TOL or not kept.any():
        return None
    psi = (vecs[:, kept] * np.sqrt(lam[kept])).reshape(*dims, -1)
    return psi, Purification(psi.shape[-1], float(np.abs(lam[~kept]).sum()))


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
    dims = tuple(map(int, dims))
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

    ``state`` takes the route :func:`evaluate_many` shares: a pure StateData
    stays psi, so rho is never formed.  An operator whose rows need more
    than one chunk is contracted through its purification psi on
    ``dims + (r,)`` instead, with ``e`` appended to every label for the
    purifying party P, when that takes fewer chunks; the trials rotate
    psi's system legs by the same draws and leave P alone, so a seed keeps
    its meaning.  Each chunk of trials draws its local unitaries with one
    :func:`~tninv.states.random_local_unitaries` call and rotates that
    state with one :func:`~tninv.states.apply_local_unitary` call, once for
    all the tuples.  The call is planned once.
    One stack of ``max(1, BATCH_BYTES // size)`` rows, at most trials + 1,
    holds a chunk: the unrotated state in row 0 of the first, then the
    rotated states in trial order.  Size is the bytes of the widest row of
    any array in a chunk: psi or the operator, the largest intermediate of
    the tuples' programs, or one value per tuple.  Each chunk is fused once
    per grouping and every program replays once per chunk.  Memory follows
    the chunk, not the trial count; the module docstring gives measured
    peaks.  Trial i draws from child i of ``SeedSequence(seed)``, spawned a
    chunk at a time.  The deviations do not depend on the chunk size; on the
    operator route they equal :func:`max_unitary_deviation` of
    :func:`evaluate_fast` bit for bit.
    A ``cost`` passed in is charged with every program of the route taken
    once per tuple, and its ``purification`` is set to say which route that
    was: the purification's rank and discarded weight, or ``None``.
    """
    if trials < 1:  # before any label is planned and memoised
        raise ValueError(f"trials must be >= 1, got {trials}")
    state, src, plan, rows = _route(tuples, state, dims, trials, cost)
    stack = np.empty((rows, *src.array.shape), dtype=np.complex128)
    stack[0], start, left = src.array, 1, trials
    parent, worst = np.random.SeedSequence(seed), np.zeros(len(tuples))
    while left:
        take = min(rows - start, left)
        rotated = apply_local_unitary(state, dims, random_local_unitaries(dims, parent.spawn(take)))
        stack[start:start + take] = rotated.reshape(take, *src.array.shape)
        values = _contract_all(plan, _Operand(src.pure, stack[:start + take]), len(tuples))
        if start:  # the first chunk: row 0 holds the unrotated state
            bases, values = values[:, :1], values[:, 1:]
            scales = np.maximum(_modulus(bases), 1e-300)
        worst = np.maximum(worst, (_modulus(values - bases) / scales).max(axis=1, initial=0.0))
        start, left = 0, left - take
    return worst.tolist()
