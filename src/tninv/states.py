"""State and chain files, random generation, and partial traces.

This module owns the file formats: UTF-8 JSON with each complex component
a ``[real, imag]`` pair, so doubles round-trip bit-exactly.  orjson is the
one codec: it writes compact JSON and reads any standard JSON writer's
output.  A state file has ``kind`` (``pure`` or ``density``), ``dims`` and
``data``; see :func:`save_chain` for chains, which :func:`load_state` does
not read yet.

A kind is its ``legs`` plus its physics check, both in ``_KINDS``: 1 leg
per subsystem for psi, 2 (row and column) for an operator.  Only this
module reads the table, and every kind-dependent shape follows from
``legs``: with D the product of ``dims``, a file's ``data`` holds
``(D,) * legs`` entries of ``[real, imag]`` pairs (a flat list for psi,
rows for an operator), a stack of states takes ``1 + len(dims) * legs``
numpy axes, and the invariant engine views a state on ``dims * legs``
axes.  Other modules test a StateData's ``legs``, never its kind.

:func:`load_state` reads a file in stages, each rule written once: the
bytes and the memo; :func:`_document`, the JSON object and its fields;
:func:`_check_state`, the kind, the number of subsystems and the layout;
:func:`_bounded`, the one decode, which bounds every component; then the
kind's physics check from ``_KINDS``.

Haar trials are drawn and rotated a chunk at a time:
:func:`random_local_unitaries` gives one stack of unitaries per subsystem
from one QR per distinct dimension, and :func:`apply_local_unitary` turns
one state by the whole chunk in one pass per leg.  One trial is the
one-row case of the same code, with the same bits as its row in any
chunk.

A file read before is served from a per-process memo of at most
``LOAD_MEMO_BYTES`` of arrays, checked against the SHA-256 of the bytes
:func:`load_state` reads on every call.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import isqrt, prod
from typing import NamedTuple, Sequence

import numpy as np
import orjson

from .tensor import Tensor, ShapeError, group_legs

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9  # also bounds how far a pure state's squared norm may be off 1
PSD_TOL = 1e-9  # most negative eigenvalue a density operator may have
MAX_COMPONENT = 1e150  # largest real or imaginary part of a state file: its squares stay finite
# orjson 3.8 builds nested arrays and objects by recursion on the C stack,
# about 160 bytes a level, and crashes the process instead of raising once
# the stack runs out: past some 50000 levels of objects on an 8 MB stack, far
# sooner on a small thread stack.  A state file nests 4 deep, and stdlib json
# refused past about 1000 levels (RecursionError).
MAX_DEPTH = 512
# Bytes of parsed arrays that load_state keeps to serve files read again; each
# entry, a path read once included, is charged at least _PAGE bytes.
LOAD_MEMO_BYTES = 4 * 1024 * 1024
_PAGE = 4096

_ESCAPE = re.compile(rb"\\.")
_STRING = re.compile(rb'"[^"]*"')  # once escapes are gone
_NOT_MARKS = bytes(set(range(256)) - set(b'[{]}"'))
_NESTING = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


@dataclass
class StateData:
    """A state or operator plus the metadata needed to interpret it.

    kind: ``pure`` or ``density``.  A kind is its ``legs`` plus its physics
    check, both read from ``_KINDS``: the tensor is psi in the ``dims``
    shape (1 leg per subsystem), or the square matrix over the product
    space (2 legs, row and column).  Its file holds ``(D,) * legs``
    entries of ``[real, imag]`` pairs, D the product of ``dims``.  The
    tensor is reshaped to fit.  What :func:`_check_state` refuses, or a
    size that does not fit, raises ShapeError.
    """

    kind: str
    dims: tuple[int, ...]
    tensor: Tensor

    @property
    def legs(self) -> int:
        """Axes per subsystem: 1 for psi, 2 for an operator."""
        return _KINDS[self.kind][0]

    def __post_init__(self):
        self.dims = tuple(self.dims)
        layout = _check_state(self.dims, self.kind)
        shape = self.dims if self.legs == 1 else layout
        if self.tensor.data.size != prod(layout):
            what = "tensor" if self.legs == 1 else "operator"
            raise ShapeError(f"dims {self.dims} do not match {what} {self.tensor.dims}")
        if self.tensor.dims != shape:
            self.tensor = Tensor._wrap(self.tensor.data.reshape(shape))

    @classmethod
    def pure(cls, tensor: Tensor, dims=None) -> "StateData":
        return cls("pure", tensor.dims if dims is None else dims, tensor)

    @classmethod
    def density(cls, tensor: Tensor, dims: Sequence[int]) -> "StateData":
        return cls("density", dims, tensor)


def _check_state(dims: Sequence[int], kind: str = "density") -> tuple[int, ...]:
    """The file layout ``(prod(dims),) * legs`` of a ``kind`` state on ``dims``.

    Refuses a kind not in ``_KINDS``, or more subsystems than numpy can
    stack: every route views a stack of states with a batch axis and
    ``legs`` axes per subsystem, 1 + n axes for psi, 1 + 2n for rho.
    numpy's axis limit is probed by building such an array of one element.
    ``kind`` defaults to ``density``, the kind of an operand that is not a
    StateData (a Tensor or an array), which is read as an operator.
    """
    if not isinstance(kind, str) or kind not in _KINDS:  # a list or object kind is unhashable
        raise ShapeError(f"unknown kind {kind!r}")
    legs = _KINDS[kind][0]
    axes = 1 + len(dims) * legs
    try:
        np.empty((1,) * axes)
    except ValueError:
        raise ShapeError(f"dims has {len(dims)} entries, too many for a {kind} state: "
                         f"a stack of them needs {axes} axes, more than numpy allows") from None
    return (prod(dims),) * legs


def _encode(arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64 with a trailing ``[real, imag]`` axis per component."""
    return np.stack([arr.real, arr.imag], -1)


def _write_json(doc: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))


def save_state(state: StateData, path) -> None:
    """Write a StateData to ``path`` as JSON, ``data`` in the layout :func:`_check_state` gives."""
    data = _encode(state.tensor.data.reshape(_check_state(state.dims, state.kind)))
    _write_json({"kind": state.kind, "dims": list(state.dims), "data": data}, path)


def save_chain(chain, path) -> None:
    """Write an MPSChain to ``path`` as JSON.

    Each site is stored as its ``(left * phys, right)`` matrix, with its
    3-leg shape in ``site_shapes``.
    """
    doc = {
        "kind": "mps",
        "phys_dims": [int(d) for d in chain.phys_dims],
        "bond_dims": [int(c) for c in chain.bond_dims],
        "sites": [_encode(s.data.reshape(-1, s.dims[2])) for s in chain.sites],
        "site_shapes": [list(s.dims) for s in chain.sites],
        "bond_sigmas": list(chain.bond_sigmas),
    }
    _write_json(doc, path)


def _decode(entries, shape: tuple[int, ...], out_shape=None) -> np.ndarray:
    """Inverse of :func:`_encode`: ``[real, imag]`` pairs to a complex array.

    Only the codec: each level of ``entries`` must be a list as long as
    ``shape`` says, and each pair must hold two ``float`` or ``int``
    components (no ``bool``); a string or an object of the right length
    flattens into strings, which the type check refuses.  Values are left to
    :func:`_bounded`, the decode :func:`load_state` makes for every kind,
    which bounds them by ``MAX_COMPONENT`` before any arithmetic.  The array
    is new and owns its data, of shape ``out_shape`` (of the same size) when
    given, else ``shape``.
    """
    if type(entries) is not list or len(entries) != shape[0]:  # checked apart: no copy of it
        raise _not_pairs(shape)
    level = entries
    try:
        for length in shape[1:] + (2,):
            if set(map(len, level)) != {length}:
                raise _not_pairs(shape)
            level = list(itertools.chain.from_iterable(level))
    except TypeError:  # len of a number or of null
        raise _not_pairs(shape) from None
    if not set(map(type, level)) <= {float, int}:
        raise _not_pairs(shape)
    out = np.empty(shape if out_shape is None else out_shape, dtype=np.complex128)
    out.reshape(-1).view(np.float64)[:] = np.fromiter(level, np.float64, len(level))
    return out


def _not_pairs(shape: tuple[int, ...]) -> StateFileError:
    return StateFileError(f"data is not {' x '.join(map(str, shape))} [real, imag] pairs")


def _too_deep(raw: bytes) -> bool:
    """Whether the arrays and objects of a JSON text nest past ``MAX_DEPTH``.

    The brackets outside strings are summed.  The running sum is exact for
    valid JSON, the only text orjson builds objects from: it refuses anything
    else first.
    """
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)
    marks = _STRING.sub(b"", raw.translate(None, _NOT_MARKS)).translate(_NESTING, b'"')
    return int(np.frombuffer(marks, np.int8).cumsum(dtype=np.int64).max(initial=0)) > MAX_DEPTH


def _is_dim(d) -> bool:
    if isinstance(d, float):
        return d.is_integer() and d >= 1
    return isinstance(d, int) and not isinstance(d, bool) and d >= 1


class _Kept(NamedTuple):
    """A checked load of a path, valid while the file's bytes have ``digest``."""

    digest: bytes
    kind: str
    dims: tuple[int, ...]
    tensor: Tensor


# path -> None once read, or its _Kept once read again; least recently read first
_memo: OrderedDict = OrderedDict()
_memo_bytes = 0  # what the entries of _memo are charged, kept as they change
_memo_lock = threading.Lock()


def _charge(kept: _Kept | None) -> int:
    return _PAGE if kept is None else max(_PAGE, kept.tensor.data.nbytes)


def _sha256(raw: bytes) -> bytes:
    import hashlib  # on the first repeated read: it maps OpenSSL

    return hashlib.sha256(raw).digest()


def _remember(path, kept: _Kept | None) -> None:
    """Make ``kept`` the entry of ``path``, then evict the least recently read past the budget."""
    global _memo_bytes
    with _memo_lock:
        if path in _memo:
            _memo_bytes -= _charge(_memo.pop(path))
        _memo[path] = kept
        _memo_bytes += _charge(kept)
        while _memo_bytes > LOAD_MEMO_BYTES:
            _memo_bytes -= _charge(_memo.popitem(last=False)[1])


def load_state(path) -> StateData:
    """Read a StateData from ``path``; any fault raises StateFileError.

    The stages run in order, and the first fault is the one reported:
    :func:`_document` (depth, a JSON object, the ``kind``, ``dims`` and
    ``data`` fields, positive integer ``dims``); :func:`_check_state` (the
    kind, as many subsystems as its ``legs`` allow, and the file layout
    ``(D,) * legs`` of ``[real, imag]`` pairs, D the product of ``dims``);
    :func:`_bounded`, called once for every kind, which decodes ``data`` in
    that layout with every component at most ``MAX_COMPONENT`` (1e150)
    before any arithmetic; then the kind's physics check in ``_KINDS``,
    :func:`_pure` or :func:`_density`, on the decoded array.

    Every call reads the file's bytes.  A first successful load of ``path``
    keeps only a mark that it was read.  A second parses again and keeps the
    SHA-256 digest of the bytes with the checked array.  A later read whose
    bytes have that digest returns a new StateData around the same
    read-only array, without parsing; any other bytes are parsed and checked
    afresh, so the result never depends on the memo.  The memo charges each
    entry at least a page, keeps at most ``LOAD_MEMO_BYTES`` and evicts the
    least recently read paths first; an array larger than the budget is
    never kept.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    with _memo_lock:
        seen, kept = path in _memo, _memo.get(path)
        if seen:
            _memo.move_to_end(path)
    digest = None
    if kept is not None:
        digest = _sha256(raw)
        if digest == kept.digest:
            return StateData(kept.kind, kept.dims, kept.tensor)
    doc = _document(path, raw)
    kind, dims = doc["kind"], tuple(map(int, doc["dims"]))
    try:
        layout = _check_state(dims, kind)
    except ShapeError as exc:
        raise StateFileError(str(exc)) from None
    arr = _bounded(doc["data"], layout, dims if len(layout) == 1 else None)  # psi decodes into dims
    state = StateData(kind, dims, Tensor._wrap(_KINDS[kind][1](arr)))
    if not seen:
        _remember(path, None)
    elif state.tensor.data.nbytes <= LOAD_MEMO_BYTES:  # a larger array is never kept
        _remember(path, _Kept(digest or _sha256(raw), state.kind, state.dims, state.tensor))
    return state


def _document(path, raw: bytes) -> dict:
    """The JSON object in the bytes of a state file, its ``kind``, ``dims`` and ``data`` checked."""
    try:
        if _too_deep(raw):
            raise StateFileError(f"{path} nests arrays or objects deeper than {MAX_DEPTH}")
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path} does not hold a JSON object")
    for field in ("kind", "dims", "data"):
        if field not in doc:
            raise StateFileError(f"missing field {field!r} in {path}")
    for field in ("dims", "data"):
        if not isinstance(doc[field], list):
            raise StateFileError(f"field {field!r} is not a list in {path}")
    if not doc["dims"] or not all(_is_dim(d) for d in doc["dims"]):
        raise StateFileError(f"dims must be positive integers, got {doc['dims']!r}")
    return doc


def _bounded(entries, shape: tuple[int, ...], out_shape=None) -> np.ndarray:
    """:func:`_decode`, then refuse a real or imaginary part above ``MAX_COMPONENT``."""
    arr = _decode(entries, shape, out_shape)
    top = float(np.max(np.abs(arr.reshape(-1).view(np.float64))))
    if not top <= MAX_COMPONENT:  # NaN fails too
        raise StateFileError(f"data has a component of size {top}, above {MAX_COMPONENT:g}")
    return arr


def _pure(psi: np.ndarray) -> np.ndarray:
    """psi, in the ``dims`` shape, if it has unit norm."""
    norm2 = float(np.vdot(psi, psi).real)
    if abs(norm2 - 1.0) > TRACE_TOL:
        raise StateFileError(f"pure state has squared norm {norm2:.12g}, not 1")
    return psi


def _density(rho: np.ndarray) -> np.ndarray:
    """rho, a square matrix, if it is hermitian, positive semidefinite and of unit trace.

    Positivity is tried first by a Cholesky factorisation of the hermitian
    part plus ``PSD_TOL / 2`` on its diagonal.  It succeeds only if the
    lowest eigenvalue is above -``PSD_TOL / 2`` less a rounding of order
    d * eps * ||rho||, far inside the other half of the tolerance at unit
    trace, so it accepts nothing that ``eigvalsh`` would refuse.  Only when
    it fails does ``eigvalsh`` decide, and the error names the eigenvalue.
    """
    adjoint = rho.conj().T
    herm = float(np.max(np.abs(rho - adjoint)))
    if herm > HERMITICITY_TOL:
        raise StateFileError(f"density operator fails hermiticity by {herm:.3e}")
    part = (rho + adjoint) / 2
    try:
        np.linalg.cholesky(part + PSD_TOL / 2 * np.eye(len(rho)))
    except np.linalg.LinAlgError:  # eigvalsh decides
        low = float(np.linalg.eigvalsh(part)[0])
        if low < -PSD_TOL:
            raise StateFileError(f"density operator has negative eigenvalue {low:.3e}") from None
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateFileError(f"density operator has trace {tr:.12g}, not 1")
    return rho


# kind -> (legs: the axes a subsystem takes, 1 for psi and 2 for an operator;
# the physics check of the array decoded from a file's (D,) * legs entries)
_KINDS = {"pure": (1, _pure), "density": (2, _density)}


def random_pure_state(dims: Sequence[int], seed=None) -> Tensor:
    """Normalized state with i.i.d. complex Gaussian components (Haar).

    The real parts are drawn first, then the imaginary parts, each as a
    standard normal block in the ``dims`` shape; the state is their sum
    divided by its norm.
    """
    dims = tuple(map(int, dims))
    if not dims:
        raise ShapeError("dims must be nonempty")
    real, imag = np.random.default_rng(seed).standard_normal((2, *dims))
    vec = real + 1j * imag
    vec /= np.linalg.norm(vec)
    return Tensor._wrap(vec)


def random_local_unitary(dims: Sequence[int], seed=None) -> list[np.ndarray]:
    """One Haar-distributed unitary per subsystem: one row of :func:`random_local_unitaries`."""
    return [u[0] for u in random_local_unitaries(dims, [seed])]


def random_local_unitaries(dims: Sequence[int], children: Sequence) -> list[np.ndarray]:
    """Haar-distributed local unitaries for a chunk of trials: one stack per subsystem.

    Trial i draws from ``default_rng(children[i])`` with one
    ``standard_normal`` call, which holds, per subsystem in order, a real
    then an imaginary d x d Gaussian block.  Each factor is Q of the QR
    decomposition of that complex matrix, with its columns scaled by the
    phases of R's diagonal: the one Q whose R has a positive diagonal is
    Haar on U(d).  One stacked QR serves every trial and every subsystem of
    the same dimension, so row i of each ``(len(children), d, d)`` stack has
    the bits that trial i's draw alone would give.  No global phase is
    drawn: every invariant contracts as many copies of U as of U^H, so it
    would cancel.
    """
    dims = tuple(map(int, dims))
    if not dims:
        raise ShapeError("dims must be nonempty")
    ends = list(itertools.accumulate(2 * d * d for d in dims))
    draws = np.empty((len(children), ends[-1]))
    for row, child in zip(draws, children):
        np.random.default_rng(child).standard_normal(out=row)
    out = [None] * len(dims)
    for d in set(dims):
        subs = [s for s in range(len(dims)) if dims[s] == d]
        blocks = np.stack([draws[:, ends[s] - 2 * d * d:ends[s]] for s in subs], axis=1)
        gauss = blocks.reshape(len(children), len(subs), 2, d, d)
        q, r = np.linalg.qr(gauss[:, :, 0] + 1j * gauss[:, :, 1])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (diag / np.abs(diag))[..., None, :]
        for i, s in enumerate(subs):
            out[s] = q[:, i]
    return out


def density_from_pure(state: Tensor) -> Tensor:
    """Outer product |psi><psi| as a square matrix over the full space."""
    vec = state.data.reshape(-1)
    return Tensor._wrap(np.outer(vec, vec.conj()))


def as_operator(rho, dims=None) -> np.ndarray:
    """The square matrix of an operator over the product space.

    ``rho`` is a density StateData, a Tensor or an array of any shape
    holding d * d components, where d is the product of ``dims`` (or, with
    ``dims`` absent, the square root of the size); a StateData of 1 leg,
    psi, raises ShapeError, since psi is never read as |psi><psi|.  The
    result is a view of the input's components whenever numpy can reshape
    without copying, and keeps their dtype, so real input is not converted
    to complex.
    """
    if isinstance(rho, StateData):
        if rho.legs != 2:
            raise ShapeError(f"a {rho.kind} state is not read as an operator")
        rho = rho.tensor
    arr = rho.data if isinstance(rho, Tensor) else np.asarray(rho)
    d = prod(dims) if dims is not None else isqrt(arr.size)
    if arr.size != d * d:
        raise ShapeError(f"operator of size {arr.size} is not a {d} x {d} matrix")
    return arr.reshape(d, d)


def _checked_keep(keep: Sequence[int], n: int) -> list[int]:
    """``keep`` as ascending distinct subsystem positions of an n-subsystem state.

    Raises ShapeError when it is empty or names a position outside 0..n-1;
    a negative position is refused, not counted from the end.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ShapeError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ShapeError(f"keep {keep} out of range for {n} subsystems (0..{n - 1})")
    return keep


def partial_trace(rho, dims: Sequence[int], keep: Sequence[int]) -> Tensor:
    """Trace out every subsystem not in ``keep``.

    ``keep`` is a nonempty set of subsystem positions; the reduced operator
    orders them ascending.  Returns the square matrix over the kept space.
    """
    dims = tuple(map(int, dims))
    n = len(dims)
    keep = _checked_keep(keep, n)
    arr = as_operator(rho, dims).reshape(dims + dims)
    col = [n + i if i in keep else i for i in range(n)]
    reduced = np.einsum(arr, list(range(n)) + col, keep + [n + i for i in keep])
    dk = prod(dims[i] for i in keep)
    return Tensor._wrap(reduced.reshape(dk, dk))


def bipartition_density(rho, dims: Sequence[int], keep: Sequence[int]):
    """Regroup a density operator into (kept block, complement block).

    Returns the same operator as a two-subsystem density matrix plus its
    block dimensions ``(d_keep, d_rest)``.  Used to evaluate bipartite
    invariant labels against a chosen cut of a many-body state.
    """
    dims = tuple(map(int, dims))
    n = len(dims)
    keep = _checked_keep(keep, n)
    order = keep + [i for i in range(n) if i not in keep]
    arr = as_operator(rho, dims).reshape(dims + dims)
    mat = group_legs(arr, (order, [n + i for i in order]))
    dk = prod(dims[i] for i in keep)
    return mat, (dk, mat.dims[0] // dk)


def apply_local_unitary(state, dims: Sequence[int], unitaries):
    """Rotate a state by a tensor product of local unitaries.

    U_s multiplies row leg s alone, one matrix product per subsystem, so
    the d^n x d^n Kronecker product is never formed.  A pure StateData
    comes back as the pure StateData U psi, one row pass in O(n d D) for
    D = prod(dims).  Legs of psi past ``dims``, such as the party that
    purifies an operator, are left alone.  Anything else is read by
    :func:`as_operator` and comes back as the Tensor U rho U^H =
    (U (U rho)^H)^H: two passes, O(n d D^2).

    ``unitaries`` holds one d x d matrix per subsystem, or, for a chunk of
    T trials, one ``(T, d, d)`` stack per subsystem as
    :func:`random_local_unitaries` draws them.  A chunk comes back as one
    array of the T rotated states, ``(T, *dims)`` for psi (its legs past
    ``dims`` appended) and ``(T, D, D)`` for an operator, from the same
    passes over the whole chunk; row i has the bits that trial i's matrices
    alone give.
    """
    dims = tuple(map(int, dims))
    if len(unitaries) != len(dims):
        raise ShapeError(f"{len(unitaries)} unitaries for {len(dims)} subsystems")
    chunk = bool(unitaries) and np.ndim(unitaries[0]) == 3
    trials = len(unitaries[0]) if chunk else 1
    for u, d in zip(unitaries, dims):
        if np.shape(u) != ((trials, d, d) if chunk else (d, d)):
            raise ShapeError(f"unitary of shape {np.shape(u)} on a subsystem of dim {d}")
    stacks = [np.asarray(u) if chunk else np.asarray(u)[None] for u in unitaries]
    full = prod(dims)

    def rows(mat, cols):  # U mat per trial, U applied one row leg at a time
        for s, u in enumerate(stacks):
            shape = (len(mat), prod(dims[:s]), dims[s], prod(dims[s + 1:]) * cols)
            mat = np.matmul(u[:, None], mat.reshape(shape))
        return mat.reshape(trials, full, cols)

    if isinstance(state, StateData) and state.legs == 1:
        shape = dims if state.tensor.data.size == full else state.dims
        if shape[:len(dims)] != dims:
            raise ShapeError(f"a pure state of dims {state.dims} does not start with dims {dims}")
        psi = rows(state.tensor.data[None], prod(shape[len(dims):])).reshape(trials, *shape)
        return psi if chunk else StateData.pure(Tensor._wrap(psi[0]))
    half = rows(as_operator(state, dims)[None], full)
    half = np.conjugate(half.swapaxes(1, 2), order="C")  # (U rho)^H
    lead = slice(None) if chunk else 0  # one trial: conjugate its row alone, into an array it owns
    turned = np.conjugate(rows(half, full).swapaxes(1, 2)[lead], order="C")
    return turned if chunk else Tensor._wrap(turned)
