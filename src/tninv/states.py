"""State and chain files, random generation, and partial traces.

This module owns the file formats: UTF-8 JSON with each complex component
a ``[real, imag]`` pair, so doubles round-trip bit-exactly.  A state file
has ``kind`` (``pure`` or ``density``), ``dims`` and ``data`` (a flat list
for pure states, rows for density operators); see :func:`save_chain` for chains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt, prod
from typing import Sequence

import numpy as np

from .tensor import Tensor, ShapeError, group_legs

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9  # also bounds how far a pure state's squared norm may be off 1
PSD_TOL = 1e-9  # most negative eigenvalue a density operator may have


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


@dataclass
class StateData:
    """A state or operator plus the metadata needed to interpret it.

    kind: ``pure`` (tensor has one leg per subsystem) or ``density``
    (tensor is the square matrix over the product space).
    """

    kind: str
    dims: tuple[int, ...]
    tensor: Tensor

    @classmethod
    def pure(cls, tensor: Tensor, dims=None) -> "StateData":
        dims = tuple(dims) if dims is not None else tensor.dims
        if prod(dims) != prod(tensor.dims):
            raise ShapeError(f"dims {dims} do not match tensor {tensor.dims}")
        return cls("pure", dims, Tensor._wrap(tensor.data.reshape(dims)))

    @classmethod
    def density(cls, tensor: Tensor, dims: Sequence[int]) -> "StateData":
        dims = tuple(dims)
        d = prod(dims)
        if prod(tensor.dims) != d * d:
            raise ShapeError(f"dims {dims} do not match operator {tensor.dims}")
        return cls("density", dims, Tensor._wrap(tensor.data.reshape(d, d)))


def _encode(arr: np.ndarray) -> list:
    """``arr`` as nested lists with a ``[real, imag]`` pair per component."""
    return np.stack([arr.real, arr.imag], -1).tolist()


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def save_state(state: StateData, path) -> None:
    """Write a StateData to ``path`` as JSON."""
    if state.kind not in ("pure", "density"):
        raise StateFileError(f"unknown kind {state.kind!r}")
    d = prod(state.dims)
    shape = (d,) if state.kind == "pure" else (d, d)
    data = _encode(state.tensor.data.reshape(shape))
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
        "bond_sigmas": [[float(x) for x in v] for v in chain.bond_sigmas],
    }
    _write_json(doc, path)


def _decode(entries, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_encode`: ``[real, imag]`` pairs to a complex array."""
    try:
        arr = np.array(entries, dtype=np.float64)
        if arr.shape != shape + (2,):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        size = " x ".join(map(str, shape))
        raise StateFileError(f"data is not {size} [real, imag] pairs") from None
    if not np.all(np.isfinite(arr)):
        raise StateFileError("data has non-finite components")
    return arr.view(np.complex128).reshape(shape)


def _is_dim(d) -> bool:
    if isinstance(d, float):
        return d.is_integer() and d >= 1
    return isinstance(d, int) and not isinstance(d, bool) and d >= 1


def load_state(path) -> StateData:
    """Read a StateData from ``path``.

    The file must be a JSON object whose ``dims`` are positive integers and
    whose ``data`` holds finite components.  A pure state must have unit
    norm; a density operator must be hermitian, positive semidefinite and
    of unit trace.  Anything else raises StateFileError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc

    if not isinstance(doc, dict):
        raise StateFileError(f"{path} does not hold a JSON object")
    for field in ("kind", "dims", "data"):
        if field not in doc:
            raise StateFileError(f"missing field {field!r} in {path}")
    kind = doc["kind"]
    if kind not in ("pure", "density"):
        raise StateFileError(f"unknown kind {kind!r}")
    for field in ("dims", "data"):
        if not isinstance(doc[field], list):
            raise StateFileError(f"field {field!r} is not a list in {path}")
    if not doc["dims"] or not all(_is_dim(d) for d in doc["dims"]):
        raise StateFileError(f"dims must be positive integers, got {doc['dims']!r}")
    dims = tuple(int(d) for d in doc["dims"])
    d = prod(dims)

    mat = _decode(doc["data"], (d,) if kind == "pure" else (d, d))
    if kind == "pure":
        norm2 = float(np.vdot(mat, mat).real)
        if abs(norm2 - 1.0) > TRACE_TOL:
            raise StateFileError(f"pure state has squared norm {norm2:.12g}, not 1")
        return StateData(kind, dims, Tensor._wrap(mat.reshape(dims)))

    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > HERMITICITY_TOL:
        raise StateFileError(f"density operator fails hermiticity by {herm:.3e}")
    low = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])
    if low < -PSD_TOL:
        raise StateFileError(f"density operator has negative eigenvalue {low:.3e}")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateFileError(f"density operator has trace {tr:.12g}, not 1")
    return StateData(kind, dims, Tensor._wrap(mat))


def crandn(shape, rng) -> np.ndarray:
    """Standard complex Gaussian samples (variance 1 per component)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_pure_state(dims: Sequence[int], seed=None) -> Tensor:
    """Normalized state with i.i.d. complex Gaussian components (Haar)."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ShapeError("dims must be nonempty")
    rng = np.random.default_rng(seed)
    vec = crandn(prod(dims), rng)
    vec /= np.linalg.norm(vec)
    return Tensor._wrap(vec.reshape(dims))


def random_local_unitary(dims: Sequence[int], seed=None) -> list[np.ndarray]:
    """One Haar-distributed unitary per subsystem, plus a shared U(1) phase.

    Each factor comes from the QR decomposition of a complex Gaussian
    matrix with the R diagonal phase fixed; the global phase is folded into
    the first factor.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ShapeError("dims must be nonempty")
    rng = np.random.default_rng(seed)
    out = []
    for d in dims:
        z = crandn((d, d), rng)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        out.append(q)
    phase = np.exp(2j * np.pi * rng.uniform())
    out[0] = out[0] * phase
    return out


def density_from_pure(state: Tensor) -> Tensor:
    """Outer product |psi><psi| as a square matrix over the full space."""
    vec = state.data.reshape(-1)
    return Tensor._wrap(np.outer(vec, vec.conj()))


def as_operator(rho, dims=None) -> np.ndarray:
    """The square matrix of an operator over the product space.

    ``rho`` is a density StateData, a Tensor or an array of any shape
    holding d * d components, where d is the product of ``dims`` (or, with
    ``dims`` absent, the square root of the size); a pure StateData raises
    ShapeError, since psi is never read as |psi><psi|.  The result is a view
    of the input's components whenever numpy can reshape without copying,
    and keeps their dtype, so real input is not converted to complex.
    """
    if isinstance(rho, StateData):
        if rho.kind != "density":
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
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = _checked_keep(keep, n)
    arr = as_operator(rho, dims).reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(arr, row + col, out)
    dk = prod(dims[i] for i in keep)
    return Tensor._wrap(reduced.reshape(dk, dk))


def bipartition_density(rho, dims: Sequence[int], keep: Sequence[int]):
    """Regroup a density operator into (kept block, complement block).

    Returns the same operator as a two-subsystem density matrix plus its
    block dimensions ``(d_keep, d_rest)``.  Used to evaluate bipartite
    invariant labels against a chosen cut of a many-body state.
    """
    dims = tuple(int(d) for d in dims)
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
    D = prod(dims).  Anything else is read by :func:`as_operator` and comes
    back as the Tensor U rho U^H = (U (U rho)^H)^H: two passes, O(n d D^2).
    """
    dims = tuple(int(d) for d in dims)
    if len(unitaries) != len(dims):
        raise ShapeError(f"{len(unitaries)} unitaries for {len(dims)} subsystems")
    for u, d in zip(unitaries, dims):
        if np.shape(u) != (d, d):
            raise ShapeError(f"unitary of shape {np.shape(u)} on a subsystem of dim {d}")
    full = prod(dims)

    def rows(mat):  # U mat, U applied one row leg at a time
        for s, u in enumerate(unitaries):
            mat = np.matmul(u, mat.reshape(prod(dims[:s]), dims[s], -1))
        return mat.reshape(full, -1)

    if isinstance(state, StateData) and state.kind == "pure":
        return StateData.pure(Tensor._wrap(rows(state.tensor.data)), dims)
    half = np.conjugate(rows(as_operator(state, dims)).T, order="C")  # (U rho)^H
    return Tensor._wrap(np.conjugate(rows(half).T, order="C"))
