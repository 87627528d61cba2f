"""Dense complex tensors and the leg grouping that bends them into matrices.

A tensor is a dense complex array with an ordered tuple of legs.  Values
are read-only; operations return new tensors, so values can be shared
freely between threads.  Invariant networks are contracted by compiled
programs of matrix products; see :func:`tninv.invariants.evaluate_fast`.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when leg counts or dimensions do not line up."""


class Tensor:
    """Dense complex tensor with an ordered tuple of legs.

    Attributes
    ----------
    data : np.ndarray
        Complex components, row-major in leg order.  Read-only.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128, order="C")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"leg dimensions must be positive, got {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal fast path: takes ownership of a freshly built array
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.complex128, order="C")
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
        t._data = arr
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dims(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def nlegs(self) -> int:
        return self._data.ndim

    def __repr__(self):
        return f"Tensor(dims={self.dims})"


def group_legs(a, split: tuple[Sequence[int], Sequence[int]]) -> Tensor:
    """Fuse the legs of ``a`` (a Tensor or an array) into at most two fat legs.

    ``split`` is a pair of ordered leg groups that together cover every leg
    exactly once.  The result has one leg per non-empty group, of dimension
    equal to the product of the group's dimensions; components follow
    row-major index arithmetic within each group, so reshaping to the
    moved legs' dimensions undoes it.  Every two-way cut in tninv bends here.
    """
    arr = a.data if isinstance(a, Tensor) else np.asarray(a)
    g1, g2 = [list(g) for g in split]
    if sorted(g1 + g2) != list(range(arr.ndim)):
        raise ShapeError(f"split {split} is not a partition of {arr.ndim} legs")
    moved = np.transpose(arr, g1 + g2)
    shape = tuple(prod(arr.shape[i] for i in g) for g in (g1, g2) if g)
    return Tensor._wrap(moved.reshape(shape))
