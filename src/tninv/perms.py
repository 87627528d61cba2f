"""Permutations of {0..k-1} as tuples in one-line notation.

``p[i]`` is the image of ``i``.  The text form used by labels and the CLI
is 1-based cycle notation, e.g. ``(123)`` for the 3-cycle and ``e`` for the
identity.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

MAX_DEGREE = 6  # k=6 conjugation table: 720^2 int16, 1 MB, plus 0.3 MB of lead and masks; ~70 ms


def identity_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def compose(p, q) -> tuple[int, ...]:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def all_perms(k: int) -> list[tuple[int, ...]]:
    """All of S_k in lexicographic order of one-line notation."""
    return list(itertools.permutations(range(k)))


@functools.lru_cache(maxsize=MAX_DEGREE)
def conjugation_table(k: int) -> tuple[tuple, dict, np.ndarray, tuple, tuple]:
    """S_k, and S_k acting on itself by conjugation, as positions in it.

    The one listing of S_k: ``sk`` is ``all_perms(k)`` as a tuple, and
    ``index[p]`` is the position of p in it.  The int16 array ``conj[t, p]``
    holds the position of t p t^{-1}.  Positions sort like the permutations,
    so a minimum over positions is one over S_k.  ``inverting[p]`` is a
    Python int whose bit t is set iff t p t^{-1} = p^{-1}: the relabellings
    that invert p, one coset of p's centraliser (73 KB in all at k = 6).
    ``lead[p]`` holds, in ascending order, the positions t whose ``conj[t, p]``
    is the least of column p: the relabellings that send p to the least
    element of its conjugacy class, another coset of that centraliser.  Their
    sizes sum to k! times the number of partitions of k, 7920 at k = 6
    (11 a position on average; 720 for the identity).
    """
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"degree k={k} outside supported range 1..{MAX_DEGREE}")
    listed = tuple(all_perms(k))
    sk = np.array(listed, dtype=np.int16)
    sk_inv = np.argsort(sk, axis=1)  # the argsort of a permutation is its inverse
    weights = k ** np.arange(k - 1, -1, -1)
    keys = sk @ weights  # base-k codes, ascending like sk
    conj = np.empty((len(sk), len(sk)), dtype=np.int16)
    for t, tau in enumerate(sk):  # (t p t^{-1})[j] = t[p[t^{-1}[j]]]
        conj[t] = np.searchsorted(keys, tau[sk[:, sk_inv[t]]] @ weights)
    inv = np.searchsorted(keys, sk_inv @ weights)
    # Row p of the packed transposed mask is bit t of inverting[p], little-endian.
    packed = np.packbits(conj.T == inv[:, None], axis=1, bitorder="little")
    inverting = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    # Row-major nonzero of the transposed mask lists each column's minimisers
    # in order; the mask is dropped once they are read off.
    cols, rows = np.nonzero(conj.T == conj.min(axis=0)[:, None])
    lead = tuple(np.split(rows, np.cumsum(np.bincount(cols, minlength=len(sk)))[:-1]))
    return listed, {p: i for i, p in enumerate(listed)}, conj, inverting, lead


def cycles(p) -> list[tuple[int, ...]]:
    """Cycle decomposition; every cycle starts at its smallest point.

    Fixed points are omitted.  Cycles are sorted by decreasing length, ties
    by smallest point.  Raises ValueError when ``p`` is not a permutation of
    0..len(p)-1.
    """
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            if not 0 <= x < len(p) or seen[x]:  # the walk would never close
                raise ValueError(f"{tuple(p)} is not a permutation of 0..{len(p) - 1}")
            seen[x] = True
            cyc.append(x)
            x = p[x]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    out.sort(key=lambda c: (-len(c), c[0]))
    return out


def from_cycles(k: int, cycs) -> tuple[int, ...]:
    """The permutation of 0..k-1 with the given cycles, each a sequence of points.

    Raises ValueError for an empty cycle, a point outside 0..k-1, or a point
    repeated within or across cycles.
    """
    out, seen = list(range(k)), set()
    for cyc in cycs:
        if not cyc:
            raise ValueError("empty cycle")
        for a, b in zip(cyc, (*cyc[1:], cyc[0])):
            if not 0 <= a < k:
                raise ValueError(f"point {a} of cycle {tuple(cyc)} out of range 0..{k - 1}")
            if a in seen:
                raise ValueError(f"point {a} of cycle {tuple(cyc)} is repeated")
            seen.add(a)
            out[a] = b
    return tuple(out)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, k: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation, or ``e`` for the identity.

    Points inside a cycle may be separated by spaces or commas; without
    separators each digit is one point (fine for k <= 9).
    """
    text = text.strip()
    if text == "e":
        return identity_perm(k)
    if not text or text.replace(" ", "").count("(") == 0:
        raise ValueError(f"cannot parse permutation {text!r}")
    rest = text
    cycs = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).strip()
        if re.search(r"[,\s]", body):
            points = [s for s in re.split(r"[,\s]+", body) if s]
        else:
            points = list(body)
        if not points:
            raise ValueError(f"empty cycle {m.group(0)!r} in {text!r}")
        try:
            cyc = tuple(int(s) - 1 for s in points)
        except ValueError:
            raise ValueError(f"bad cycle {m.group(0)!r} in {text!r}") from None
        cycs.append(cyc)
        rest = rest.replace(m.group(0), "", 1)
    if rest.strip():
        raise ValueError(f"trailing junk {rest.strip()!r} in permutation {text!r}")
    try:
        return from_cycles(k, cycs)
    except ValueError as exc:  # its points count from 0, the text's from 1
        raise ValueError(
            f"{text!r} is not a permutation of 1..{k}: a point repeats or is out of range"
        ) from exc


# S_1 to S_6, the degrees that enumeration reaches, have 873 elements.
@functools.lru_cache(maxsize=1024)
def format_perm(p: tuple[int, ...]) -> str:
    """1-based cycle notation; ``e`` for the identity.

    Memoised per permutation tuple; labels reach degree ``MAX_LABELS`` (52)
    in ``tninv.invariants``, so the memo is bounded.
    """
    cycs = cycles(p)
    if not cycs:
        return "e"
    sep = "" if len(p) <= 9 else " "
    return "".join("(" + sep.join(str(x + 1) for x in c) + ")" for c in cycs)
