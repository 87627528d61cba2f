"""Machine-speed probes: fixed work, independent of tninv, timed next to every job.

A small shared machine can change speed by a factor of up to about 1.8,
from one tenth of a second to the next as well as over tens of seconds, in
CPU time as well as wall time.  Raw job times of one program then spread
too widely from run to run to bound a regression.
The benchmark times a probe after every job.  A job's slowdown is the median
of the probe times nearest to it divided by the probe's reference time, and
its time at reference speed is its wall time divided by that slowdown.

Each workload has the probe whose work is most like its own, so that both
slow down alike: ``SMALL`` mixes Python tuple and dict work, a small complex
SVD, small tensor contractions and JSON parsing, all in the core's own cache;
``LARGE`` streams arrays of 16 MB (larger than a core's cache, so they
compete for the shared cache and memory as the density operators of
``state_scale`` do) and adds a Hermitian eigensolve, an SVD and a larger
JSON parse.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Probes on each side of a job's own probe that set its slowdown.  Speed
# changes within tenths of a second, so only the nearest probes count.
WINDOW = 1

_rng = np.random.default_rng(2024)
_PERMS = list(itertools.permutations(range(5)))
_MATRIX = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_TENSOR = _rng.standard_normal((2,) * 8) + 1j * _rng.standard_normal((2,) * 8)
_TEXT = json.dumps(_rng.standard_normal((400, 2)).tolist())
_VECTOR = _rng.standard_normal(1024) + 1j * _rng.standard_normal(1024)
_HERMITIAN = _rng.standard_normal((192, 192))
_HERMITIAN = _HERMITIAN + _HERMITIAN.T
_SQUARE = _rng.standard_normal((128, 128))
_LONG_TEXT = json.dumps(_rng.standard_normal((2000, 2)).tolist())


def _small_work():
    counts: dict = {}
    for p in _PERMS:
        for q in _PERMS[:7]:
            r = tuple(p[i] for i in q)
            counts[r] = counts.get(r, 0) + 1
    np.linalg.svd(_MATRIX, compute_uv=False)
    for _ in range(20):
        np.tensordot(_TENSOR, _TENSOR.conj(), axes=([0, 1, 2, 3], [0, 1, 2, 3]))
    json.loads(_TEXT)


def _large_work():
    rho = np.outer(_VECTOR, _VECTOR.conj())
    rho.reshape(32, 32, 32, 32).transpose(1, 0, 3, 2).copy()
    np.linalg.eigvalsh(_HERMITIAN)
    np.linalg.svd(_SQUARE, compute_uv=False)
    json.loads(_LONG_TEXT)


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    reference_s: float  # median time on a quiet 2-CPU x86-64 machine

    def __call__(self) -> float:
        """Seconds the work takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def slowdowns(self, samples, window=WINDOW):
        """Slowdown at each probe: the median of the probes within ``window``."""
        out = []
        for i in range(len(samples)):
            near = samples[max(0, i - window): i + window + 1]
            out.append(statistics.median(near) / self.reference_s)
        return out


SMALL = Probe(_small_work, 0.0030)
LARGE = Probe(_large_work, 0.0200)
PROBES = {"catalog": SMALL, "lu_verify": SMALL, "state_scale": LARGE}


class Laps:
    """Wall times of stretches of work, each followed by a probe.

    ``start`` begins a stretch and ``lap`` ends it; the probe is not part
    of any stretch.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.walls: list[float] = []
        self.probes: list[float] = []
        self._start = time.perf_counter()

    def start(self):
        self._start = time.perf_counter()

    def lap(self):
        self.walls.append(time.perf_counter() - self._start)
        self.probes.append(self.probe())
        self._start = time.perf_counter()

    def scaled(self) -> list[float]:
        """Each stretch's time at reference speed."""
        return [w / s for w, s in zip(self.walls, self.probe.slowdowns(self.probes))]
