"""Time the invariant engine's layers and keep the figures in ``BENCH_layers.json``.

Run from the root of a checkout, with one BLAS thread for figures that
compare across runs::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/layers.py --tag change

``--tag`` names the code measured.  To set a change beside its parent,
run the script again straight after, on the same machine, with
``PYTHONPATH`` pointing at the parent's ``src`` and ``--tag parent``.  Each run replaces the entries
of its own tag in ``--out`` (default ``BENCH_layers.json``) and keeps the
rest.  ``--quick`` times one small shape a layer with few repeats and, unless
``--out`` is given, prints the record instead of writing it.

Every call is made once before it is timed, so each figure is warm: the
label and program memos hold its plan, except in ``plan_cold``.  The layers:

- ``plan``: ``invariants._plan`` over every degree-k class, operator route;
- ``plan_cold``: the same, with the label and program memos emptied and
  a collection run before each call (untimed), so its time is the compile
  and its ``peak_bytes`` the memory of the programs it compiles;
- ``evaluate_many``: the replay through :func:`tninv.evaluate_many`, as an
  ``invariants eval`` job makes it;
- ``verify_classes``: the replay through :func:`tninv.verify_classes`,
  with an ``invariants verify`` job's trials and a fixed seed.

Each runs on the shapes of the benchmark's lu_verify jobs, on a rank-2
density drawn from a fixed seed.  ``verify_classes`` also runs 20 trials
over every k-class on a full-rank density and on a rank-2 one, the sizes
of an older row of the ROADMAP's table.  The factor path has four more,
on pure states of n qubits drawn from a fixed seed:

- ``mps_factor``: the sweep, exact at 12 to 16 qubits, and with
  ``max_chi`` 4 at 12 and 16 at 14;
- ``mps_reconstruct+fidelity``: the dense rebuild and the overlap that
  ``factor`` reports, on the benchmark's state_scale factor shapes;
- ``save_chain``: the chain file that ``factor --out`` writes, on the same
  shapes;
- ``cli_factor``: a whole in-process ``factor --json`` through
  :func:`tninv.cli.main`, stdout captured, on the same shapes.  ``read``
  says which read of its file it times: ``second``, with the load memo's
  entry set back to a first read's mark before each call (untimed), or
  ``hit``, from the third read on.

Each entry records the layer, the size, the median and interquartile
range of ``REPEATS`` (101) timed calls, the ``tracemalloc`` peak of one
more call after a collection, and the Python, numpy and BLAS versions,
the BLAS thread count and the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import glob
import io
import json
import math
import os
import platform
import statistics
import sys
import time
import tempfile
import tracemalloc

import numpy as np

from tninv import StateData, cli, decompose, invariants, random_pure_state, save_chain, save_state, states

# (layer, dims, k, trials) in the benchmark's lu_verify order; a degree-6
# label stands for the one job that names its label
LU_SHAPES = (
    ("evaluate_many", (2, 2, 2), 2, 0),
    ("evaluate_many", (2, 2, 2), 3, 0),
    ("evaluate_many", (2, 2, 2, 2), 2, 0),
    ("evaluate_many", (2, 2, 2, 2), 3, 0),
    ("evaluate_many", (2,) * 6, 2, 0),
    ("evaluate_many", (3, 3, 3), 2, 0),
    ("evaluate_many", (3, 3, 3), 3, 0),
    ("evaluate_many", (4, 4, 4), 2, 0),
    ("evaluate_many", (4, 4, 4), 3, 0),
    ("evaluate_many", (8, 8), 2, 0),
    ("evaluate_many", (8, 8), 3, 0),
    ("evaluate_many", (8, 8), "6; (123456) | (12)(34)(56)", 0),
    ("verify_classes", (2, 2, 2), 3, 6),
    ("verify_classes", (2, 2, 2, 2), 2, 6),
    ("verify_classes", (2, 2, 2, 2), 3, 2),
    ("verify_classes", (3, 3, 3), 3, 6),
    ("verify_classes", (4, 4, 4), 2, 6),
    ("verify_classes", (4, 4, 4), 3, 3),
    ("verify_classes", (8, 8), 3, 6),
    ("verify_classes", (2,) * 6, 2, 4),
)
# the table row that predates the stacked draw: 20 trials, every k-class
VERIFY_20 = (((2, 2, 2), 3), ((2, 2, 2, 2), 3), ((2,) * 6, 2), ((4, 4, 4), 2), ((8, 8), 3))
QUICK_SHAPES = (("evaluate_many", (2, 2, 2), 2, 0), ("verify_classes", (2, 2, 2), 2, 3))
# (qubits, max_chi) of the sweep's ladder, and of the benchmark's state_scale factor jobs
FACTOR_SHAPES = ((12, None), (13, None), (14, None), (15, None), (16, None), (12, 4), (14, 16))
FACTOR_JOBS = ((12, 4), (13, None), (14, None), (14, 16))
QUICK_FACTOR = ((10, None),)
SEED = 2024
REPEATS = 101  # timed calls per entry; --quick takes 3


def environment() -> dict:
    """The versions and thread counts a figure depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpus": os.cpu_count(),
    }


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy's wheel bundles, or None if it is not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def measure(call, repeats: int, setup=lambda: None) -> dict:
    """Median and IQR of ``repeats`` warm calls, and the tracemalloc peak of one more.

    ``setup`` runs, untimed, before each call.  A collection runs before
    the traced call, so CPython's free lists hand it no tuple that an
    earlier call freed unseen by tracemalloc.
    """
    setup()
    call()
    times = []
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    setup()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"repeats": repeats, "median_s": median, "iqr_s": q3 - q1, "peak_bytes": peak}


def rank2_density(rng, dim: int) -> np.ndarray:
    """w |u><u| + (1 - w) |v><v| for two Gaussian vectors, as lu_verify's files hold."""
    u, v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2))
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    w = rng.uniform(0.2, 0.8)
    rho = w * np.outer(u, u.conj()) + (1 - w) * np.outer(v, v.conj())
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def full_density(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def cold() -> None:
    """Empty the label and program memos, so the next plan compiles every program.

    The collection also empties CPython's free lists, so each timed compile
    starts from them as the traced one does (see :func:`measure`).
    """
    invariants._network.cache_clear()
    invariants._program.cache_clear()
    gc.collect()


def labels(dims, k) -> list:
    if isinstance(k, str):
        return [invariants.parse_label(k)]
    return [c.representative for c in invariants.enumerate_invariants(len(dims), k)]


def entries(quick: bool, repeats: int) -> list[dict]:
    """One entry per (layer, size), in the order measured."""
    rng, out = np.random.default_rng(SEED), []

    def record(layer, size, call, setup=lambda: None):
        out.append({"layer": layer, "size": size, **measure(call, repeats, setup)})
        print(f"{layer:24} {json.dumps(size)}  {out[-1]['median_s'] * 1e3:.3f} ms "
              f"(IQR {out[-1]['iqr_s'] * 1e3:.3f})", file=sys.stderr)

    def add(layer, dims, k, tuples, state, trials, call, setup=lambda: None):
        size = {"dims": list(dims), "k": k, "labels": len(tuples), "state": state, "trials": trials}
        record(layer, size, call, setup)

    for layer, dims, k, trials in QUICK_SHAPES if quick else LU_SHAPES:
        rho, tuples = rank2_density(rng, math.prod(dims)), labels(dims, k)
        if layer == "evaluate_many":
            plan = functools.partial(invariants._plan, tuples, dims, False)
            add("plan", dims, k, tuples, "operator", 0, plan)
            add("plan_cold", dims, k, tuples, "operator", 0, plan, cold)
            add(layer, dims, k, tuples, "rank-2 density", 0,
                lambda: invariants.evaluate_many(tuples, rho, dims))
        else:
            add(layer, dims, k, tuples, "rank-2 density", trials,
                lambda: invariants.verify_classes(tuples, rho, dims, trials=trials, seed=SEED))
    for dims, k in () if quick else VERIFY_20:
        tuples = labels(dims, k)
        for state, rho in (("density", full_density(rng, math.prod(dims))),
                           ("rank-2 density", rank2_density(rng, math.prod(dims)))):
            add("verify_classes", dims, k, tuples, state, 20,
                lambda: invariants.verify_classes(tuples, rho, dims, trials=20, seed=SEED))
    with tempfile.TemporaryDirectory() as tmp:
        factor_entries(record, quick, tmp)
    return out


def factor_entries(record, quick: bool, tmp: str) -> None:
    """The factor path's layers, through ``record(layer, size, call, setup)``."""
    ladder, jobs = (QUICK_FACTOR, QUICK_FACTOR) if quick else (FACTOR_SHAPES, FACTOR_JOBS)
    psis = {n: random_pure_state((2,) * n, seed=SEED + n) for n, _ in ladder + jobs}
    for n, chi in ladder:
        record("mps_factor", {"qubits": n, "max_chi": chi}, lambda: decompose.mps_factor(psis[n], chi))
    for n, chi in jobs:
        chain, size = decompose.mps_factor(psis[n], chi), {"qubits": n, "max_chi": chi}
        record("mps_reconstruct+fidelity", size,
               lambda: decompose.fidelity(psis[n], decompose.mps_reconstruct(chain)))
        record("save_chain", size, lambda: save_chain(chain, os.path.join(tmp, "chain.json")))
        path = os.path.join(tmp, f"psi{n}_{chi}.json")
        save_state(StateData.pure(psis[n]), path)
        argv = ["factor", path, "--json"] + ([] if chi is None else ["--truncate-chi", str(chi)])

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        record("cli_factor", {**size, "read": "second"}, run, lambda: states._remember(path, None))
        # the last call above was a second read, so every read from here on is a hit
        record("cli_factor", {**size, "read": "hit"}, run)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", default="change", help="name of the code measured (default change)")
    parser.add_argument("--out", help="record to update (default BENCH_layers.json; - for stdout)")
    parser.add_argument("--quick", action="store_true", help="one small shape a layer, 3 repeats")
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else REPEATS
    out = args.out or ("-" if args.quick else "BENCH_layers.json")
    env = environment()
    fresh = [{"tag": args.tag, **entry, **env} for entry in entries(args.quick, repeats)]
    record = {"entries": []}
    if out != "-" and os.path.exists(out):
        with open(out) as f:
            record = json.load(f)
    record["entries"] = [e for e in record["entries"] if e["tag"] != args.tag] + fresh
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
