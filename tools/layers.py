"""Time the invariant engine's layers and keep the figures in ``BENCH_layers.json``.

Run from the root of a checkout, with one BLAS thread for figures that
compare across runs::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/layers.py

times the ``tninv`` on ``PYTHONPATH`` alone.  To set a change beside its
parent, export the parent's package and time both trees in one process::

    git archive <parent> src/tninv | tar -x -C DIR
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/layers.py --against DIR/src/tninv

``--against`` copies that package to a temporary directory as
``tninv_parent`` and imports it beside ``tninv``; each tree keeps its own
label, program and load memos.  Two records made in two sessions judge the
sessions, not the code (Mytkowicz et al., ASPLOS 2009), so every round
calls each tree once, in an order flipped every round, and each entry
keeps the ratio change / parent of the two calls of one round.  A run
writes its whole record to ``--out`` (default ``BENCH_layers.json``).
``--quick`` times one small shape a layer with few repeats and, unless
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

Each runs once on each distinct slot of the benchmark's lu_verify jobs
(``bench/workloads.py``), on a rank-2 density drawn as those jobs draw
theirs, from a fixed seed.  ``verify_classes`` also runs 20 trials
over every k-class on a full-rank density and on a rank-2 one, the sizes
of an older row of the ROADMAP's table.  The factor path has four more,
on pure states of n qubits drawn from a fixed seed:

- ``mps_factor``: the sweep, exact at 12 to 16 qubits, and with
  ``max_chi`` 4 at 12 and 16 at 14;
- ``save_chain``: the file that ``factor --out`` writes of that sweep's
  chain, on the same shapes;
- ``mps_reconstruct+fidelity``: the dense rebuild and the overlap that
  ``factor`` reports, on the shapes of the benchmark's state_scale
  factor jobs;
- ``cli_factor``: a whole in-process ``factor --json`` through each
  tree's own ``cli.main``, stdout captured, on the same shapes.  ``read``
  says which read of its file it times: ``second``, with the load memo's
  entry set back to a first read's mark before each call (untimed), or
  ``hit``, from the third read on.

Each entry records the layer, the size, the number of rounds (``REPEATS``,
101), and for ``change`` (and ``parent``) the median and interquartile
range in seconds of its timed calls and the ``tracemalloc`` peak of one
more call after a collection; with ``--against``, ``ratio`` holds the
median and interquartile range of the per-round ratios.  The record holds
the Python, numpy and BLAS versions, the BLAS thread count and the CPU
count once, as ``environment``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter

import numpy as np

import tninv.cli

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import workloads  # noqa: E402  (bench/ is no package)

# (layer, dims, k, trials) of each distinct lu_verify slot, in the benchmark's order
LU_SHAPES = tuple(dict.fromkeys(
    ({"eval": "evaluate_many", "verify": "verify_classes"}[action], dims,
     workloads.DEGREE6_LABEL if k == "label" else k, trials)
    for action, dims, k, trials in workloads.LU_SLOTS))
# the table row that predates the stacked draw: 20 trials, every k-class
VERIFY_20 = (((2, 2, 2), 3), ((2, 2, 2, 2), 3), ((2,) * 6, 2), ((4, 4, 4), 2), ((8, 8), 3))
QUICK_SHAPES = (("evaluate_many", (2, 2, 2), 2, 0), ("verify_classes", (2, 2, 2), 2, 3))
# (qubits, max_chi) of the sweep's ladder, and of each distinct state_scale factor slot
FACTOR_SHAPES = ((12, None), (13, None), (14, None), (15, None), (16, None), (12, 4), (14, 16))
FACTOR_JOBS = tuple(dict.fromkeys((n, chi if isinstance(chi, int) else None)
                                  for command, n, chi in workloads.STATE_SLOTS if command == "factor"))
QUICK_FACTOR = ((10, None),)
SEED = 2024
REPEATS = 101  # timed rounds per entry; --quick takes 3


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


def spread(values) -> dict:
    """The median and interquartile range of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def measure(call, trees: list, repeats: int, setup=lambda tree: None) -> dict:
    """Time ``call(tree)`` on each tree of ``trees`` (the change's, then the parent's, if any).

    Each tree's call is made once, untimed; then every one of ``repeats``
    rounds times one call per tree, in an order flipped every round, with
    the cyclic collector paused as :func:`tninv.cli.main` pauses it.
    ``setup(tree)`` runs, untimed, before each call.  The tracemalloc peak
    of one more call is taken one tree at a time, after a collection, so
    CPython's free lists hand it no tuple that an earlier call freed unseen
    by tracemalloc.
    """
    for tree in trees:
        setup(tree)
        call(tree)
    order, times = list(range(len(trees))), [[] for _ in trees]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for i in order:
                setup(trees[i])
                start = perf_counter()
                call(trees[i])
                times[i].append(perf_counter() - start)
            order.reverse()
    finally:
        if enabled:
            gc.enable()
    entry = {"repeats": repeats}
    for name, tree, timed in zip(("change", "parent"), trees, times):
        setup(tree)
        gc.collect()
        tracemalloc.start()
        try:
            call(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry[name] = {**spread(timed), "peak_bytes": peak}
    if len(trees) == 2:
        entry["ratio"] = spread([change / parent for change, parent in zip(*times)])
    return entry


def full_density(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def cold(tree) -> None:
    """Empty the tree's label and program memos, so its next plan compiles every program.

    The collection also empties CPython's free lists, so each timed compile
    starts from them as the traced one does (see :func:`measure`).
    """
    tree.invariants._network.cache_clear()
    tree.invariants._program.cache_clear()
    gc.collect()


def labels(tree, dims, k) -> list:
    if isinstance(k, str):
        return [tree.invariants.parse_label(k)]
    return [c.representative for c in tree.invariants.enumerate_invariants(len(dims), k)]


def entries(trees: list, quick: bool, tmp: str) -> list[dict]:
    """One entry per (layer, size), in the order measured, on every tree of ``trees``."""
    rng, out, repeats = np.random.default_rng(SEED), [], 3 if quick else REPEATS

    def record(layer, size, call, setup=lambda t: None):
        out.append({"layer": layer, "size": size, **measure(call, trees, repeats, setup)})
        timed, ratio = out[-1]["change"], out[-1].get("ratio")
        print(f"{layer:24} {json.dumps(size)}  {timed['median'] * 1e3:.3f} ms (IQR {timed['iqr'] * 1e3:.3f})"
              + (f"  ratio {ratio['median']:.3f} (IQR {ratio['iqr']:.3f})" if ratio else ""), file=sys.stderr)

    def add(layer, dims, k, tuples, state, trials, call, setup=lambda t: None):
        size = {"dims": list(dims), "k": k, "labels": len(tuples[tninv]), "state": state, "trials": trials}
        record(layer, size, call, setup)

    for layer, dims, k, trials in QUICK_SHAPES if quick else LU_SHAPES:
        rho = workloads._rank2_density(rng, math.prod(dims))
        tuples = {t: labels(t, dims, k) for t in trees}
        if layer == "evaluate_many":
            for name, setup in (("plan", lambda t: None), ("plan_cold", cold)):
                add(name, dims, k, tuples, "operator", 0,
                    lambda t: t.invariants._plan(tuples[t], dims, False), setup)
            add(layer, dims, k, tuples, "rank-2 density", 0,
                lambda t: t.invariants.evaluate_many(tuples[t], rho, dims))
        else:
            add(layer, dims, k, tuples, "rank-2 density", trials,
                lambda t: t.invariants.verify_classes(tuples[t], rho, dims, trials=trials, seed=SEED))
    for dims, k in () if quick else VERIFY_20:
        tuples = {t: labels(t, dims, k) for t in trees}
        for state, rho in (("density", full_density(rng, math.prod(dims))),
                           ("rank-2 density", workloads._rank2_density(rng, math.prod(dims)))):
            add("verify_classes", dims, k, tuples, state, 20,
                lambda t: t.invariants.verify_classes(tuples[t], rho, dims, trials=20, seed=SEED))
    factor_entries(trees, record, quick, tmp)
    return out


def factor_entries(trees: list, record, quick: bool, tmp: str) -> None:
    """The factor path's layers, through ``record(layer, size, call, setup)``."""
    ladder, jobs = (QUICK_FACTOR, QUICK_FACTOR) if quick else (FACTOR_SHAPES, FACTOR_JOBS)
    psis = {t: {n: t.random_pure_state((2,) * n, seed=SEED + n) for n, _ in ladder + jobs} for t in trees}
    for n, chi in ladder:
        size = {"qubits": n, "max_chi": chi}
        record("mps_factor", size, lambda t: t.decompose.mps_factor(psis[t][n], chi))
        chains = {t: t.decompose.mps_factor(psis[t][n], chi) for t in trees}
        record("save_chain", size, lambda t: t.save_chain(chains[t], os.path.join(tmp, "chain.json")))
    for n, chi in jobs:
        size = {"qubits": n, "max_chi": chi}
        chains = {t: t.decompose.mps_factor(psis[t][n], chi) for t in trees}
        record("mps_reconstruct+fidelity", size,
               lambda t: t.decompose.fidelity(psis[t][n], t.decompose.mps_reconstruct(chains[t])))
        path = os.path.join(tmp, f"psi{n}_{chi}.json")
        tninv.save_state(tninv.StateData.pure(psis[tninv][n]), path)
        argv = ["factor", path, "--json"] + ([] if chi is None else ["--truncate-chi", str(chi)])

        def run(tree):
            with contextlib.redirect_stdout(io.StringIO()):
                assert tree.cli.main(argv) == 0

        record("cli_factor", {**size, "read": "second"}, run, lambda t: t.states._remember(path, None))
        # the last call above was a second read, so every read from here on is a hit
        record("cli_factor", {**size, "read": "hit"}, run)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR", help="a tninv package to time beside this one, as parent")
    parser.add_argument("--out", help="record to write (default BENCH_layers.json; - for stdout)")
    parser.add_argument("--quick", action="store_true", help="one small shape a layer, 3 repeats")
    args = parser.parse_args(argv)
    out = args.out or ("-" if args.quick else "BENCH_layers.json")
    trees = [tninv]
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            shutil.copytree(args.against, os.path.join(tmp, "tninv_parent"))
            sys.path.insert(0, tmp)
            importlib.import_module("tninv_parent.cli")
            trees.append(sys.modules["tninv_parent"])
        record = {"environment": environment(), "entries": entries(trees, args.quick, tmp)}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
