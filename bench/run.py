"""Closed-loop benchmark of the tninv CLI and library.

Run from the root of a checkout::

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # table of every workload

One client in one process calls ``tninv.cli.main(argv)`` (stdout captured)
and public library functions on inputs generated from ``--seed``.  The
program is imported from ``src/`` of the current directory.  A run builds
its job list, input files and reference answers (set-up, repeated
``SETUP_REPEATS`` times), runs one untimed warm-up round, then the timed
rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports per-layer metrics plus the tracing overhead.  Outputs
are checked against the references after each round, outside timing.

Every time metric is given at reference machine speed: each job, and each
round built in set-up, is timed next to a fixed probe of ``speed.py`` and
its wall time divided by the probe's slowdown, so that drift in the
machine's speed during and between runs cancels.  The wall-clock values are
in the result document under ``wall``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full result document, which is also written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread: the matrices are small

import numpy as np  # noqa: E402  (after the thread settings)

import speed  # noqa: E402

WORKLOAD_NAMES = ("catalog", "lu_verify", "state_scale")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
# fail_frac is reported in the result document and the table, not in the
# last line: it is 0 on a correct program.
FAIL_FRAC_UNIT = "ratio"

_FUNCTIONS = {
    "perms": ("conjugate.calls", "inverse.calls"),
    "invariants": (
        "enumerate_invariants.calls", "enumerate_invariants.self_s",
        "is_real_guaranteed.calls", "is_real_guaranteed.self_s",
        "canonicalize.calls", "canonicalize.self_s",
        "evaluate_fast.calls", "evaluate_fast.self_s",
        "max_unitary_deviation.self_s", "parse_label.self_s",
    ),
    "tensor": (
        "contract.calls", "contract.self_s", "contract.bytes_out", "contract.flops",
        "self_trace.calls", "self_trace.self_s", "self_trace.bytes_out",
    ),
    "states": (
        "load_state.calls", "load_state.self_s", "load_state.bytes_in",
        "density_from_pure.calls", "density_from_pure.self_s", "density_from_pure.bytes_out",
        "partial_trace.self_s", "bipartition_density.self_s", "bipartition_density.bytes_out",
        "apply_local_unitary.calls", "apply_local_unitary.self_s",
        "random_local_unitary.calls", "random_local_unitary.self_s",
    ),
    "decompose": ("mps_factor.calls", "mps_factor.self_s", "mps_reconstruct.self_s", "fidelity.self_s"),
    "entropy": (
        "Spectrum.from_density.self_s", "renyi.calls", "von_neumann.self_s",
        "renyi_from_invariant.calls",
    ),
    "cli": (
        "main.calls", "main.self_s", "cmd_factor.self_s", "cmd_invariants.self_s",
        "cmd_entropy.self_s", "CommandResult.render.self_s",
    ),
}


def _unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".bytes_out", ".bytes_in", ".bytes")):
        return "bytes"
    if name.endswith(".flops"):
        return "flop"
    return "count"


PER_LAYER = {}
for _layer, _names in _FUNCTIONS.items():
    for _n in _names:
        PER_LAYER[f"{_layer}.{_n}"] = _unit(_n)
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.errors"] = "count"
PER_LAYER["invariants.enumerate.orbit_hit_ratio"] = "ratio"
PER_LAYER["cli.stdout.bytes"] = "bytes"
PER_LAYER["cli.chain_out.bytes"] = "bytes"
PER_LAYER["trace.overhead_frac"] = "ratio"


# ------------------------------------------------------------- environment


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return None


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, seed, jobs, tail_percentile):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "jobs_per_run": jobs,
        "job_tail_percentile": tail_percentile,
    }


# ----------------------------------------------------------------- running


def run_jobs(jobs, probe, tracer=None):
    """Run jobs back to back with a speed probe after each.

    Returns [(job, wall seconds, seconds at reference speed, output, error)].
    """
    outputs, laps = [], speed.Laps(probe)
    gc.collect()
    for job in jobs:
        if tracer is not None:
            tracer.job += 1
        laps.start()
        try:
            out, err = job.run(), None
        except Exception:  # a job that raises is a failed job, not a crash
            out, err = None, traceback.format_exc(limit=3)
        laps.lap()
        outputs.append((out, err))
    return [
        (job, wall, t, out, err)
        for job, wall, t, (out, err) in zip(jobs, laps.walls, laps.scaled(), outputs)
    ]


def timed_setup(args, probe, base):
    """Import tninv and build the plan SETUP_REPEATS times, with a speed
    probe after the import and after each round built.

    Returns the last plan, the number of timed rounds, the set-up time at
    reference speed and the set-up entry of the result document.
    """
    probe()  # the first call pays for lazy set-up in numpy
    laps = speed.Laps(probe)
    import tninv  # noqa: F401

    laps.lap()
    import workloads

    _, seconds_per_round = workloads.WORKLOADS[args.workload]
    step = 2 if args.trace else 1  # a traced run splits its time in two
    nrounds = max(1, round(args.seconds / seconds_per_round / step))
    ends = []  # index of the last lap of each build
    for rep in range(SETUP_REPEATS):
        workdir = os.path.join(base, f"setup{rep}")
        os.makedirs(workdir)
        laps.start()
        plan = workloads.build(args.workload, args.seed, 1 + nrounds * step, workdir, laps.lap)
        ends.append(len(laps.walls))
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(workdir)
    scaled = laps.scaled()
    builds = [sum(scaled[a:b]) for a, b in zip([1, *ends], ends)]
    wall_builds = [sum(laps.walls[a:b]) for a, b in zip([1, *ends], ends)]
    setup_s = scaled[0] + statistics.median(builds)
    doc = {
        "import_s": scaled[0],
        "build_s": builds,
        "wall_s": laps.walls[0] + statistics.median(wall_builds),
    }
    return plan, nrounds, setup_s, doc


def check_results(results):
    failures = []
    for job, _, _, out, err in results:
        if err is None:
            try:
                err = job.check(out)
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=3)
        if err is not None:
            failures.append({"job": job.kind, "reason": err})
    return failures


def tail(times):
    """Highest grid percentile with at least ten samples beyond it."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            break
    value = float(np.percentile(times, p))
    return p, value, sum(t > value for t in times)


def run_workload(args):
    root = os.getcwd()
    step = 2 if args.trace else 1
    probe = speed.PROBES[args.workload]
    base = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        plan, nrounds, setup_s, setup_doc = timed_setup(args, probe, base)
        import tracing

        # The plan lives for the whole run; freezing it keeps the collector
        # from rescanning it.  Outputs are checked after each round and then
        # dropped, so the heap does not grow with the run.
        gc.collect()
        gc.freeze()
        failures = check_results(run_jobs(plan.rounds[0], probe))
        # With tracing, untraced and traced rounds alternate, so a change in
        # machine speed during the run affects both sides of the overhead.
        tracer = tracing.Tracer() if args.trace else None
        timed, traced = [], []
        for i in range(nrounds):
            res = run_jobs(plan.rounds[1 + step * i], probe)
            timed += [(job.kind, wall, t) for job, wall, t, _, _ in res]
            failures += check_results(res)
            if tracer:
                tracer.install()
                try:
                    res = run_jobs(plan.rounds[2 + step * i], probe, tracer)
                finally:
                    tracer.uninstall()
                _count_outputs(tracer, res)
                traced += [t for _, _, t, _, _ in res]
                failures += check_results(res)
        trace_doc = None
        if tracer:
            jps = len(timed) / sum(t for _, _, t in timed)
            trace_doc = _trace_results(args, root, tracer, jps, len(traced) / sum(traced))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    times = [t for _, _, t in timed]
    walls = [w for _, w, _ in timed]
    pct, tail_value, beyond = tail(times)
    attempted, failed = sum(len(r) for r in plan.rounds), len(failures)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": float(np.median(times)),
        "job_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_metrics = {
        "setup_s": setup_doc["wall_s"],
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": float(np.median(walls)),
        "job_tail_s": float(np.percentile(walls, pct)),
    }
    slowdown = [w / t for _, w, t in timed]
    by_kind = {}
    for kind, _, t in timed:
        by_kind.setdefault(kind, []).append(t)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed, len(times), pct),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "fail_frac": {"value": failed / attempted, "unit": FAIL_FRAC_UNIT},
        "job_tail": {"percentile": pct, "samples": len(times), "beyond": beyond},
        "rounds": {"warmup": 1, "timed": nrounds, "jobs_per_round": len(plan.rounds[0])},
        "repeated_share": plan.repeated_share,
        "input_bytes": plan.input_bytes,
        "setup": setup_doc,
        "wall": wall_metrics,
        "slowdown": dict(zip(("q1", "median", "q3"), statistics.quantiles(slowdown, n=4))),
        "probe_reference_s": probe.reference_s,
        "by_kind": {
            k: {"jobs": len(v), "median_s": float(np.median(v))} for k, v in sorted(by_kind.items())
        },
        "failures": failures[:20],
        "traced": trace_doc,
    }
    if args.trace:
        final = {k: {"value": trace_doc["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        final = doc["metrics"]
    os.makedirs(os.path.join(root, RESULTS_DIR), exist_ok=True)
    with open(_result_path(root, args), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  {len(times)} timed jobs in {sum(walls):.2f} s"
          f" (median slowdown {doc['slowdown']['median']:.3f})")
    for k, v in doc["metrics"].items():
        wall = f"  (wall {wall_metrics[k]:.6g})" if k in wall_metrics else ""
        print(f"  {k:12s} {v['value']:.6g} {v['unit']}{wall}")
    print(f"  {'fail_frac':12s} {failed / attempted:.6g} {FAIL_FRAC_UNIT}  ({failed} of {attempted})")
    print(f"  job_tail_s is p{pct:g} of {len(times)} jobs ({beyond} beyond)")
    if trace_doc:
        print(f"  tracing overhead {trace_doc['per_layer']['trace.overhead_frac']:.3f} of jobs_per_s")
    for f in failures[:5]:
        print(f"  FAILED {f['job']}: {f['reason']}")
    print(json.dumps(doc))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


def _result_path(root, args, suffix="json"):
    return os.path.join(
        root, RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.{suffix}"
    )


def _count_outputs(tracer, results):
    """Add the bytes a traced round printed and wrote as chain files."""
    for job, _, _, out, _ in results:
        if hasattr(out, "stdout"):  # library jobs print nothing
            tracer.counts["cli.stdout.bytes"] += len(out.stdout.encode())
        if job.chain_out and os.path.exists(job.chain_out):
            tracer.counts["cli.chain_out.bytes"] += os.path.getsize(job.chain_out)


def _trace_results(args, root, tracer, jps, traced_jps):
    layer = tracer.layer_metrics()
    layer["trace.overhead_frac"] = 1 - traced_jps / jps
    spans_path = _result_path(root, args, "spans.jsonl")
    tracer.dump(spans_path)
    return {
        "untraced_jobs_per_s": jps,
        "traced_jobs_per_s": traced_jps,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, root),
        "per_layer": {k: layer.get(k, 0) for k in PER_LAYER},
        "all_functions": dict(sorted(layer.items())),
    }


# --------------------------------------------------------------- all table


def run_all(args):
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        rows.append(json.loads(lines[-2]))
    header = [f"{k} [{u}]" for k, u in END_TO_END.items()] + [f"fail_frac [{FAIL_FRAC_UNIT}]", "tail pct/n"]
    if args.trace:
        header.append("trace overhead")
    print("workload".ljust(12) + "".join(h.rjust(20) for h in header))
    for doc in rows:
        cells = [f"{doc['metrics'][k]['value']:.5g}" for k in END_TO_END]
        cells.append(f"{doc['fail_frac']['value']:.3g}")
        cells.append(f"p{doc['job_tail']['percentile']:g}/{doc['job_tail']['samples']}")
        if args.trace:
            cells.append(f"{doc['traced']['per_layer']['trace.overhead_frac']:.3f}")
        print(doc["workload"].ljust(12) + "".join(c.rjust(20) for c in cells))
    if rows:
        print("environment: " + json.dumps(rows[0]["environment"]))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tninv", "__init__.py")):
        print(f"error: no tninv sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
