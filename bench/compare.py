"""Compare a parent and a changed checkout on the benchmark.

    python3 bench/compare.py --parent ../parent --change . [--pairs 10]

Both checkouts are run with this benchmark's code (``bench/run.py`` next
to this file), with ``src/`` taken from each checkout, in alternating
pairs: pair i uses seed ``--seed + i`` on both sides and runs the parent
first when i is even.  For every workload and end-to-end metric in
``BENCHMARK.json`` it reports each side's median and quartiles, the share
of pairs the change won (ties count for neither), whether the medians
differ by more than the parent's interquartile range, and a verdict:

- ``gain``: the change won at least 90% of the pairs and its median is
  better by more than the parent's spread;
- ``unresolved``: the run-to-run spread (IQR / median, either side) is
  wider than the metric's bound, unless every change run beat every
  parent run;
- ``regression``: the change's median is worse by more than the bound;
- ``within bound`` otherwise.

A gain does not count when the change failed more jobs than the parent;
it is then reported as ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
MIN_PAIRS = 10


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def judge(metric, parent, change):
    """Verdict for one metric on one workload from paired runs."""
    sign = 1 if metric["better"] == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    spread = max((p["q3"] - p["q1"]) / p["median"], (c["q3"] - c["q1"]) / c["median"])
    differs = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    better = sign * (c["median"] - p["median"]) > 0
    worse_by = -sign * (c["median"] - p["median"]) / p["median"]
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if wins >= 0.9 * len(parent) and differs and better:
        verdict = "gain"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "parent": p, "change": c, "won_share": wins / len(parent),
        "medians_differ_beyond_parent_iqr": differs, "spread": spread,
        "bound": metric["bound"], "change_vs_parent": (c["median"] - p["median"]) / p["median"],
        "verdict": verdict,
    }


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="Alternating-pair comparison of two checkouts.")
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", default=None, help="also write the report as JSON here")
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metrics = spec["end_to_end"]
    report = {"pairs": args.pairs, "seconds": args.seconds, "checkouts": sides,
              "environment": {}, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        failed = {side: 0 for side in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                doc, last = run_once(sides[side], workload, args.seed + i, args.seconds)
                report["environment"].setdefault(side, doc["environment"])
                failed[side] += last["failed"]
                for m in metrics:
                    values[side][m["name"]].append(last["metrics"][m["name"]]["value"])
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        verdicts = {
            m["name"]: judge(m, values["parent"][m["name"]], values["change"][m["name"]])
            for m in metrics
        }
        if failed["change"] > failed["parent"]:
            for v in verdicts.values():
                if v["verdict"] == "gain":
                    v["verdict"] = "unresolved"
        report["workloads"][workload] = {"failed_jobs": failed, "metrics": verdicts, "runs": values}

    names = [m["name"] for m in metrics]
    print("workload".ljust(13) + "".join(n.rjust(26) for n in names) + "   failed p/c")
    for workload, row in report["workloads"].items():
        cells = [
            f"{row['metrics'][n]['verdict']} {100 * row['metrics'][n]['change_vs_parent']:+.1f}%"
            for n in names
        ]
        f = row["failed_jobs"]
        print(workload.ljust(13) + "".join(c.rjust(26) for c in cells) + f"   {f['parent']}/{f['change']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
