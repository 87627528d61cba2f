"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 -m pytest bench/tests -q        # from the root of a checkout

Each workload runs for one round, untraced and traced.  The untraced run
must emit every end-to-end metric named in BENCHMARK.json with its unit and
no failed job; the traced run must emit every per-layer metric.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, doc_line, last_line = proc.stdout.splitlines()
        doc, last = json.loads(doc_line), json.loads(last_line)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert doc["fail_frac"]["value"] == 0
        assert {m["name"]: m["unit"] for m in names} == {
            k: v["unit"] for k, v in last["metrics"].items()
        }
        for v in last["metrics"].values():
            assert isinstance(v["value"], (int, float))
        env = doc["environment"]
        for key in ("numpy", "blas", "blas_threads", "nproc", "python", "git_commit",
                    "seed", "jobs_per_run", "job_tail_percentile"):
            assert key in env


def test_end_to_end_metrics_are_never_zero():
    proc = run("catalog", 0)
    last = json.loads(proc.stdout.splitlines()[-1])
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    proc = run("catalog", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_einsum_oracle_matches_explicit_evaluation():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import numpy as np
    import tninv
    import workloads

    rng = np.random.default_rng(3)
    dims = (2, 3)
    rho = workloads._rank2_density(rng, 6)
    for cls in tninv.enumerate_invariants(2, 3):
        t = cls.representative
        want = tninv.evaluate(t, rho, dims)
        assert abs(workloads.einsum_oracle(t, rho, dims, {}) - want) <= 1e-12 * abs(want)
