import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_layers_quick_writes_the_record_schema(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    invariant_layers = ("plan", "plan_cold", "evaluate_many", "verify_classes")
    factor_layers = ("mps_factor", "save_chain", "mps_reconstruct+fidelity", "cli_factor", "cli_factor")
    for against in ([], ["--against", str(ROOT / "src" / "tninv")]):
        out = tmp_path / "layers.json"
        subprocess.run([sys.executable, str(ROOT / "tools" / "layers.py"), "--quick", "--out", str(out), *against],
                       check=True, env=env, capture_output=True)
        record = json.loads(out.read_text())
        assert set(record) == {"environment", "entries"}
        environment = record["environment"]
        assert set(environment) == {"python", "numpy", "blas", "blas_threads", "cpus"}
        assert isinstance(environment["python"], str) and isinstance(environment["numpy"], str)
        assert environment["cpus"] >= 1
        assert environment["blas_threads"] is None or environment["blas_threads"] >= 1
        entries = record["entries"]
        trees = ("change", "parent") if against else ("change",)
        keys = {"layer", "size", "repeats", *trees} | ({"ratio"} if against else set())
        assert all(set(e) == keys for e in entries)
        assert [e["layer"] for e in entries] == list(invariant_layers + factor_layers)
        assert [e["size"].get("read") for e in entries[-2:]] == ["second", "hit"]
        for e in entries:
            if e["layer"] in invariant_layers:
                assert set(e["size"]) == {"dims", "k", "labels", "state", "trials"}
            else:
                assert set(e["size"]) - {"read"} == {"qubits", "max_chi"}
            assert e["repeats"] == 3
            for tree in trees:
                timed = e[tree]
                assert set(timed) == {"median", "iqr", "peak_bytes"}
                assert 0 < timed["median"] and 0 <= timed["iqr"] and timed["peak_bytes"] > 0
            if against:
                assert set(e["ratio"]) == {"median", "iqr"}
                assert 0 < e["ratio"]["median"] and 0 <= e["ratio"]["iqr"]


def test_measure_alternates_the_trees_and_pairs_each_round(monkeypatch):
    # A fake clock: in the n-th pair of calls (the untimed warm-up is the
    # first) the change's call takes 2 n and the parent's n, so only ratios
    # that pair the two calls of one round all read 2.
    layers = load_layers()
    clock, log, collecting = [0.0], [], []

    def call(tree):
        log.append(tree)
        collecting.append(gc.isenabled())
        clock[0] += (2 if tree == "change" else 1) * ((len(log) + 1) // 2)

    monkeypatch.setattr(layers, "perf_counter", lambda: clock[0])
    entry = layers.measure(call, ["change", "parent"], 5)
    rounds = [["change", "parent"] if r % 2 == 0 else ["parent", "change"] for r in range(5)]
    # one untimed call each, five timed rounds, then one traced call each
    assert log == ["change", "parent"] + sum(rounds, []) + ["change", "parent"]
    # the collector is paused for the timed rounds only
    assert collecting == [True] * 2 + [False] * 10 + [True] * 2
    assert entry["ratio"] == {"median": 2.0, "iqr": 0.0}
    assert entry["repeats"] == 5
    assert entry["change"]["median"] == 2 * entry["parent"]["median"] == 2 * 4


def test_measure_peak_sees_the_tuples_an_earlier_call_freed():
    # Each warm call frees 1500 tuples onto CPython's free lists; without a
    # collection first, the traced call takes them back unseen.
    layers = load_layers()
    peak = layers.measure(lambda tree: [(i, i) for i in range(1500)], [None], 3)["change"]["peak_bytes"]
    assert peak >= 1500 * sys.getsizeof((0, 0))
