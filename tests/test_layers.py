import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layers_quick_writes_the_record_schema(tmp_path):
    out = tmp_path / "layers.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for tag in ("parent", "change", "change"):  # a repeated tag replaces its own entries
        subprocess.run([sys.executable, str(ROOT / "tools" / "layers.py"), "--quick",
                        "--tag", tag, "--out", str(out)], check=True, env=env, capture_output=True)
    entries = json.loads(out.read_text())["entries"]
    keys = {"tag", "layer", "size", "repeats", "median_s", "iqr_s", "peak_bytes",
            "python", "numpy", "blas", "blas_threads", "cpus"}
    assert all(set(e) == keys for e in entries)
    layers = [(e["tag"], e["layer"]) for e in entries]
    invariant_layers = ("plan", "plan_cold", "evaluate_many", "verify_classes")
    factor_layers = ("mps_factor", "mps_reconstruct+fidelity", "save_chain", "cli_factor", "cli_factor")
    assert layers == [(tag, layer) for tag in ("parent", "change")
                      for layer in invariant_layers + factor_layers]
    assert [e["size"].get("read") for e in entries[-2:]] == ["second", "hit"]
    for e in entries:
        if e["layer"] in invariant_layers:
            assert set(e["size"]) == {"dims", "k", "labels", "state", "trials"}
        else:
            assert set(e["size"]) - {"read"} == {"qubits", "max_chi"}
        assert e["repeats"] == 3 and 0 < e["median_s"] and 0 <= e["iqr_s"] and e["peak_bytes"] > 0
        assert isinstance(e["python"], str) and isinstance(e["numpy"], str) and e["cpus"] >= 1
        assert e["blas_threads"] is None or e["blas_threads"] >= 1


def test_measure_peak_sees_the_tuples_an_earlier_call_freed():
    # Each warm call frees 1500 tuples onto CPython's free lists; without a
    # collection first, the traced call takes them back unseen.
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    peak = layers.measure(lambda: [(i, i) for i in range(1500)], 3)["peak_bytes"]
    assert peak >= 1500 * sys.getsizeof((0, 0))
