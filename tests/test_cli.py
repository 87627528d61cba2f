import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import tninv
from tninv import cli, entropy, invariants, states
from tninv import (
    StateData,
    Tensor,
    density_from_pure,
    mps_factor,
    random_pure_state,
    save_state,
)
from tninv.cli import main

from test_invariants import clear_memos
from test_states import DENSITY_LIMIT, PURE_LIMIT


@pytest.fixture
def bell_path(tmp_path):
    bell = Tensor(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    path = tmp_path / "bell.json"
    save_state(StateData.pure(bell), path)
    return str(path)


@pytest.fixture
def ghz5_path(tmp_path):
    ket = np.zeros((2,) * 5)
    ket[0, 0, 0, 0, 0] = 1 / np.sqrt(2)
    ket[1, 1, 1, 1, 1] = 1 / np.sqrt(2)
    path = tmp_path / "ghz5.json"
    save_state(StateData.pure(Tensor(ket)), path)
    return str(path)


@pytest.fixture
def product4_path(tmp_path):
    ket = np.zeros((2,) * 4)
    ket[0, 1, 0, 1] = 1.0
    path = tmp_path / "prod.json"
    save_state(StateData.pure(Tensor(ket)), path)
    return str(path)


# ------------------------------------------------------------------ factor


def test_factor_product_state(product4_path, capsys):
    assert main(["factor", product4_path]) == 0
    out = capsys.readouterr().out
    assert "chi=1" in out
    assert "fidelity: 1" in out


def test_factor_ghz_middle_bond(ghz5_path, capsys):
    assert main(["factor", ghz5_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    mid = doc["values"]["bond_sigmas"][2]
    assert np.allclose(mid, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert doc["values"]["fidelity"] >= 1 - 1e-10


def test_factor_random_state_roundtrip(tmp_path, capsys):
    psi = random_pure_state((2,) * 5, seed=33)
    path = tmp_path / "r5.json"
    save_state(StateData.pure(psi), path)
    assert main(["factor", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["fidelity"] >= 1 - 1e-10


def test_factor_truncation_flag(tmp_path, capsys):
    psi = random_pure_state((2,) * 5, seed=34)
    path = tmp_path / "r5.json"
    save_state(StateData.pure(psi), path)
    assert main(["factor", str(path), "--truncate-chi", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["bond_dims"] == [2, 2, 2, 2]  # min(chi, the exact 2, 4, 4, 2)


def test_factor_writes_chain(tmp_path, capsys):
    psi = random_pure_state((2, 3, 2, 2), seed=36)
    path = tmp_path / "r4.json"
    save_state(StateData.pure(psi), path)
    out_path = tmp_path / "chain.json"
    # a truncated chain, whose sweep builds singular vectors at the cuts that drop
    # values, and then the exact one, whose sites rebuild psi
    for flags, chain in ((["--truncate-chi", "2"], mps_factor(psi, max_chi=2)), ([], mps_factor(psi))):
        assert main(["factor", str(path), *flags, "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "mps"
        assert doc["phys_dims"] == [2, 3, 2, 2]
        assert doc["site_shapes"] == [list(site.dims) for site in chain.sites], flags
        sites = []
        for pairs, shape in zip(doc["sites"], doc["site_shapes"]):
            arr = np.array(pairs)
            assert arr.shape == (shape[0] * shape[1], shape[2], 2)
            sites.append(arr.view(np.complex128).reshape(shape))
        for site, want in zip(sites, chain.sites):
            assert site.tobytes() == want.data.tobytes()
    rebuilt = np.ones((1, 1))
    for site in sites:
        rebuilt = np.tensordot(rebuilt, site, axes=(-1, 0))
    overlap = np.vdot(psi.data.reshape(-1), rebuilt.reshape(-1))
    assert abs(overlap) ** 2 >= 1 - 1e-12


@pytest.mark.parametrize("command", [["entropy", "CHAIN", "--keep", "0"],
                                     ["invariants", "eval", "CHAIN", "-k", "2"],
                                     ["factor", "CHAIN"]], ids=["entropy", "eval", "factor"])
def test_chain_file_is_not_read_as_a_state_yet(command, tmp_path, capsys):
    # a chain has no dims: the field checks refuse it before its kind is looked at
    path = tmp_path / "psi.json"
    save_state(StateData.pure(random_pure_state((2, 2, 2), seed=1)), path)
    chain = tmp_path / "chain.json"
    assert main(["factor", str(path), "--out", str(chain)]) == 0
    capsys.readouterr()
    assert main([str(chain) if arg == "CHAIN" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: missing field 'dims' in {chain}\n" and captured.out == ""


def test_factor_unwritable_out_exits_2(product4_path, tmp_path, capsys):
    out_path = tmp_path / "missing" / "chain.json"
    assert main(["factor", product4_path, "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_factor_rejects_density_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rho = density_from_pure(random_pure_state((2, 2), seed=1))
    save_state(StateData.density(rho, (2, 2)), "rho.json")
    assert main(["factor", "rho.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rho.json: expected a pure state, got density\n" and captured.out == ""


def test_corrupt_file_fails_loudly(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{oops")
    assert main(["factor", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_state_file_exits_2(tmp_path, capsys):
    pure = '{"kind": "pure", "dims": [2], "data": %s}'
    for i, text in enumerate(["3", pure % "5", pure % "[[NaN, 0], [0, 0]]",
                              pure % "[[Infinity, 0], [0, 0]]", pure % "[[1, -Infinity], [0, 0]]",
                              pure % "[[1e400, 0], [0, 0]]",
                              pure % ("[" * 100_000 + "]" * 100_000),
                              '{"kind": %s, "dims": [2], "data": []}' % ("[" * 5000 + "]" * 5000)]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        assert main(["entropy", str(path), "--keep", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


# Files with components past states.MAX_COMPONENT.  Before the bound each
# overflowed in a load check or a later command: warnings on stderr, or NaN
# and inf values printed with exit 0.
HUGE_FILES = [
    ("pure", [2], [[1e308, 1e308], [1e308, 0]]),
    ("pure", [2, 2], [[1e308, 1e308], [1e308, 0], [0, 0], [0, 0]]),
    ("density", [2], [[[1e308, 1e308], [0, 0]], [[0, 0], [0, 0]]]),
    ("density", [2], [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]),
    ("density", [2], [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]),
    ("density", [2], [[[0.5, 0], [1e308, 1e308]], [[1e308, -1e308], [0.5, 0]]]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, dims, data", HUGE_FILES)
def test_huge_components_are_refused_by_every_command(kind, dims, data, tmp_path, capsys):
    path = str(tmp_path / "huge.json")
    with open(path, "w") as fh:
        json.dump({"kind": kind, "dims": dims, "data": data}, fh)
    runs = [["entropy", path, "--keep", "0"], ["invariants", "eval", path, "-k", "2"],
            ["invariants", "verify", path, "-k", "2", "--trials", "3"]]
    if len(dims) == 2:
        runs.append(["factor", path])
    for argv in runs:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: data has a component of size 1e+308, above 1e+150\n", argv


def test_state_file_components_must_be_json_numbers(tmp_path, capsys):
    # a component is a float or an int: no string, bool, list or object,
    # and every pair has two
    for i, (kind, data) in enumerate([
        ("pure", [["1", "0"], [False, False]]),
        ("pure", [[1.0, 0.0], [True, False]]),
        ("pure", [["0.5", 0.0], [0.5, 0.0]]),
        ("pure", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ("pure", [[[1.0, 0.0, 0.0], 0.0], [0.0, 0.0]]),
        ("pure", [[{"re": 1.0}, 0.0], [0.0, 0.0]]),
        # a pair of length 2 that is no list: its keys or characters are strings
        ("pure", [{"re": 1.0, "im": 0.0}, [0.0, 0.0]]),
        ("pure", [[1.0, 0.0], "10"]),
        ("density", [[[1.0, 0.0], {"re": 0.0, "im": 0.0}], [[0.0, 0.0], [0.0, 0.0]]]),
        ("density", [[[1.0, 0.0], [0.0, 0.0]], ["00", [0.0, 0.0]]]),
        ("density", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, "0"]]]),
        ("density", [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
    ]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({"kind": kind, "dims": [2], "data": data}))
        assert main(["entropy", str(path), "--keep", "0"]) == 2
        shape = "2" if kind == "pure" else "2 x 2"
        assert capsys.readouterr().err == f"error: data is not {shape} [real, imag] pairs\n"


def test_state_file_nested_past_the_parser_stack_exits_2(tmp_path):
    # orjson 3.8 recurses once per level and crashes the process past about
    # 50000 levels of objects; a child process keeps a crash to this test
    src = os.path.dirname(os.path.dirname(tninv.__file__))
    run = "import sys; from tninv.cli import main; sys.exit(main(sys.argv[1:]))"
    pure = '{"kind": "pure", "dims": [1], "data": %s, "x": %s}'
    for i, text in enumerate([pure % ('[[1, 0]]', '{"":' * 200_000 + "0" + "}" * 200_000),
                              pure % ("[" * 300_000 + "]" * 300_000, "0")]):
        path = tmp_path / f"deep{i}.json"
        path.write_text(text)
        proc = subprocess.run([sys.executable, "-c", run, "entropy", str(path), "--keep", "0"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60, check=False)
        assert proc.returncode == 2, proc.returncode
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "deeper than" in proc.stderr


def test_one_shot_command_hashes_nothing_and_keeps_no_array(product4_path):
    # hashlib maps OpenSSL; only a second read of the same path may import it
    src = os.path.dirname(os.path.dirname(tninv.__file__))
    run = "\n".join([
        "import contextlib, io, sys",
        "from tninv import states",
        "from tninv.cli import main",
        "assert 'hashlib' not in sys.modules",
        "argv = ['entropy', sys.argv[1], '--keep', '0', '--json']",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(argv) == 0",
        "    assert 'hashlib' not in sys.modules and list(states._memo.values()) == [None]",
        "    assert main(argv) == 0",
        "assert 'hashlib' in sys.modules and states._memo[sys.argv[1]] is not None",
    ])
    subprocess.run([sys.executable, "-c", run, product4_path],
                   env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)


def test_repeated_factor_prints_and_writes_what_a_fresh_process_does(tmp_path, capsys):
    # calls 1-4 of a path in one process: a mark, then the kept array and chain, then
    # two hits; each must match a fresh process, output, exit code and chain file
    src = os.path.dirname(os.path.dirname(tninv.__file__))
    run = "import sys; from tninv.cli import main; sys.exit(main(sys.argv[1:]))"
    psi = StateData.pure(random_pure_state((2,) * 9, seed=19))
    policies = ([], ["--truncate-chi", "4"], ["--truncate-tol", "0.02"])
    for i, (flags, mode) in enumerate(itertools.product(policies, ([], ["--json"]))):
        path, out = tmp_path / f"psi{i}.json", tmp_path / f"chain{i}.json"
        save_state(psi, path)
        argv = ["factor", str(path), *flags, "--out", str(out), *mode]
        proc = subprocess.run([sys.executable, "-c", run, *argv], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, check=False)
        want = (proc.returncode, proc.stdout, proc.stderr, out.read_bytes())
        assert want[0] == 0 and want[2] == "", want
        for call in range(4):
            out.unlink()
            code = main(argv)
            got = capsys.readouterr()
            assert (code, got.out, got.err, out.read_bytes()) == want, (flags, mode, call)


def test_factor_bad_truncation_flag(product4_path, capsys):
    for flag, value in (("--truncate-chi", "0"), ("--truncate-tol", "nan")):
        assert main(["factor", product4_path, flag, value]) == 2
        assert "error" in capsys.readouterr().err


# -------------------------------------------------------------- invariants


def test_invariants_list_n1_k2(capsys):
    assert main(["invariants", "list", "-n", "1", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "2; e" in out
    assert "2; (12)" in out


def test_invariants_list_formats_each_label_once(capsys, monkeypatch):
    # the enumeration memo keeps its tuples and a tuple keeps its label, so
    # only the first list formats; repeats, human or --json, read the labels
    clear_memos()
    calls = []
    fmt = invariants.format_label
    monkeypatch.setattr(invariants, "format_label", lambda t: calls.append(t) or fmt(t))
    assert main(["invariants", "list", "-n", "2", "-k", "3"]) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert len(calls) == len(set(calls)) == len(lines) == len(invariants.enumerate_invariants(2, 3))
    assert [line.split("  ")[0] for line in lines] == [fmt(t) for t in calls]
    assert main(["invariants", "list", "-n", "2", "-k", "3"]) == 0
    assert capsys.readouterr().out == first
    assert main(["invariants", "list", "-n", "2", "-k", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["labels"] == [fmt(t) for t in calls]
    assert len(calls) == len(lines)


def test_invariants_list_enumerates_through_enumerate_invariants(capsys, monkeypatch):
    # a wrapper of the module's enumerate_invariants sees every list, kept or not
    calls = []
    enum = invariants.enumerate_invariants
    monkeypatch.setattr(invariants, "enumerate_invariants", lambda n, k: calls.append((n, k)) or enum(n, k))
    clear_memos()
    for memo in (invariants.MEMO_ENTRIES, 0):
        monkeypatch.setattr(invariants, "MEMO_ENTRIES", memo)
        for argv in (["-n", "3", "-k", "3"], ["-n", "3", "-k", "3", "--json"]):
            assert main(["invariants", "list", *argv]) == 0
            out = capsys.readouterr().out
            labels = json.loads(out)["values"]["labels"] if "--json" in argv else [
                line.split("  ")[0] for line in out.splitlines()]
            assert labels == [line.split("  ")[0] for line in LIST_3_3.splitlines()]
    assert calls == [(3, 3)] * 4


# The human output of `tninv invariants list -n 3 -k 3`, pinned byte for byte.
LIST_3_3 = (
    "3; e | e | e  orbit=1 [components=3, real]\n"
    "3; e | e | (23)  orbit=3 [components=2, real]\n"
    "3; e | e | (123)  orbit=2 [real]\n"
    "3; e | (23) | e  orbit=3 [components=2, real]\n"
    "3; e | (23) | (23)  orbit=3 [components=2, real]\n"
    "3; e | (23) | (12)  orbit=6 [real]\n"
    "3; e | (23) | (123)  orbit=6 [real]\n"
    "3; e | (123) | e  orbit=2 [real]\n"
    "3; e | (123) | (23)  orbit=6 [real]\n"
    "3; e | (123) | (123)  orbit=2 [real]\n"
    "3; e | (123) | (132)  orbit=2 [real]\n"
    "3; (23) | e | e  orbit=3 [components=2, real]\n"
    "3; (23) | e | (23)  orbit=3 [components=2, real]\n"
    "3; (23) | e | (12)  orbit=6 [real]\n"
    "3; (23) | e | (123)  orbit=6 [real]\n"
    "3; (23) | (23) | e  orbit=3 [components=2, real]\n"
    "3; (23) | (23) | (23)  orbit=3 [components=2, real]\n"
    "3; (23) | (23) | (12)  orbit=6 [real]\n"
    "3; (23) | (23) | (123)  orbit=6 [real]\n"
    "3; (23) | (12) | e  orbit=6 [real]\n"
    "3; (23) | (12) | (23)  orbit=6 [real]\n"
    "3; (23) | (12) | (12)  orbit=6 [real]\n"
    "3; (23) | (12) | (123)  orbit=6\n"
    "3; (23) | (12) | (132)  orbit=6\n"
    "3; (23) | (12) | (13)  orbit=6 [real]\n"
    "3; (23) | (123) | e  orbit=6 [real]\n"
    "3; (23) | (123) | (23)  orbit=6 [real]\n"
    "3; (23) | (123) | (12)  orbit=6\n"
    "3; (23) | (123) | (123)  orbit=6 [real]\n"
    "3; (23) | (123) | (132)  orbit=6 [real]\n"
    "3; (23) | (123) | (13)  orbit=6\n"
    "3; (123) | e | e  orbit=2 [real]\n"
    "3; (123) | e | (23)  orbit=6 [real]\n"
    "3; (123) | e | (123)  orbit=2 [real]\n"
    "3; (123) | e | (132)  orbit=2 [real]\n"
    "3; (123) | (23) | e  orbit=6 [real]\n"
    "3; (123) | (23) | (23)  orbit=6 [real]\n"
    "3; (123) | (23) | (12)  orbit=6\n"
    "3; (123) | (23) | (123)  orbit=6 [real]\n"
    "3; (123) | (23) | (132)  orbit=6 [real]\n"
    "3; (123) | (23) | (13)  orbit=6\n"
    "3; (123) | (123) | e  orbit=2 [real]\n"
    "3; (123) | (123) | (23)  orbit=6 [real]\n"
    "3; (123) | (123) | (123)  orbit=2 [real]\n"
    "3; (123) | (123) | (132)  orbit=2 [real]\n"
    "3; (123) | (132) | e  orbit=2 [real]\n"
    "3; (123) | (132) | (23)  orbit=6 [real]\n"
    "3; (123) | (132) | (123)  orbit=2 [real]\n"
    "3; (123) | (132) | (132)  orbit=2 [real]\n"
)


def test_invariants_list_human_output_is_unchanged(capsys):
    assert main(["invariants", "list", "-n", "3", "-k", "3"]) == 0
    assert capsys.readouterr().out == LIST_3_3


# sha256 of the stdout of (3, 4)'s 681 classes, which the memo keeps (419 tagged real
# and 77 split into components), and of (4, 4)'s 14491, past its bound, in both modes
@pytest.mark.parametrize(
    "mode, digests",
    [
        (["--json"], {(3, 4): "59152dd46d405c19f8ee0f06544e66c8fea4c8ab3c3b00e80480ebc3fc852665",
                      (4, 4): "e8cd42c384cc5a1f6b1cde9076dffa39674ef53cdbdae0116b0e8ad3f9042570"}),
        ([], {(3, 4): "2a7ccc7297cba9a4f1c5e5603c14bc6635a297846c550cd65aebac7450458f58",
              (4, 4): "71aa364750ed196891ddc870280bedff56ef7d86fba3555ac9ba60d6d7c9f555"}),
    ],
    ids=["json", "human"],
)
def test_invariants_list_output_is_pinned(mode, digests, capsys):
    clear_memos()
    for (n, k), digest in digests.items():
        for _ in range(2):  # cold, then warm: the same bytes
            assert main(["invariants", "list", "-n", str(n), "-k", str(k), *mode]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (n, k)


def test_invariants_list_json_builds_no_tags(capsys, monkeypatch):
    def refuse(t):
        raise AssertionError("a tag was computed for --json")

    monkeypatch.setattr(invariants, "connected_components", refuse)
    monkeypatch.setattr(invariants, "is_real_guaranteed", refuse)
    assert main(["invariants", "list", "-n", "3", "-k", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["count"] == 49
    assert doc["values"]["labels"] == [line.split("  ")[0] for line in LIST_3_3.splitlines()]


def test_invariants_list_too_many_tuples_exits_2(capsys):
    assert main(["invariants", "list", "-n", "9", "-k", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# An enumeration bounded only by its tuple count would build (23,2)'s 8388608
# classes, about 10 GB, before it failed.
@pytest.mark.parametrize(
    "n, k, message",
    [
        (23, 2, "n=23, k=2 has 8388608 classes, more than 400000"),
        (64, 1, "n=64 subsystems, more than 32"),
    ],
)
def test_invariants_list_over_the_class_limits_exits_2_at_once(n, k, message, capsys):
    start = time.perf_counter()
    assert main(["invariants", "list", "-n", str(n), "-k", str(k)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


def test_invariants_eval_and_verify_refuse_too_many_classes(tmp_path, capsys):
    # 21 subsystems, twenty of them one-dimensional: 2^21 degree-2 classes
    psi = np.zeros((1,) * 20 + (2,))
    psi[(0,) * 21] = 1.0
    path = tmp_path / "q21.json"
    save_state(StateData.pure(Tensor(psi)), path)
    for action in ("eval", "verify"):
        start = time.perf_counter()
        assert main(["invariants", action, str(path), "-k", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == "error: n=21, k=2 has 2097152 classes, more than 400000\n"


def test_invariants_eval_maximally_mixed(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_state(StateData.density(Tensor(np.eye(2) / 2), (2,)), path)
    assert main(
        ["invariants", "eval", str(path), "--label", "2; (12)", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    re, im = doc["values"]["2; (12)"]
    assert abs(re - 0.5) < 1e-12 and abs(im) < 1e-12


def test_invariants_verify_passes(bell_path, capsys):
    rc = main(
        ["invariants", "verify", bell_path, "-k", "3", "--trials", "10", "--seed", "4"]
    )
    assert rc == 0
    assert "max deviation" in capsys.readouterr().out


def test_invariants_json_reports_contraction_cost(tmp_path, capsys):
    path = tmp_path / "rho.json"
    save_state(StateData.density(Tensor(np.eye(4) / 4), (4,)), path)
    # "2; e": two self-traces of a 4 x 4 operator (4 + 4); "2; (12)": one
    # (1 x 16) @ (16 x 1) product (2 * 16); every intermediate is a scalar
    want = {"flops": 40, "largest_intermediate": 1}
    human = []
    for action, extra in (("eval", []), ("verify", ["--trials", "2"])):
        argv = ["invariants", action, str(path), "-k", "2"] + extra
        assert main(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["contraction"] == want
        assert main(argv) == 0
        human.append(capsys.readouterr().out)
    assert human[0] == "2; e = 1+0j\n2; (12) = 0.25+0j\n"
    assert "flops" not in human[1] and "contraction" not in human[1]


def test_invariants_eval_prints_rounding_imaginary_parts_as_zero(tmp_path, capsys):
    rng = np.random.default_rng(78)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    path = tmp_path / "rho.json"
    save_state(StateData.density(Tensor(rho), (2, 2, 2)), path)
    assert main(["invariants", "eval", str(path), "-k", "3", "--json"]) == 0
    exact = json.loads(capsys.readouterr().out)["values"]
    assert main(["invariants", "eval", str(path), "-k", "3"]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert set(printed) == set(exact)
    for c in invariants.enumerate_invariants(3, 3):
        if invariants.is_real_guaranteed(c.representative):
            assert printed[c.label()].endswith("+0j"), c.label()
    # a genuinely complex label keeps its imaginary part; JSON stays exact
    re, im = exact["3; (23) | (12) | (123)"]
    assert abs(im) > 1e-4
    assert complex(printed["3; (23) | (12) | (123)"]) == pytest.approx(complex(re, im), rel=1e-11)
    assert any(im != 0 for _, im in exact.values())


def test_invariants_eval_needs_state(capsys):
    assert main(["invariants", "eval", "-k", "2"]) == 2


def test_invariants_bad_label(bell_path, capsys):
    for label, message in (("nope", "label 'nope' is missing"), ("2; () | e", "empty cycle '()'"),
                           ("2; ( ) | e", "empty cycle '( )'"), ("2; e | (12)()", "empty cycle '()'")):
        assert main(["invariants", "eval", bell_path, "--label", label]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_invariants_label_degree_is_refused_before_parsing(bell_path, capsys):
    # the identity permutation of degree 10^9 alone would take about 90 GB
    for action in ("eval", "verify"):
        start = time.perf_counter()
        assert main(["invariants", action, bell_path, "--label", "1000000000; e | e"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: label '1000000000; e | e' has degree 1000000000,")


def test_invariants_label_subsystem_mismatch(bell_path, capsys):
    assert main(["invariants", "eval", bell_path, "--label", "2; (12)"]) == 2


def test_invariants_label_subsystem_mismatch_names_the_label(bell_path, capsys):
    for action in ("eval", "verify"):
        assert main(["invariants", action, bell_path, "--label", "2; e | e", "--label", "2; (12)"]) == 2
        assert capsys.readouterr().err == "error: label '2; (12)' has 1 subsystems, state has 2\n"


def test_invariants_refusals_name_the_flags(bell_path, capsys):
    for argv, message in (
        (["invariants", "eval", bell_path], "need -k or --label"),
        (["invariants", "verify", bell_path, "-n", "3", "-k", "2"], "-n 3 but state has 2 subsystems"),
        (["invariants", "list", "-n", "2"], "list needs both -n and -k"),
        (["invariants", "list", "-k", "2"], "list needs both -n and -k"),
        (["invariants", "verify", "-k", "2"], "invariants verify needs a state file"),
        (["invariants", "list", bell_path, "-n", "2", "-k", "2"], "invariants list takes no state file"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_invariants_refuse_k_with_label(bell_path, capsys):
    for action in ("list", "eval", "verify"):
        assert main(["invariants", action, bell_path, "-k", "2", "--label", "2; e | e"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: -k and --label exclude each other: -k takes every class, --label names some\n"
        )


def test_closed_pipe_ends_quietly_with_the_command_exit_code():
    # (6, 3) prints 8051 labels, some 400 KB, past a 64 KiB pipe buffer, so
    # the CLI is still writing when the reader closes its end after one line
    src = os.path.dirname(os.path.dirname(tninv.__file__))
    run = "import sys; from tninv.cli import main; sys.exit(main(sys.argv[1:]))"
    for mode in ([], ["--json"]):
        argv = [sys.executable, "-c", run, "invariants", "list", "-n", "6", "-k", "3", *mode]
        with subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0, mode
            assert proc.stderr.read() == b"", mode
        assert first == (b"{\n" if mode else b"3; e | e | e | e | e | e  orbit=1 [components=3, real]\n")


class _ClosedPipe:
    """A stdout whose reader has left: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(enabled, bell_path, tmp_path, capsys, monkeypatch):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["entropy", bell_path, "--keep", "0"]) == 0  # success
        assert gc.isenabled() is enabled
        assert main(["entropy", bell_path, "--keep", "5"]) == 2  # refused input
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit) as exc:  # argparse: -n needs a value
            main(["invariants", "list", "-n"])
        assert exc.value.code == 2 and gc.isenabled() is enabled
        with open(tmp_path / "stdout", "wb") as sink:  # the closed pipe's fd is sent here
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
            assert main(["invariants", "list", "-n", "2", "-k", "2"]) == 0
            monkeypatch.undo()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_starts_during_a_command(tmp_path, capsys):
    # the 251 (4, 3) classes of a 2^4 density, cold: tens of thousands of
    # containers, enough to start several collections with the collector on
    rho = density_from_pure(random_pure_state((2,) * 4, seed=4))
    path = str(tmp_path / "rho4.json")
    save_state(StateData.density(rho, (2,) * 4), path)
    clear_memos()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        assert main(["invariants", "eval", path, "-k", "3", "--json"]) == 0
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert len(json.loads(capsys.readouterr().out)["values"]) == 251
    assert starts == []


def test_invariants_eval_label_over_einsum_limit(tmp_path, capsys):
    # nine distinct permutations at degree 6 need 54 indices, two over the limit
    psi = random_pure_state((2,) * 9, seed=1)
    path = tmp_path / "q9.json"
    save_state(StateData.pure(psi), path)
    label = "6; (12) | (13) | (14) | (15) | (16) | (23) | (24) | (25) | (26)"
    assert main(["invariants", "eval", str(path), "--label", label]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "52" in err and "Traceback" not in err


def test_invariants_negative_seed_is_named(bell_path, capsys):
    assert main(["invariants", "verify", bell_path, "-k", "2", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_invariants_repeated_label_is_evaluated_once(tmp_path, capsys):
    rho = density_from_pure(random_pure_state((2, 2), seed=1))
    path = str(tmp_path / "rho.json")
    save_state(StateData.density(rho, (2, 2)), path)
    once = ["--label", "2; e | (12)"]
    twice = once + ["--label", "2; e|(12)"]  # the same label, spelled apart
    for action, extra in (("eval", []), ("verify", ["--trials", "2"])):
        outs = []
        for labels in (once, twice):
            for as_json in ([], ["--json"]):
                assert main(["invariants", action, path, *labels, *extra, *as_json]) == 0
                outs.append(capsys.readouterr().out)
        assert outs[2:] == outs[:2]
        cost = json.loads(outs[3])["diagnostics"]["contraction"]
        assert cost == {"flops": 24, "largest_intermediate": 4}
    assert main(["invariants", "eval", path, *twice]) == 0
    assert capsys.readouterr().out == "2; e | (12) = 0.702503695902+0j\n"


def _doc(command, values, diagnostics=None, exit_code=0):
    doc = {"command": command, "values": values, "diagnostics": diagnostics or {},
           "exit_code": exit_code}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_factor_output_is_pinned_in_both_modes(ghz5_path, product4_path, tmp_path, capsys):
    out = str(tmp_path / "chain.json")
    assert main(["factor", ghz5_path, "--out", out]) == 0
    bonds = "".join(
        f"bond {b}: chi=2 sigma=0.707106781187 0.707106781187\n" for b in range(4)
    )
    assert capsys.readouterr().out == bonds + f"fidelity: 1\nchain written to {out}\n"
    assert main(["factor", product4_path, "--json"]) == 0
    want = {"bond_dims": [1, 1, 1], "bond_sigmas": [[1.0]] * 3, "fidelity": 1.0}
    assert capsys.readouterr().out == _doc("factor", want)


def test_invariants_eval_output_is_pinned_in_both_modes(tmp_path, capsys):
    path = str(tmp_path / "mixed.json")
    save_state(StateData.density(Tensor(np.eye(4) / 4), (4,)), path)
    assert main(["invariants", "eval", path, "-k", "2"]) == 0
    assert capsys.readouterr().out == "2; e = 1+0j\n2; (12) = 0.25+0j\n"
    assert main(["invariants", "eval", path, "-k", "2", "--json"]) == 0
    cost = {"contraction": {"flops": 40, "largest_intermediate": 1}}
    want = {"2; e": [1.0, 0.0], "2; (12)": [0.25, 0.0]}
    assert capsys.readouterr().out == _doc("invariants eval", want, cost)


def test_invariants_verify_output_is_pinned_in_both_modes(bell_path, capsys, monkeypatch):
    # fixed deviations, one of them past the threshold, pin the formatting
    devs = [2e-09, 3.5e-08, 0.0, 1.25e-10]
    monkeypatch.setattr(invariants, "verify_classes", lambda tuples, *a, **kw: devs)
    argv = ["invariants", "verify", bell_path, "-k", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "2; e | e  deviation=2e-09  ok\n"
        "2; e | (12)  deviation=3.5e-08  FAIL\n"
        "2; (12) | e  deviation=0  ok\n"
        "2; (12) | (12)  deviation=1.25e-10  ok\n"
        "max deviation: 3.5e-08\n"
    )
    assert main(argv + ["--json"]) == 1
    labels = ["2; e | e", "2; e | (12)", "2; (12) | e", "2; (12) | (12)"]
    diagnostics = {
        "contraction": {"flops": 0, "largest_intermediate": 0},
        "max_deviation": 3.5e-08,
        "purification": None,
        "threshold": cli.VERIFY_THRESHOLD,
    }
    want = _doc("invariants verify", dict(zip(labels, devs)), diagnostics, exit_code=1)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("at", [0, 1, 3])
def test_invariants_verify_fails_on_a_nan_deviation(at, bell_path, capsys, monkeypatch):
    # the exit code follows the comparison that labels each line, and the NaN
    # is carried into max_deviation wherever it falls among the labels
    devs = [0.0, 1e-10, 0.0, 2e-9]
    devs[at] = math.nan
    monkeypatch.setattr(invariants, "verify_classes", lambda tuples, *a, **kw: devs)
    argv = ["invariants", "verify", bell_path, "-k", "2"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit("  ", 1)[1] for line in lines[:4]] == ["FAIL" if i == at else "ok" for i in range(4)]
    assert lines[4] == "max deviation: nan"
    assert main(argv + ["--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 1 and math.isnan(doc["diagnostics"]["max_deviation"])


def test_json_formats_no_human_lines(ghz5_path, bell_path, tmp_path, capsys, monkeypatch):
    def refuse(x):
        raise AssertionError("a human line was formatted for --json")

    monkeypatch.setattr(cli, "_fmt", refuse)
    out = str(tmp_path / "chain.json")
    for argv in (
        ["factor", ghz5_path, "--out", out],
        ["factor", ghz5_path, "--truncate-chi", "1"],
        ["invariants", "eval", bell_path, "-k", "2"],
        ["invariants", "verify", bell_path, "-k", "2", "--trials", "2"],
        # a cross-checked order, one skipped past MAX_LABELS, and S_vn
        ["entropy", bell_path, "--keep", "0", "--alpha", "1,2,3,30"],
    ):
        assert main(argv + ["--json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["exit_code"] == 0


def _report_commands(tmp_path, ghz5_path, bell_path):
    """One argv of each report: factor, list, eval, verify and entropy."""
    rho = density_from_pure(random_pure_state((2,) * 3, seed=1))
    rho3 = str(tmp_path / "rho3.json")
    save_state(StateData.density(rho, (2,) * 3), rho3)
    a, b = (density_from_pure(random_pure_state((2,) * 6, seed=s)).data for s in (4, 5))
    rho6r2 = str(tmp_path / "rho6r2.json")  # rank 2: verify contracts its purification
    save_state(StateData.density(Tensor(0.3 * a + 0.7 * b), (2,) * 6), rho6r2)
    return [
        ["factor", ghz5_path, "--out", str(tmp_path / "chain.json")],
        ["factor", ghz5_path, "--truncate-chi", "1"],
        ["invariants", "list", "-n", "3", "-k", "3"],
        ["invariants", "eval", rho3, "-k", "3"],
        ["invariants", "verify", rho3, "-k", "2", "--trials", "3"],
        ["invariants", "verify", rho6r2, "-k", "2", "--trials", "9", "--seed", "5"],
        # a cross-checked order, one skipped past MAX_LABELS, and S_vn
        ["entropy", bell_path, "--keep", "0", "--alpha", "1,2,3,30"],
    ]


def test_one_result_renders_both_reports(ghz5_path, bell_path, tmp_path, capsys):
    # a command never reads the output mode: with --json deleted from its
    # arguments it still runs, and its result renders what main prints
    purified = []
    for argv in _report_commands(tmp_path, ghz5_path, bell_path):
        args = cli._parser().parse_args(argv)
        del args.json
        res = args.run(args)
        assert main(argv + ["--json"]) == res.exit_code, argv
        assert capsys.readouterr().out == res.render(True) + "\n", argv
        assert main(argv) == res.exit_code, argv
        assert capsys.readouterr().out == res.render(False) + "\n", argv
        purified.append(res.diagnostics.get("purification"))
    assert purified[4] is None and purified[5]["rank"] == 2


def test_a_command_leaves_no_reference_cycle(ghz5_path, bell_path, tmp_path, capsys):
    # main runs with the collector paused, so a cycle a report leaves (say a
    # closure that holds its result, or stdlib json's indent encoder) stays
    # until the next collection
    was = gc.isenabled()
    try:
        for human in _report_commands(tmp_path, ghz5_path, bell_path):
            for argv in (human, human + ["--json"]):
                for _ in range(2):  # warm the memos and the lazy hashlib import
                    assert main(argv) == 0, argv
                gc.collect()
                gc.disable()
                assert main(argv) == 0, argv
                assert gc.collect() == 0, argv
                gc.enable()
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_json_report_is_stdlib_bytes(ghz5_path, bell_path, tmp_path):
    for argv in _report_commands(tmp_path, ghz5_path, bell_path):
        args = cli._parser().parse_args(argv)
        res = args.run(args)
        doc = {"command": res.command, "values": res.values,
               "diagnostics": res.diagnostics, "exit_code": res.exit_code}
        assert res.render(True) == json.dumps(doc, indent=2, sort_keys=True), argv


@pytest.mark.parametrize("value", [object(), np.int64(1), np.bool_(True), {1: "a"}, [1.0, {2}]])
def test_json_writer_refuses_what_stdlib_cannot_write(value):
    # a key must be a str: every key the CLI builds is one
    with pytest.raises(TypeError):
        cli._json({"values": value})


def test_invariants_and_entropy_never_form_rho_for_pure_file(bell_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("density_from_pure called")

    monkeypatch.setattr(states, "density_from_pure", refuse)
    for argv in (
        ["invariants", "eval", bell_path, "-k", "3"],
        ["invariants", "verify", bell_path, "-k", "3", "--trials", "3"],
        ["entropy", bell_path, "--keep", "0", "--alpha", "2,3"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_invariants_pure_twelve_qubits_stay_small(tmp_path, capsys):
    psi = random_pure_state((2,) * 12, seed=47)
    path = str(tmp_path / "q12.json")
    save_state(StateData.pure(psi), path)
    label = "2; " + " | ".join(["(12)"] * 6 + ["e"] * 6)
    for action, extra in (("eval", []), ("verify", ["--trials", "2"])):
        tracemalloc.start()
        try:
            rc = main(["invariants", action, path, "--label", label, *extra, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 16 * 2**20, (action, peak)  # its 4096 x 4096 rho alone is 256 MB
        value = json.loads(capsys.readouterr().out)["values"][label]
        if action == "eval":
            want = invariants.pure_jk(psi, (list(range(6)), list(range(6, 12))), 2)
            assert complex(*value) == pytest.approx(want, rel=1e-12)
        else:
            assert value <= 1e-9


# ----------------------------------------------------------------- entropy


def test_entropy_bell(bell_path, capsys):
    assert main(["entropy", bell_path, "--keep", "0", "--alpha", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["values"]["S_2"] - np.log(2)) < 1e-10
    assert abs(doc["values"]["S_vn"] - np.log(2)) < 1e-10
    assert doc["diagnostics"]["crosscheck_dev_2"] <= 1e-9


def test_entropy_product_split_is_zero(product4_path, capsys):
    assert main(["entropy", product4_path, "--keep", "0,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("S_vn", "S_2", "S_3"):
        assert abs(doc["values"][key]) < 1e-10


def test_entropy_random_5qubit_crosscheck(tmp_path, capsys):
    psi = random_pure_state((2,) * 5, seed=35)
    path = tmp_path / "r5.json"
    save_state(StateData.pure(psi), path)
    for keep in ("0,1", "1,3"):
        assert main(["entropy", str(path), "--keep", keep, "--alpha", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["crosscheck_dev_3"] <= 1e-9


def test_entropy_alpha_one_is_von_neumann(tmp_path, capsys):
    psi = random_pure_state((2,) * 3, seed=12)
    path = tmp_path / "r3.json"
    save_state(StateData.pure(psi), path)
    assert main(["entropy", str(path), "--keep", "0", "--alpha", "1,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["S_1"] == doc["values"]["S_vn"] > 0.0
    assert doc["diagnostics"]["crosscheck_dev_2"] <= 1e-9


def test_entropy_orders_that_print_alike_keep_their_own_keys(tmp_path, capsys):
    # 2.0000001 prints as 2 with :g; its key is its repr, so order 2 keeps
    # S_2 beside its own cross-check, and orders of at most 6 digits keep :g
    rho = density_from_pure(random_pure_state((2,) * 3, seed=1))
    path = str(tmp_path / "rho3.json")
    save_state(StateData.density(rho, (2,) * 3), path)
    alone = {}
    for alpha in ("2", "2.0000001", "0.5", "1e-05"):
        alone.update(_entropy_json(capsys, path, "--keep", "1", "--alpha", alpha)["values"])
    doc = _entropy_json(capsys, path, "--keep", "1", "--alpha", "2,2.0000001,0.5,1e-05")
    assert doc["values"] == alone
    assert set(alone) == {"S_vn", "S_2", "S_2.0000001", "S_0.5", "S_1e-05"}
    assert alone["S_2"] != alone["S_2.0000001"]
    assert set(doc["diagnostics"]) == {"crosscheck_dev_2"}
    assert main(["entropy", path, "--keep", "1", "--alpha", "2,2.0000001"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in lines] == ["S_vn", "S_2", "S_2.0000001"]
    assert "cross-check" in lines[1] and "cross-check" not in lines[2]


def test_entropy_repeated_alpha_is_reported_and_contracted_once(bell_path, capsys, monkeypatch):
    # 2 and 2.0 are one order, as a repeated --label is one label: the report is --alpha 2,3's
    seen, evaluate_many = [], invariants.evaluate_many

    def spy(labels, *args, **kwargs):
        seen.append(len(labels))
        return evaluate_many(labels, *args, **kwargs)

    monkeypatch.setattr(invariants, "evaluate_many", spy)
    assert main(["entropy", bell_path, "--keep", "0", "--alpha", "2,2.0,3"]) == 0
    out = capsys.readouterr().out
    assert [line.split(" = ")[0] for line in out.splitlines()] == ["S_vn", "S_2", "S_3"]
    assert main(["entropy", bell_path, "--keep", "0", "--alpha", "2,3"]) == 0
    assert capsys.readouterr().out == out
    assert seen == [2, 2]


def test_entropy_crosscheck_past_its_threshold_exits_1(bell_path, capsys, monkeypatch):
    # tr(rho_A^2) of a Bell pair is 1/2; a contraction that gave 0.6 puts the
    # order-2 cross-check log(1.2) off S_2
    monkeypatch.setattr(invariants, "evaluate_many", lambda labels, *a, **kw: [0.6 + 0j] * len(labels))
    assert main(["entropy", bell_path, "--keep", "0", "--alpha", "2", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    dev = abs(entropy.renyi_from_invariant(0.6, 2) - doc["values"]["S_2"])
    assert doc["exit_code"] == 1 and doc["diagnostics"]["crosscheck_dev_2"] == dev
    assert dev == pytest.approx(math.log(1.2), rel=1e-12)


def test_entropy_nan_crosscheck_exits_1(bell_path, capsys, monkeypatch):
    # a NaN trace gives a NaN deviation, which fails like one past the threshold
    monkeypatch.setattr(invariants, "evaluate_many", lambda labels, *a, **kw: [complex(math.nan)] * len(labels))
    for alpha in ("2", "3,2", "2,3"):
        assert main(["entropy", bell_path, "--keep", "0", "--alpha", alpha, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 1 and math.isnan(doc["diagnostics"]["crosscheck_dev_2"])


def test_entropy_bad_keep(bell_path, capsys):
    assert main(["entropy", bell_path, "--keep", "5"]) == 2


def test_entropy_keep_refusal_names_the_flag(bell_path, capsys):
    for keep, message in (("5", "keep [5] out of range for 2 subsystems (0..1)"),
                          (",", "keep must name at least one subsystem")):
        assert main(["entropy", bell_path, "--keep", keep]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --keep {keep!r} is refused: {message}\n")


def test_comma_list_with_a_leading_minus_reads_alike_with_or_without_equals(bell_path, capsys):
    # a list such as "-1,0" after a space reaches the same range checks as "--keep=-1,0"
    for option, value, message in (
        ("--keep", "-1,0",
         "--keep '-1,0' is refused: keep [-1, 0] out of range for 2 subsystems (0..1)"),
        ("--keep", "-1", "--keep '-1' is refused: keep [-1] out of range for 2 subsystems (0..1)"),
        ("--alpha", "-2,3", "alpha must be positive and finite, got -2.0"),
        ("--alpha", "-1", "alpha must be positive and finite, got -1.0"),
        ("--alpha", "-.5", "alpha must be positive and finite, got -0.5"),
    ):
        head = ["entropy", bell_path] + ([] if option == "--keep" else ["--keep", "0"])
        for argv in (head + [option, value], head + [f"{option}={value}"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_an_option_after_keep_is_still_no_value(bell_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", bell_path, "--keep", "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --keep: expected one argument\n")


def test_entropy_non_finite_alpha_exits_2(bell_path, capsys):
    for alpha in ("nan", "inf", "2,-inf"):
        assert main(["entropy", bell_path, "--keep", "0", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha") and captured.err.count("\n") == 1


def test_entropy_alpha_past_einsum_limit_skips_crosscheck(tmp_path, capsys):
    psi = random_pure_state((2,) * 3, seed=12)
    path = tmp_path / "r3.json"
    save_state(StateData.pure(psi), path)
    mat = psi.data.reshape(2, 4)
    p_max = float(np.max(np.linalg.svd(mat, compute_uv=False)) ** 2)
    args = ["entropy", str(path), "--keep", "0", "--json", "--alpha"]
    assert main(args + ["1e308"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["S_1e+308"] == pytest.approx(-np.log(p_max), rel=1e-12)
    assert doc["diagnostics"] == {"crosscheck_skipped": [1e308]}
    # 26 is the highest order whose cycle | e label fits einsum's 52 indices
    assert main(args + ["26,27,30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["crosscheck_skipped"] == [27.0, 30.0]
    assert doc["diagnostics"]["crosscheck_dev_26"] <= 1e-9
    assert set(doc["values"]) == {"S_vn", "S_26", "S_27", "S_30"}
    assert main(["entropy", str(path), "--keep", "0", "--alpha", "30"]) == 0
    assert "cross-check skipped" in capsys.readouterr().out


def test_entropy_unparsable_option_is_named(bell_path, capsys):
    for option, text in (("--keep", "a"), ("--keep", "0.5"), ("--alpha", "2,,3"), ("--alpha", "")):
        args = ["entropy", bell_path, "--keep", "0", option, text]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option} ") and captured.err.count("\n") == 1
        assert repr(text) in captured.err


def _pure_and_density_files(tmp_path, dims, seed):
    psi = random_pure_state(dims, seed=seed)
    pure, rho = tmp_path / "pure.json", tmp_path / "rho.json"
    save_state(StateData.pure(psi), pure)
    save_state(StateData.density(density_from_pure(psi), dims), rho)
    return psi, str(pure), str(rho)


def _entropy_json(capsys, path, *args):
    assert main(["entropy", path, "--json", *args]) == 0
    return json.loads(capsys.readouterr().out)


def test_entropy_pure_and_density_files_agree(tmp_path, capsys):
    # every nonempty cut of (2, 3, 2, 2), d_keep > d_rest included
    _, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2, 2), seed=41)
    for r in range(1, 5):
        for keep in itertools.combinations(range(4), r):
            arg = ",".join(map(str, keep))
            a = _entropy_json(capsys, pure, "--keep", arg)
            b = _entropy_json(capsys, rho, "--keep", arg)
            assert a.keys() == b.keys() and a["exit_code"] == b["exit_code"] == 0
            for part in ("values", "diagnostics"):
                assert a[part].keys() == b[part].keys(), keep
                for key, value in a[part].items():
                    assert abs(value - b[part][key]) <= 1e-12, (keep, key)
            assert ("crosscheck_dev_2" in a["diagnostics"]) == (r < 4)


def test_entropy_keep_out_of_range_same_message_for_both_kinds(tmp_path, capsys):
    _, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2), seed=42)
    for keep in ("-1", "99", "0,-1"):
        errs = []
        for path in (pure, rho):
            assert main(["entropy", path, "--keep", keep]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: --keep {keep!r} ") and "0..2" in errs[0]


def test_entropy_repeated_keep_is_one_subsystem(tmp_path, capsys):
    _, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2), seed=43)
    for path in (pure, rho):
        assert main(["entropy", path, "--keep", "0,0"]) == 0
        twice = capsys.readouterr().out
        assert main(["entropy", path, "--keep", "0"]) == 0
        assert capsys.readouterr().out == twice


def test_entropy_keep_all_is_zero_without_crosscheck(tmp_path, capsys):
    _, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2), seed=44)
    for path in (pure, rho):
        doc = _entropy_json(capsys, path, "--keep", "2,0,1", "--alpha", "2,3,4")
        assert set(doc["values"]) == {"S_vn", "S_2", "S_3", "S_4"}
        assert all(abs(v) < 1e-10 for v in doc["values"].values())
        assert doc["diagnostics"] == {}
    path = tmp_path / "q10.json"
    save_state(StateData.pure(random_pure_state((2,) * 10, seed=44)), path)
    tracemalloc.start()
    try:
        assert main(["entropy", str(path), "--keep", ",".join(map(str, range(10)))]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("S_vn = ")
    assert peak < 2 * 2**20  # the 1024 x 1024 rho alone is 16 MB


def test_entropy_of_a_pure_cut_prints_no_sign(tmp_path, product4_path, capsys):
    # every subsystem of a pure state, or one qubit of a product state, is a pure cut
    _, pure, _ = _pure_and_density_files(tmp_path, (2, 2, 2), seed=1)
    for path, keep in ((pure, "0,1,2"), (product4_path, "0")):
        args = ["entropy", path, "--keep", keep, "--alpha", "1,2,3,0.5"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[1].split()[0] for line in lines] == ["0"] * 5, lines
        doc = _entropy_json(capsys, *args[1:])
        assert set(doc["values"]) == {"S_vn", "S_1", "S_2", "S_3", "S_0.5"}
        for key, value in doc["values"].items():
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (path, key)


def test_entropy_fuses_operator_once_per_keep(tmp_path, capsys, monkeypatch):
    psi, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2, 2), seed=45)
    calls = []
    fuse = invariants._fuse

    def spy(src, axes, fused):
        calls.append(src.pure)
        return fuse(src, axes, fused)

    monkeypatch.setattr(invariants, "_fuse", spy)
    for path, pure_route in ((rho, False), (pure, True)):
        calls.clear()
        # keep 1,3 is not a prefix, so fusing the operator transposes it
        doc = _entropy_json(capsys, path, "--keep", "1,3", "--alpha", "2,3,4")
        assert calls == [pure_route]
        mat = np.transpose(psi.data, (1, 3, 0, 2)).reshape(6, 4)
        p = np.linalg.svd(mat, compute_uv=False) ** 2
        for k in (2, 3, 4):
            want = np.log(np.sum(p**k)) / (1 - k)
            assert doc["values"][f"S_{k}"] == pytest.approx(want, abs=1e-12)
            assert doc["diagnostics"][f"crosscheck_dev_{k}"] <= 1e-12


def test_entropy_pure_input_never_forms_rho(tmp_path, capsys):
    psi = random_pure_state((2,) * 12, seed=46)
    path = tmp_path / "q12.json"
    save_state(StateData.pure(psi), path)
    tracemalloc.start()
    try:
        rc = main(["entropy", str(path), "--keep", "0,5,11", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert peak < 16 * 2**20  # its 4096 x 4096 rho alone would be 256 MB
    mat = np.transpose(psi.data, [0, 5, 11, 1, 2, 3, 4, 6, 7, 8, 9, 10]).reshape(8, 512)
    p = np.linalg.svd(mat, compute_uv=False) ** 2
    assert doc["values"]["S_2"] == pytest.approx(-np.log(np.sum(p**2)), abs=1e-10)
    assert doc["diagnostics"]["crosscheck_dev_3"] <= 1e-9


# ----------------------------------------------------- subsystem count limit


@pytest.mark.parametrize("kind, limit", [("pure", PURE_LIMIT), ("density", DENSITY_LIMIT)])
def test_every_command_refuses_more_subsystems_than_a_stack_can_hold(kind, limit, tmp_path, capsys):
    # files of one-dimensional subsystems: at the limit each command runs as it
    # always has, one past it each exits 2 naming dims
    for n in (limit, limit + 1):
        path = str(tmp_path / f"{kind}{n}.json")
        data = [[1.0, 0.0]] if kind == "pure" else [[[1.0, 0.0]]]
        with open(path, "w") as fh:
            json.dump({"kind": kind, "dims": [1] * n, "data": data}, fh)
        every_e = "1; " + " | ".join(["e"] * n)
        enumerated = 0 if n <= invariants.MAX_SUBSYSTEMS else 2  # -k 1 enumerates n subsystems
        runs = [
            (["entropy", path, "--keep", "0"], 0),
            (["invariants", "eval", path, "-k", "1"], enumerated),
            (["invariants", "eval", path, "--label", every_e], 0),
            (["invariants", "verify", path, "-k", "1", "--trials", "2"], enumerated),
            (["invariants", "verify", path, "--label", every_e], 0),
            (["factor", path], 0 if kind == "pure" else 2),
        ]
        for argv, code in runs:
            got, err = main(argv), capsys.readouterr().err
            assert "maximum supported dimension" not in err, (argv, err)
            if n > limit:
                assert got == 2 and f"dims has {n} entries" in err, (argv, err)
            else:
                assert got == code and "dims has" not in err, (argv, err)


# ------------------------------------------------------------- determinism


def test_output_deterministic(bell_path, capsys):
    args = ["invariants", "verify", bell_path, "-k", "2", "--trials", "5",
            "--seed", "9", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_parser_is_built_once_and_keeps_no_labels(bell_path, capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    assert main(["invariants", "eval", bell_path, "--label", "2; e | e"]) == 0
    first = capsys.readouterr().out
    assert main(["invariants", "eval", bell_path, "--label", "2; (12) | e"]) == 0
    second = capsys.readouterr().out
    assert main(["entropy", bell_path, "--keep", "0"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert first.splitlines() == ["2; e | e = 1+0j"]
    assert [line.split(" = ")[0] for line in second.splitlines()] == ["2; (12) | e"]


# ------------------------------------------------------- argument parsing

# help, argparse errors at either level, and namespaces, for every command
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["--"], ["--", "factor", "f.json"],
    ["-x", "factor", "f.json"], ["--json", "factor", "f.json"], ["-h", "factor"],
    ["factor"], ["factor", "-h"], ["factor", "f.json", "--bogus"], ["factor", "f.json", "extra"],
    ["factor", "f.json", "--truncate-c", "2"], ["factor", "f.json", "--truncate-chi", "x"],
    ["factor", "f.json", "--truncate-chi", "2", "--truncate-tol", "0.1"],
    ["factor", "f.json", "--truncate-tol", "1e-3", "--out", "c.json", "--json"],
    ["factor", "f.json", "--out"], ["factor", "--", "f.json"], ["factor", "f.json", "--"],
    ["factor", "factor"], ["factor", "f.json", "--he"], ["factor", "f.json", "-h", "--bogus"],
    ["invariants"], ["invariants", "-h"], ["invariants", "list", "--bogus"],
    ["invariants", "eval", "f.json", "extra"], ["invariants", "list", "-n", "2", "--tri", "3"],
    ["invariants", "list", "-n", "two"], ["invariants", "list", "-n", "2", "-n", "3"],
    ["invariants", "list", "-n2", "-k2"], ["invariants", "list", "-n", "5", "-k", "3", "--json"],
    ["invariants", "eval", "f.json", "--label", "2; e | e", "--label", "2; (12) | e"],
    ["invariants", "verify", "f.json", "-k", "2", "--trials", "3", "--seed", "-5"],
    ["invariants", "bogus"], ["invariants", "--json", "list"], ["invariants", "list", "--json=1"],
    ["invariants", "--", "list", "-n", "2"], ["invariants", "list", "-n", "2", "-k", "2", "factor"],
    ["entropy"], ["entropy", "-h"], ["entropy", "f.json", "--keep", "0", "--bogus"],
    ["entropy", "f.json", "extra", "--keep", "0"], ["entropy", "f.json", "--ke", "0", "--al", "2"],
    ["entropy", "f.json"], ["entropy", "f.json", "--keep=-1,0"], ["entropy", "f.json", "--keep", "0", "--alpha"],
    ["entropy", "f.json", "--keep", "0", "--", "x"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        args = vars(parse(list(argv)))
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    args["run"] = args["run"].__code__  # each build of the parser makes its own
    return ("args", args, *capsys.readouterr())


def test_one_pass_parse_matches_argparse_on_every_argv(capsys):
    assert len(PARSE_CORPUS) >= 42
    differ = [
        argv for argv in PARSE_CORPUS
        if _parse_outcome(cli._parse, argv, capsys)
        != _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    ]
    assert differ == []


def test_a_command_word_skips_the_top_level_parse(capsys, monkeypatch):
    top, calls = cli._parser(), []
    known = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self is top)
        return known(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert main(["invariants", "list", "-n", "2", "-k", "2", "--json"]) == 0
    assert calls == [False]  # the invariants parser alone
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2 and calls[1] is True
    assert "invalid choice" in capsys.readouterr().err
