import itertools
import json
import tracemalloc

import numpy as np
import pytest

from tninv import cli, invariants, states
from tninv import (
    StateData,
    Tensor,
    density_from_pure,
    mps_factor,
    random_pure_state,
    save_state,
)
from tninv.cli import main


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
    assert max(doc["values"]["bond_dims"]) <= 2


def test_factor_writes_chain(tmp_path, capsys):
    psi = random_pure_state((2, 3, 2, 2), seed=36)
    path = tmp_path / "r4.json"
    save_state(StateData.pure(psi), path)
    out_path = tmp_path / "chain.json"
    assert main(["factor", str(path), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "mps"
    assert doc["phys_dims"] == [2, 3, 2, 2]
    sites = []
    for pairs, shape in zip(doc["sites"], doc["site_shapes"]):
        arr = np.array(pairs)
        assert arr.shape == (shape[0] * shape[1], shape[2], 2)
        sites.append(arr.view(np.complex128).reshape(shape))
    for site, want in zip(sites, mps_factor(psi).sites):
        assert site.tobytes() == want.data.tobytes()
    rebuilt = np.ones((1, 1))
    for site in sites:
        rebuilt = np.tensordot(rebuilt, site, axes=(-1, 0))
    overlap = np.vdot(psi.data.reshape(-1), rebuilt.reshape(-1))
    assert abs(overlap) ** 2 >= 1 - 1e-12


def test_factor_unwritable_out_exits_2(product4_path, tmp_path, capsys):
    out_path = tmp_path / "missing" / "chain.json"
    assert main(["factor", product4_path, "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_factor_rejects_density_input(tmp_path, capsys):
    rho = density_from_pure(random_pure_state((2, 2), seed=1))
    path = tmp_path / "rho.json"
    save_state(StateData.density(rho, (2, 2)), path)
    assert main(["factor", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_file_fails_loudly(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{oops")
    assert main(["factor", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_state_file_exits_2(tmp_path, capsys):
    for i, text in enumerate(["3", '{"kind": "pure", "dims": [2], "data": 5}',
                              '{"kind": "pure", "dims": [2], "data": [[NaN, 0], [0, 0]]}']):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        assert main(["entropy", str(path), "--keep", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


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
    calls = []
    fmt = invariants.format_label
    monkeypatch.setattr(invariants, "format_label", lambda t: calls.append(t) or fmt(t))
    count = len(invariants.enumerate_invariants(2, 3))
    assert main(["invariants", "list", "-n", "2", "-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == len(lines) == count
    assert [line.split("  ")[0] for line in lines] == [fmt(t) for t in calls]
    assert main(["invariants", "list", "-n", "2", "-k", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["labels"] == [fmt(t) for t in calls[count:]]


def test_invariants_list_too_many_tuples_exits_2(capsys):
    assert main(["invariants", "list", "-n", "9", "-k", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
    assert main(["invariants", "eval", bell_path, "--label", "nope"]) == 2


def test_invariants_label_subsystem_mismatch(bell_path, capsys):
    assert main(["invariants", "eval", bell_path, "--label", "2; (12)"]) == 2


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


def test_entropy_bad_keep(bell_path, capsys):
    assert main(["entropy", bell_path, "--keep", "5"]) == 2


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
    for option, text in (("--keep", "a"), ("--keep", "0.5"), ("--alpha", "2,,3")):
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


def test_entropy_fuses_operator_once_per_keep(tmp_path, capsys, monkeypatch):
    psi, pure, rho = _pure_and_density_files(tmp_path, (2, 3, 2, 2), seed=45)
    calls = []
    fuse = invariants._Network.fuse

    def spy(net, src):
        calls.append(src.pure)
        return fuse(net, src)

    monkeypatch.setattr(invariants._Network, "fuse", spy)
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
    monkeypatch.setattr(cli, "_parser", None)
    assert main(["invariants", "eval", bell_path, "--label", "2; e | e"]) == 0
    first = capsys.readouterr().out
    assert main(["invariants", "eval", bell_path, "--label", "2; (12) | e"]) == 0
    second = capsys.readouterr().out
    assert main(["entropy", bell_path, "--keep", "0"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert first.splitlines() == ["2; e | e = 1+0j"]
    assert [line.split(" = ")[0] for line in second.splitlines()] == ["2; (12) | e"]
