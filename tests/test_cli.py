import json

import numpy as np
import pytest

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


# ------------------------------------------------------------- determinism


def test_output_deterministic(bell_path, capsys):
    args = ["invariants", "verify", bell_path, "-k", "2", "--trials", "5",
            "--seed", "9", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
