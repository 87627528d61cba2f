import json
from pathlib import Path

import numpy as np
import pytest

from tninv.states import as_operator
from tninv import (
    Spectrum,
    StateData,
    StateFileError,
    Tensor,
    ShapeError,
    apply_local_unitary,
    bipartition_density,
    density_from_pure,
    group_legs,
    load_state,
    partial_trace,
    random_local_unitary,
    random_pure_state,
    save_state,
)


# ----------------------------------------------------------- serialization


def test_pure_roundtrip_bit_identical(tmp_path):
    psi = random_pure_state((2, 2, 2), seed=8)
    path = tmp_path / "psi.json"
    save_state(StateData.pure(psi), path)
    back = load_state(path)
    assert back.kind == "pure"
    assert back.dims == (2, 2, 2)
    assert np.array_equal(back.tensor.data, psi.data)


def test_density_roundtrip_bit_identical(tmp_path):
    rho = density_from_pure(random_pure_state((2, 3), seed=9))
    path = tmp_path / "rho.json"
    save_state(StateData.density(rho, (2, 3)), path)
    back = load_state(path)
    assert back.kind == "density"
    assert back.dims == (2, 3)
    assert np.array_equal(back.tensor.data, rho.data)


def test_saved_bell_state_matches_readme(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    bell = Tensor(np.array([[1, 0], [0, 1]]) * np.sqrt(0.5))
    path = tmp_path / "bell.json"
    save_state(StateData.pure(bell), path)
    assert path.read_text(encoding="utf-8") == example


def test_load_rejects_wrong_trace(tmp_path):
    bad = [
        ("density", [2], 0.9 * np.eye(2) / 2, "trace"),
        ("pure", [2], np.array([3.0, 0.0]), "norm"),
        ("density", [2], np.diag([1.5, -0.5]), "negative eigenvalue"),
    ]
    for i, (kind, dims, arr, match) in enumerate(bad):
        pairs = np.stack([arr.real, np.zeros_like(arr)], -1).tolist()
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({"kind": kind, "dims": dims, "data": pairs}))
        with pytest.raises(StateFileError, match=match):
            load_state(path)


def test_load_rejects_non_hermitian(tmp_path):
    # the second matrix is also not PSD; hermiticity is checked first
    for i, mat in enumerate([[[0.5, 0.5], [0.0, 0.5]], [[1.5, 1.0], [0.0, -0.5]]]):
        doc = {
            "kind": "density",
            "dims": [2],
            "data": [[[float(z), 0.0] for z in row] for row in mat],
        }
        path = tmp_path / f"nh{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError, match="hermiticity"):
            load_state(path)


def test_load_rejects_malformed_dims(tmp_path):
    bad = [
        {"kind": "pure", "dims": [2, 2], "data": [[1.0, 0.0]] * 3},
        {"kind": "pure", "dims": [2, 2.5], "data": [[1.0, 0.0]] * 4},
        {"kind": "pure", "dims": [True, 2], "data": [[1.0, 0.0]] * 2},
        {"kind": "pure", "dims": ["2"], "data": [[1.0, 0.0]] * 2},
        {"kind": "pure", "dims": 2, "data": [[1.0, 0.0]] * 2},
        {"kind": "pure", "dims": [], "data": []},
    ]
    for i, doc in enumerate(bad):
        path = tmp_path / f"dims{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError):
            load_state(path)
    # an integral float is still a dimension
    path = tmp_path / "float_dims.json"
    path.write_text(json.dumps({"kind": "pure", "dims": [2.0], "data": [[1.0, 0.0], [0.0, 0.0]]}))
    assert load_state(path).dims == (2,)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state(path)
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"kind": "pure"}))
    with pytest.raises(StateFileError):
        load_state(path2)
    nan = float("nan")
    bad = [
        "3",
        "[1, 2]",
        json.dumps({"kind": "pure", "dims": [2], "data": 5}),
        json.dumps({"kind": "density", "dims": [1], "data": [5]}),
        json.dumps({"kind": "pure", "dims": [2], "data": [[1.0, 0.0], [None, 0.0]]}),
        json.dumps({"kind": "pure", "dims": [2], "data": [[nan, 0.0], [0.0, 0.0]]}),
        json.dumps({"kind": "pure", "dims": [1], "data": [[1.0, float("inf")]]}),
        json.dumps({"kind": "density", "dims": [1], "data": [[[nan, 0.0]]]}),
        json.dumps({"kind": "pure", "dims": [2], "data": [[1.0, 0.0, 0.0]] * 2}),
        json.dumps({"kind": "pure", "dims": [2], "data": [[1.0, 0.0], "ab"]}),
        json.dumps({"kind": "pure", "dims": [1], "data": [[1.0, {"im": 0.0}]]}),
        '{"kind": "pure", "dims": [1], "data": [[1%s, 0]]}' % ("0" * 400),
        "[" * 100_000 + "]" * 100_000,
    ]
    for i, text in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        with pytest.raises(StateFileError):
            load_state(path)


# --------------------------------------------------------------- generators


def test_random_pure_state_normalized():
    psi = random_pure_state((2, 3, 2), seed=5)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.dims == (2, 3, 2)


def test_random_pure_state_deterministic():
    a = random_pure_state((2, 2), seed=123)
    b = random_pure_state((2, 2), seed=123)
    assert np.array_equal(a.data, b.data)
    c = random_pure_state((2, 2), seed=124)
    assert not np.array_equal(a.data, c.data)


def test_random_pure_state_haar_moment():
    # single-qubit <|amplitude_0|^2> = 1/2 over many samples
    total = 0.0
    n = 10_000
    for seed in range(n):
        psi = random_pure_state((2,), seed=seed)
        total += abs(psi.data[0]) ** 2
    assert abs(total / n - 0.5) < 0.02


def test_random_local_unitary_unitarity():
    us = random_local_unitary((2, 3, 4), seed=3)
    assert [u.shape for u in us] == [(2, 2), (3, 3), (4, 4)]
    for u in us:
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


def test_random_local_unitary_roundtrip_on_state():
    psi = random_pure_state((2, 2), seed=6)
    rho = density_from_pure(psi)
    us = random_local_unitary((2, 2), seed=7)
    rotated = apply_local_unitary(rho, (2, 2), us)
    back = apply_local_unitary(rotated, (2, 2), [u.conj().T for u in us])
    assert np.max(np.abs(back.data - rho.data)) < 1e-12


def test_apply_local_unitary_matches_kron():
    dims = (2, 3, 4)
    rng = np.random.default_rng(31)
    op = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    us = random_local_unitary(dims, seed=5)
    full = np.kron(np.kron(us[0], us[1]), us[2])
    want = full @ op @ full.conj().T
    got = apply_local_unitary(op, dims, us)
    assert got.dims == (24, 24)
    assert np.max(np.abs(got.data - want)) < 1e-12
    with pytest.raises(ShapeError):
        apply_local_unitary(op, dims, us[::-1])  # a 4 x 4 factor on the qubit
    with pytest.raises(ShapeError):
        apply_local_unitary(op, dims, us[:2])


def test_apply_local_unitary_rotates_pure_state_data():
    dims = (2, 3, 4)
    psi = random_pure_state(dims, seed=32)
    us = random_local_unitary(dims, seed=33)
    got = apply_local_unitary(StateData.pure(psi), dims, us)
    assert got.kind == "pure" and got.dims == dims
    want = apply_local_unitary(density_from_pure(psi), dims, us)
    assert np.max(np.abs(density_from_pure(got.tensor).data - want.data)) < 1e-12
    # the same state given as an operator StateData takes the operator route
    rotated = apply_local_unitary(StateData.density(density_from_pure(psi), dims), dims, us)
    assert np.array_equal(rotated.data, want.data)
    with pytest.raises(ShapeError):
        apply_local_unitary(StateData.pure(psi), dims, us[::-1])
    with pytest.raises(ShapeError):
        apply_local_unitary(StateData.pure(psi), dims, us[:2])


def test_as_operator_reads_density_state_data_only():
    psi = random_pure_state((2, 3), seed=34)
    rho = density_from_pure(psi)
    mat = as_operator(StateData.density(rho, (2, 3)), (2, 3))
    assert mat.shape == (6, 6) and np.array_equal(mat, rho.data)
    with pytest.raises(ShapeError, match="pure state is not read as an operator"):
        as_operator(StateData.pure(psi), (2, 3))


def test_random_local_unitary_phase_uniformity():
    # first moment of the entry phases vanishes for a Haar ensemble
    total = 0.0 + 0.0j
    count = 0
    for seed in range(1000):
        u = random_local_unitary((2,), seed=seed)[0]
        col = u[:, 0]
        total += np.sum(col / np.abs(col))
        count += 2
    assert abs(total / count) < 0.05


def test_random_local_unitary_deterministic():
    a = random_local_unitary((2, 2), seed=11)
    b = random_local_unitary((2, 2), seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# ------------------------------------------------------------ partial trace


def test_partial_trace_keep_all_is_identity():
    rho = density_from_pure(random_pure_state((2, 3), seed=1))
    out = partial_trace(rho, (2, 3), [0, 1])
    assert np.allclose(out.data, rho.data, atol=1e-14)


def test_partial_trace_bell():
    bell = Tensor(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    rho = density_from_pure(bell)
    red = partial_trace(rho, (2, 2), [0])
    assert np.allclose(red.data, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    psi = random_pure_state((2, 2, 3), seed=14)
    rho = density_from_pure(psi)
    red = partial_trace(rho, (2, 2, 3), [1, 2])
    assert abs(np.trace(red.data) - 1.0) < 1e-10
    evals = np.linalg.eigvalsh(red.data)
    assert evals.min() > -1e-10


def test_partial_trace_complementary_spectra_match():
    psi = random_pure_state((2,) * 5, seed=15)
    rho = density_from_pure(psi)
    sa = np.linalg.eigvalsh(partial_trace(rho, (2,) * 5, [0, 1]).data)
    sb = np.linalg.eigvalsh(partial_trace(rho, (2,) * 5, [2, 3, 4]).data)
    sa = np.sort(sa)[::-1]
    sb = np.sort(sb)[::-1][: len(sa)]
    assert np.max(np.abs(sa - sb)) < 1e-10


def test_partial_trace_rejects_bad_keep():
    rho = density_from_pure(random_pure_state((2, 2), seed=1))
    with pytest.raises(ShapeError):
        partial_trace(rho, (2, 2), [])
    with pytest.raises(ShapeError):
        partial_trace(rho, (2, 2), [2])


def test_cut_matrix_gram_is_reduced_operator():
    psi = random_pure_state((2, 3, 2), seed=17)
    rho = density_from_pure(psi)
    for keep in ([0], [1], [0, 2], [2, 0, 2], [0, 1, 2]):
        kept = sorted(set(keep))
        bent = group_legs(psi, (kept, [i for i in range(3) if i not in kept])).data
        red = partial_trace(rho, (2, 3, 2), keep)
        mat = bent.reshape(red.dims[0], -1)
        assert mat.shape == (red.dims[0], 12 // red.dims[0])
        assert np.max(np.abs(mat @ mat.conj().T - red.data)) < 1e-14
        nonzero = np.sort(Spectrum.from_state(StateData.pure(psi), keep).probs)[::-1]
        want = np.sort(np.linalg.eigvalsh(red.data))[::-1][: nonzero.size]
        assert np.max(np.abs(nonzero - want)) < 1e-14


def test_cut_refuses_negative_and_out_of_range_keep():
    psi = random_pure_state((2, 2), seed=18)
    rho = density_from_pure(psi)
    for keep in ([], [-1], [0, 2]):
        for state in (StateData.pure(psi), StateData.density(rho, (2, 2))):
            with pytest.raises(ShapeError):
                Spectrum.from_state(state, keep)
        with pytest.raises(ShapeError):
            partial_trace(rho, (2, 2), keep)
        with pytest.raises(ShapeError):
            bipartition_density(rho, (2, 2), keep)


def test_bipartition_density_groups_blocks():
    psi = random_pure_state((2, 3, 2), seed=16)
    rho = density_from_pure(psi)
    grouped, (dk, dr) = bipartition_density(rho, (2, 3, 2), [0, 2])
    assert (dk, dr) == (4, 3)
    # the kept block's reduced operator agrees with a direct partial trace
    red_direct = partial_trace(rho, (2, 3, 2), [0, 2])
    red_grouped = partial_trace(grouped, (4, 3), [0])
    # both order the kept subsystems ascending, so same matrix
    assert np.max(np.abs(red_direct.data - red_grouped.data)) < 1e-12
