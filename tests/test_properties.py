"""Property tests: the pure-state entropy route against the density route,
one planned call of many labels against each label on its own, and the
CLI's state loader on arbitrary and near-valid JSON."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tninv import perms  # noqa: E402
from tninv.cli import main  # noqa: E402
from tninv import (  # noqa: E402
    Spectrum,
    StateData,
    conjugate_tuple,
    density_from_pure,
    enumerate_invariants,
    evaluate_fast,
    evaluate_many,
    partial_trace,
    random_pure_state,
    reduced_power_label,
    renyi,
    von_neumann,
)


@st.composite
def pure_cuts(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    keep = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, unique=True))
    return dims, sorted(keep), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pure_cuts())
def test_pure_route_matches_density_route(case):
    dims, keep, seed = case
    psi = random_pure_state(dims, seed=seed)
    rho = density_from_pure(psi)
    pure = Spectrum.from_pure(psi, dims, keep)
    dense = Spectrum.from_density(partial_trace(rho, dims, keep))
    assert von_neumann(pure) == pytest.approx(von_neumann(dense), abs=1e-12)
    for k in (2, 3):
        assert renyi(pure, k) == pytest.approx(renyi(dense, k), abs=1e-12)
        t = reduced_power_label(len(dims), keep, k)
        want = evaluate_fast(t, rho, dims)
        assert abs(evaluate_fast(t, StateData.pure(psi), dims) - want) <= 1e-12 * abs(want)


@st.composite
def label_batches(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    k = draw(st.integers(1, 3))
    reps = st.sampled_from([c.representative for c in enumerate_invariants(len(dims), k)])
    picks = draw(st.lists(reps, min_size=1, max_size=6))
    taus = st.sampled_from(perms.all_perms(k))
    relabelled = [conjugate_tuple(t, draw(taus)) for t in picks]
    batch = draw(st.permutations(picks + picks[:2] + relabelled))
    return dims, picks, relabelled, batch, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(label_batches())
def test_planned_batch_matches_each_label_alone(case):
    dims, picks, relabelled, batch, seed = case
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    for state in (rho, StateData.pure(random_pure_state(dims, seed=seed))):
        assert evaluate_many(batch, state, dims) == [evaluate_fast(t, state, dims) for t in batch]
        got = evaluate_many(picks + relabelled, state, dims)
        for want, value in zip(got, got[len(picks):]):
            assert abs(value - want) <= 1e-12 * abs(want)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def state_documents(draw):
    """A valid state, then perhaps one of its kind, dims or pairs spoiled."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    d = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    kind = draw(st.sampled_from(["pure", "density"]))
    arr = psi if kind == "pure" else np.outer(psi, psi.conj())
    doc = {"kind": kind, "dims": dims, "data": np.stack([arr.real, arr.imag], -1).tolist()}
    spoil = draw(st.sampled_from(["none", "kind", "dims", "pair", "scale", "json"]))
    if spoil == "kind":
        doc["kind"] = draw(st.sampled_from(["mps", "PURE", "", None, 3]))
    elif spoil == "dims":
        doc["dims"] = draw(st.lists(st.sampled_from([0, -1, 1.5, 2.0, True, "2", 10**20, None]),
                                    max_size=3) | json_values)
    elif spoil == "pair":
        flat = doc["data"] if kind == "pure" else doc["data"][0]
        flat[draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([[1.0], [0.0, 0.0, 0.0], "x", None, [float("nan"), 0.0],
                             [float("inf"), 0.0], [1e308, 1e308], [True, False]]) | json_values
        )
    elif spoil == "scale":
        doc["data"] = (2.0 * np.stack([arr.real, arr.imag], -1)).tolist()
    elif spoil == "json":
        doc[draw(st.sampled_from(["kind", "dims", "data"]))] = draw(json_values)
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_values | state_documents())
def test_loader_never_lets_an_exception_escape(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["entropy", path, "--keep", "0"],
            ["invariants", "eval", path, "-k", "2"],
            ["invariants", "verify", path, "-k", "2", "--trials", "1"],
            ["factor", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()
