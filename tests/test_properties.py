"""Property tests: the pure-state entropy route against the density route,
and one planned call of many labels against each label on its own."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tninv import perms  # noqa: E402
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
