"""Property tests: the pure-state entropy route against the density route."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tninv import (  # noqa: E402
    Spectrum,
    StateData,
    density_from_pure,
    evaluate_fast,
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
