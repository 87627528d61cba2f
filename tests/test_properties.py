"""Property tests: the pure-state entropy route against the density route,
one planned call of many labels against each label on its own, LU
invariance, the component product rule, invariance under relabelling the
copies, label and state-file round trips, label text that parses back or
is refused, the CLI's state loader on arbitrary and near-valid JSON, a
file rewritten after the loader's memo has kept it, and the CLI's
``--json`` writer against stdlib ``json.dumps``."""

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
from tninv import cli  # noqa: E402
from tninv.cli import main  # noqa: E402
from tninv import (  # noqa: E402
    PermTuple,
    Spectrum,
    StateData,
    StateFileError,
    Tensor,
    canonicalize,
    component_subtuples,
    conjugate_tuple,
    density_from_pure,
    enumerate_invariants,
    evaluate_fast,
    evaluate_many,
    format_label,
    load_state,
    parse_label,
    partial_trace,
    random_pure_state,
    reduced_power_label,
    renyi,
    save_state,
    verify_classes,
    von_neumann,
)

from test_states import DENSITY_LIMIT, PURE_LIMIT  # noqa: E402


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
    pure = Spectrum.from_state(StateData.pure(psi), keep)
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


def random_density(dims, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T / np.trace(a @ a.conj().T)


@st.composite
def class_samples(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    k = draw(st.integers(1, 3))
    reps = st.sampled_from([c.representative for c in enumerate_invariants(len(dims), k)])
    return dims, draw(st.lists(reps, min_size=1, max_size=4)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(class_samples())
def test_classes_are_lu_invariant_on_both_routes(case):
    dims, tuples, seed = case
    pure = StateData.pure(random_pure_state(dims, seed=seed))
    rho = StateData.density(Tensor(random_density(dims, seed)), dims)
    for state in (pure, rho):
        assert max(verify_classes(tuples, state, dims, trials=3, seed=seed)) <= 1e-9


@st.composite
def any_tuples(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    k = draw(st.integers(1, 4))
    sigmas = draw(st.lists(st.permutations(range(k)), min_size=len(dims), max_size=len(dims)))
    return dims, PermTuple(k, tuple(map(tuple, sigmas))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(any_tuples())
def test_value_is_product_over_components(case):
    dims, t, seed = case
    rho = random_density(dims, seed)
    want = evaluate_fast(t, rho, dims)
    got = np.prod([evaluate_fast(c, rho, dims) for c in component_subtuples(t)])
    assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(any_tuples(), st.data())
def test_relabelling_the_copies_changes_nothing(case, data):
    dims, t, seed = case
    relabelled = conjugate_tuple(t, data.draw(st.permutations(range(t.k))))
    assert canonicalize(relabelled) == canonicalize(t)
    rho = StateData.density(Tensor(random_density(dims, seed)), dims)
    for state in (rho, StateData.pure(random_pure_state(dims, seed=seed))):
        want = evaluate_fast(t, state, dims)
        assert abs(evaluate_fast(relabelled, state, dims) - want) <= 1e-12 * abs(want)


@st.composite
def any_labels(draw):
    k = draw(st.integers(1, 12))  # past 9, cycle points are separated by spaces
    n = draw(st.integers(1, 4))
    sigmas = draw(st.lists(st.permutations(range(k)), min_size=n, max_size=n))
    return PermTuple(k, tuple(map(tuple, sigmas)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(any_labels())
def test_labels_round_trip(t):
    assert parse_label(format_label(t)) == t


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="0123456789()|;, e\t", max_size=30))
def test_label_text_parses_back_or_raises_value_error(text):
    try:
        t = parse_label(text)
    except ValueError:
        return
    assert parse_label(format_label(t)) == t


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_state_files_round_trip_bitwise(dims, seed):
    psi = random_pure_state(dims, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        for state in (StateData.pure(psi), StateData.density(density_from_pure(psi), dims)):
            save_state(state, path)
            back = load_state(path)
            assert (back.kind, back.dims) == (state.kind, state.dims)
            assert back.tensor.data.tobytes() == state.tensor.data.tobytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


ONES_LENGTHS = (DENSITY_LIMIT, DENSITY_LIMIT + 1, PURE_LIMIT, PURE_LIMIT + 1)


@st.composite
def state_documents(draw):
    """A valid state, then perhaps one of its kind, dims or pairs spoiled.

    Its dims are at most three small entries, or a run of 1s as long as
    either kind may have or one longer.
    """
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                | st.sampled_from(ONES_LENGTHS).map(lambda n: [1] * n))
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


def _outcome(path):
    """What loading ``path`` gives: kind, dims and bits, or the error text."""
    try:
        back = load_state(path)
    except StateFileError as exc:
        return str(exc)
    return back.kind, back.dims, back.tensor.data.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       state_documents())
def test_rewritten_memoised_file_loads_as_a_fresh_one(dims, seed, doc):
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as other:
        path, fresh = os.path.join(tmp, "state.json"), os.path.join(other, "state.json")
        save_state(StateData.pure(random_pure_state(dims, seed=seed)), path)
        for _ in range(2):  # the second load keeps its digest and array
            assert isinstance(_outcome(path), tuple)
        for target in (path, fresh):
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        want = _outcome(fresh)
        if isinstance(want, str):
            want = want.replace(fresh, path)
        for _ in range(2):  # parsed again, then perhaps kept and hit
            assert _outcome(path) == want


# Text stdlib quotes as it is, and text it escapes: non-ASCII, '"', '\\',
# control characters and DEL.
writer_texts = st.text(alphabet="ab (12)|;e", max_size=8) | st.text(
    alphabet=st.sampled_from('a"\\\x00\x1f\n\x7f\xe9\u03c3\U0001f600') | st.characters(), max_size=8
)
writer_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e-05, 1e16, 0.1, 1.0]
)
writer_pairs = st.lists(writer_floats, min_size=2, max_size=2)
writer_leaves = st.none() | st.booleans() | st.integers() | writer_floats | writer_texts
# each kind of block the writer decides at once (all str, all float, float
# pairs), and mixed ones
writer_documents = st.recursive(
    writer_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(writer_texts, children, max_size=4)
    | st.lists(writer_texts, max_size=6)
    | st.lists(writer_floats, max_size=6)
    | st.lists(writer_pairs, max_size=4)
    | st.dictionaries(writer_texts, writer_pairs, max_size=4)
    | st.dictionaries(writer_texts, writer_floats, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(writer_documents)
def test_json_writer_equals_stdlib(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)
