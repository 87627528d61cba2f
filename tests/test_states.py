import gc
import json
import os
import threading
import weakref
from pathlib import Path

import numpy as np
import orjson
import pytest

from tninv import cli, decompose, states
from tninv.states import MAX_COMPONENT, MAX_DEPTH, PSD_TOL, _decode, as_operator, random_local_unitaries
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
    mps_factor,
    partial_trace,
    random_local_unitary,
    random_pure_state,
    save_chain,
    save_state,
)


def numpy_axis_limit() -> int:
    """The most axes numpy gives an array (32 on 1.x, 64 on 2.x), probed as the state rule does."""
    axes = 1
    while True:
        try:
            np.empty((1,) * (axes + 1))
        except ValueError:
            return axes
        axes += 1


# A stack of n-subsystem states takes 1 + n axes as psi and 1 + 2n as an operator.
PURE_LIMIT = numpy_axis_limit() - 1
DENSITY_LIMIT = (numpy_axis_limit() - 1) // 2


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


def bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


# Components a shortest-repr writer must spell exactly: signed zero, the
# smallest subnormal, the smallest normal and the largest subnormal, values
# near the top of the range, and values that need all 17 digits.
EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -9.999999999999999e307, 1e308,
         0.30000000000000004, 1.0000000000000002, 1e-05, 1.2345678901234567e-7]


def edge_operators():
    """A pure state and a density operator whose components include EDGES.

    The huge edges cannot sit in a state that passes the loader's norm and
    trace checks, so each kind also comes with an unvalidated array of all
    of them.
    """
    small = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                      1e-05, 1.2345678901234567e-7, 0.30000000000000004, -0.0])
    psi = small[:4] + 1j * small[4:]
    psi = np.append(psi, np.sqrt(1 - np.vdot(psi, psi).real) + -0.0j)
    diag = np.array([0.30000000000000004, 5e-324, 2.2250738585072014e-308, 1e-05])
    rho = np.diag(np.append(diag, 1 - diag.sum())) + -0.0j
    rho[0, 1], rho[1, 0] = 1e-7 + 5e-324j, 1e-7 - 5e-324j
    raw = np.array(EDGES[::2]) + 1j * np.array(EDGES[1::2] + [-0.0])
    return [StateData.pure(Tensor(psi)), StateData.density(Tensor(rho), (5,)),
            StateData.pure(Tensor(raw)), StateData.density(Tensor(np.diag(raw)), (6,))]


def test_edge_components_round_trip_bitwise(tmp_path):
    path = tmp_path / "edge.json"
    for i, state in enumerate(edge_operators()):
        save_state(state, path)
        want = state.tensor.data
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert bits(np.array(doc["data"]).view(np.complex128).reshape(want.shape)) == bits(want)
        assert bits(_decode(orjson.loads(path.read_bytes())["data"], want.shape)) == bits(want)
        if i < 2:  # the two that are valid states
            assert bits(load_state(path).tensor.data) == bits(want)


def test_random_doubles_round_trip_through_both_codecs(tmp_path):
    # random bit patterns cover every exponent, subnormals and both zeros
    rng = np.random.default_rng(2024)
    comps = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    comps = np.append(comps[np.isfinite(comps)], [0.0, -0.0, 5e-324, -5e-324])
    comps = comps[: comps.size // 2 * 2].view(np.complex128)
    path = tmp_path / "raw.json"
    save_state(StateData.pure(Tensor(comps)), path)  # unvalidated: only the codec
    stdlib = np.array(json.loads(path.read_text(encoding="utf-8"))["data"])
    assert bits(stdlib.view(np.complex128).ravel()) == bits(comps)
    path.write_text(json.dumps({"data": np.stack([comps.real, comps.imag], -1).tolist()}))
    assert bits(_decode(orjson.loads(path.read_bytes())["data"], comps.shape)) == bits(comps)


def test_load_state_hands_tensor_an_array_it_owns(tmp_path, monkeypatch):
    psi = random_pure_state((2, 3, 2), seed=4)
    states = [StateData.pure(psi), StateData.density(density_from_pure(psi), (2, 3, 2))]
    for i, state in enumerate(states):
        save_state(state, tmp_path / f"s{i}.json")
    wrap, owned = Tensor._wrap, []
    monkeypatch.setattr(Tensor, "_wrap", staticmethod(lambda arr: owned.append(arr.flags.owndata) or wrap(arr)))
    for i, state in enumerate(states):
        back = load_state(tmp_path / f"s{i}.json")
        assert back.tensor.dims == state.tensor.dims
        assert bits(back.tensor.data) == bits(state.tensor.data)
    assert owned == [True, True]


def factor_json(path, *flags) -> str:
    """``tninv factor path --json`` through the CLI's own command, as a document."""
    args = cli._parse(["factor", str(path), *flags, "--json"])
    return args.run(args).render(True)


@pytest.fixture
def counted_factor(monkeypatch):
    """The policies that ``mps_factor`` ran with, one a call."""
    made = []
    monkeypatch.setattr(decompose, "mps_factor", lambda psi, chi=None, tol=None:
                        made.append((chi, tol)) or mps_factor(psi, chi, tol))
    return made


@pytest.fixture
def empty_memo(monkeypatch):
    """A load memo of its own, restored after the test."""
    monkeypatch.setattr(states, "_memo", type(states._memo)())
    monkeypatch.setattr(states, "_memo_bytes", 0)


def test_third_load_shares_the_second_loads_array(tmp_path, counted_factor):
    psi = random_pure_state((2, 3, 2), seed=6)
    for state in (StateData.pure(psi), StateData.density(density_from_pure(psi), (2, 3, 2))):
        path = tmp_path / f"{state.kind}.json"
        save_state(state, path)
        first = load_state(path)
        first_ref = weakref.ref(first.tensor.data)
        second, third = load_state(path), load_state(path)
        for back in (first, second, third):
            assert (back.kind, back.dims) == (state.kind, state.dims)
            assert bits(back.tensor.data) == bits(state.tensor.data)
        assert third is not second and third.tensor.data is second.tensor.data
        assert not third.tensor.data.flags.writeable
        del first
        gc.collect()
        assert first_ref() is None  # the memo kept only a mark of the first read
    # factor's chain and fidelity are kept with the array: the first two reads
    # factor, the second keeps what it made, and later reads are served it
    path = str(tmp_path / "pure_factor.json")
    save_state(StateData.pure(psi), path)
    docs = [factor_json(path) for _ in range(4)]
    assert docs == [docs[0]] * 4 and counted_factor == [(None, None)] * 2
    entry = states._memo[path]
    (chain, fid), nbytes = entry.derived[None, None]
    assert nbytes == sum(s.data.nbytes for s in chain.sites) + sum(s.nbytes for s in chain.bond_sigmas)
    assert json.loads(docs[0])["values"]["fidelity"] == fid


def test_factor_of_rewritten_bytes_gives_the_new_states_chain(tmp_path, counted_factor):
    path, fresh = str(tmp_path / "psi.json"), str(tmp_path / "fresh.json")
    save_state(StateData.pure(random_pure_state((2,) * 6, seed=12)), path)
    old = [factor_json(path) for _ in range(3)]
    other = StateData.pure(random_pure_state((2,) * 6, seed=13))
    for target in (path, fresh):
        save_state(other, target)
    new = [factor_json(path) for _ in range(3)]  # parsed afresh and kept, then served
    assert new == [factor_json(fresh)] * 3 and new[0] != old[0]
    assert len(counted_factor) == 2 + 1 + 1


def test_factor_policies_on_one_file_never_serve_each_other(tmp_path, counted_factor):
    path = str(tmp_path / "psi.json")
    save_state(StateData.pure(random_pure_state((2,) * 6, seed=14)), path)
    policies = ((), ("--truncate-chi", "2"), ("--truncate-tol", "0.1"))
    want = {}
    for i, flags in enumerate(policies):  # each policy's document from a path of its own
        alone = str(tmp_path / f"alone{i}.json")
        save_state(load_state(path), alone)
        want[flags] = factor_json(alone, *flags)
    assert len(set(want.values())) == 3
    for _ in range(3):
        for flags in policies:
            assert factor_json(path, *flags) == want[flags], flags
    assert set(states._memo[path].derived) == {(None, None), (2, None), (None, 0.1)}


def test_derived_value_is_served_only_to_the_entrys_own_tensor(tmp_path):
    path = str(tmp_path / "psi.json")
    save_state(StateData.pure(random_pure_state((2, 2), seed=15)), path)
    kept = [load_state(path) for _ in range(2)][1]
    assert states._derived(path, kept, "key", lambda: ("kept", 16)) == "kept"
    assert states._derived(path, kept, "key", lambda: ("made", 16)) == "kept"
    twin = StateData.pure(Tensor(kept.tensor.data.copy()))  # equal bits, another tensor
    assert states._derived(path, twin, "key", lambda: ("made", 16)) == "made"
    assert states._memo[path].derived == {"key": ("kept", 16)}


def test_rewritten_file_past_the_budget_reads_no_older_chain(tmp_path, monkeypatch, empty_memo):
    monkeypatch.setattr(states, "LOAD_MEMO_BYTES", 64 * 1024)
    path, fresh = str(tmp_path / "psi.json"), str(tmp_path / "fresh.json")
    save_state(StateData.pure(random_pure_state((2,) * 6, seed=16)), path)
    for _ in range(3):
        factor_json(path)
    entry = states._memo[path]
    assert (None, None) in entry.derived
    large = StateData.pure(random_pure_state((2,) * 13, seed=17))  # 128 KiB: never kept
    for target in (path, fresh):
        save_state(large, target)
    charged = states._memo_bytes
    got = factor_json(path)
    # the older entry is dropped to a mark, and its array and chain with it
    assert states._memo[path] is None
    assert charged - states._memo_bytes == states._charge(entry) - states._charge(None)
    assert got == factor_json(fresh)


def test_rewritten_file_is_parsed_again_whatever_its_mtime(tmp_path):
    path = tmp_path / "psi.json"
    save_state(StateData.pure(random_pure_state((2, 2, 2), seed=7)), path)
    for _ in range(2):
        load_state(path)
    before = os.stat(path)
    other = random_pure_state((2, 2, 2), seed=8)
    save_state(StateData.pure(other), path)
    assert os.stat(path).st_size == before.st_size  # same length, other bytes
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert bits(load_state(path).tensor.data) == bits(other.data)
    assert bits(load_state(path).tensor.data) == bits(other.data)


def test_rewritten_invalid_file_is_refused_as_before(tmp_path):
    path, fresh = tmp_path / "psi.json", tmp_path / "fresh.json"
    save_state(StateData.pure(random_pure_state((2, 2), seed=9)), path)
    for _ in range(3):
        load_state(path)
    bad = {"kind": "pure", "dims": [2, 2], "data": [[1.0, 0.0]] * 4}
    for target in (path, fresh):
        target.write_text(json.dumps(bad))
    with pytest.raises(StateFileError) as exc:
        load_state(fresh)
    with pytest.raises(StateFileError, match="squared norm 4, not 1") as memo_exc:
        load_state(path)
    assert str(memo_exc.value) == str(exc.value).replace("fresh.json", "psi.json")


def test_load_memo_holds_at_most_its_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(states, "LOAD_MEMO_BYTES", 64 * 1024)
    chains = 0
    for i in range(24):
        n = (4, 8, 10, 13)[i % 4]  # arrays under a page, of a page, of 16 KiB, past the budget
        path = str(tmp_path / f"psi{i}.json")
        save_state(StateData.pure(random_pure_state((2,) * n, seed=i)), path)
        for read in range(3):
            (load_state if read == 0 else factor_json)(path)
            kept = [k for k in states._memo.values() if k is not None]
            held = [k.tensor.data.nbytes + sum(b for _, b in k.derived.values()) for k in kept]
            assert sum(held) <= states.LOAD_MEMO_BYTES
            assert states._memo_bytes == sum(map(states._charge, states._memo.values()))
            assert states._memo_bytes <= states.LOAD_MEMO_BYTES
        assert (states._memo[path] is None) == (n == 13)  # too large: its mark stays
        chains += n != 13 and bool(states._memo[path].derived)
    assert chains > 0  # some chains were charged beside their arrays


def test_chain_past_the_budget_is_not_kept(tmp_path, monkeypatch, empty_memo, counted_factor):
    monkeypatch.setattr(states, "LOAD_MEMO_BYTES", 64 * 1024)
    path = str(tmp_path / "psi.json")
    save_state(StateData.pure(random_pure_state((2,) * 12, seed=18)), path)  # 64 KiB: fits alone
    docs = [factor_json(path) for _ in range(2)]  # a mark, then the array alone
    entry = states._memo[path]
    assert entry is not None and entry.derived == {} and states._memo_bytes == 64 * 1024
    docs.append(factor_json(path))  # a hit on the array; the chain is made again
    assert docs == [docs[0]] * 3 and len(counted_factor) == 3
    assert states._memo[path] is entry and entry.derived == {} and states._memo_bytes == 64 * 1024


def test_threads_share_one_file(tmp_path):
    path = tmp_path / "rho.json"
    psi = random_pure_state((2, 2, 2), seed=10)
    save_state(StateData.density(density_from_pure(psi), (2, 2, 2)), path)
    want = bits(load_state(path).tensor.data)
    got, errors = [], []

    def read():
        try:
            for _ in range(50):
                got.append(bits(load_state(path).tensor.data))
        except Exception as exc:  # noqa: BLE001 - any failure fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=read) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == [] and got == [want] * 100


def test_state_data_refuses_dims_that_do_not_fit_the_tensor():
    psi = random_pure_state((2, 3), seed=5)
    with pytest.raises(ShapeError, match=r"dims \(2, 2\) do not match tensor \(2, 3\)"):
        StateData.pure(psi, (2, 2))
    with pytest.raises(ShapeError, match=r"dims \(2, 3\) do not match operator \(6,\)"):
        StateData.density(Tensor(np.ones(6)), (2, 3))
    with pytest.raises(ShapeError, match=r"dims \(2, 2\) do not match operator \(6, 6\)"):
        StateData.density(density_from_pure(psi), (2, 2))


def test_state_data_refuses_more_subsystems_than_a_stack_can_hold():
    one = Tensor(np.ones(1))
    assert StateData.pure(one, [1] * PURE_LIMIT).tensor.dims == (1,) * PURE_LIMIT
    assert StateData.density(one, [1] * DENSITY_LIMIT).tensor.dims == (1, 1)
    with pytest.raises(ShapeError, match=rf"^dims has {PURE_LIMIT + 1} entries"):
        StateData.pure(one, [1] * (PURE_LIMIT + 1))
    with pytest.raises(ShapeError, match=rf"^dims has {PURE_LIMIT + 1} entries"):
        StateData.pure(Tensor(np.ones((1,) * (PURE_LIMIT + 1))))
    with pytest.raises(ShapeError, match=rf"^dims has {DENSITY_LIMIT + 1} entries"):
        StateData.density(one, [1] * (DENSITY_LIMIT + 1))
    for kind, n in (("pure", PURE_LIMIT + 1), ("density", DENSITY_LIMIT + 1)):
        with pytest.raises(ShapeError, match=rf"^dims has {n} entries"):
            StateData(kind, (1,) * n, one)
    with pytest.raises(ShapeError, match="unknown kind 'mixed'"):
        StateData("mixed", (1,), one)


def test_chain_file_reads_bitwise_with_stdlib_json(tmp_path):
    chain = mps_factor(random_pure_state((2, 3, 2, 2), seed=11))
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["kind"] == "mps"
    assert doc["site_shapes"] == [list(site.dims) for site in chain.sites]
    for site, stored in zip(chain.sites, doc["sites"]):
        arr = np.array(stored).view(np.complex128).reshape(site.dims)
        assert bits(arr) == bits(site.data)
    for sigma, stored in zip(chain.bond_sigmas, doc["bond_sigmas"]):
        assert bits(np.array(stored)) == bits(sigma)


def one_call_chain_bytes(chain) -> bytes:
    """The chain file as one orjson call over the whole document writes it."""
    mats = [s.data.reshape(-1, s.dims[2]) for s in chain.sites]
    doc = {
        "kind": "mps",
        "phys_dims": [int(d) for d in chain.phys_dims],
        "bond_dims": [int(c) for c in chain.bond_dims],
        "sites": [np.stack([m.real, m.imag], -1) for m in mats],
        "site_shapes": [list(s.dims) for s in chain.sites],
        "bond_sigmas": list(chain.bond_sigmas),
    }
    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def test_chain_file_is_the_one_call_bytes(tmp_path):
    chains = [mps_factor(random_pure_state((2,) * n, seed=n)) for n in range(2, 15)]
    psi = random_pure_state((2,) * 12, seed=31)
    chains += [mps_factor(psi, max_chi=4), mps_factor(psi, max_chi=16), mps_factor(psi, sigma_cutoff=0.02)]
    chains.append(mps_factor(random_pure_state((3, 2, 4, 3), seed=32)))
    # the left half of an exact chain is identity sites, written from their size
    ten = [s.data.tobytes() == np.eye(s.dims[2], dtype=complex).tobytes() for s in chains[8].sites]
    assert ten == [True] * 5 + [False] * 5
    # an almost-identity square site goes to orjson: one -0.0 (real or imaginary), one NaN, one 1.0 an ulp high
    base = mps_factor(random_pure_state((2,) * 6, seed=33))
    assert base.sites[2].dims == (4, 2, 8)
    for at, value in (((3, 5), complex(-0.0, 0.0)), ((6, 6), complex(np.nan, 0.0)),
                      ((2, 2), complex(np.nextafter(1.0, 2.0), 0.0)), ((7, 0), complex(0.0, -0.0))):
        site = np.eye(8, dtype=complex)
        site[at] = value
        sites = base.sites[:2] + [Tensor(site.reshape(4, 2, 8))] + base.sites[3:]
        chains.append(decompose.MPSChain(sites=sites, bond_sigmas=base.bond_sigmas))
    path = tmp_path / "chain.json"
    for chain in chains:
        save_chain(chain, path)
        assert path.read_bytes() == one_call_chain_bytes(chain), [s.dims for s in chain.sites]


def test_stdlib_json_file_loads_to_the_same_bits(tmp_path):
    for state in edge_operators()[:2] + [StateData.pure(random_pure_state((2, 3), seed=4))]:
        arr = state.tensor.data.reshape(-1) if state.kind == "pure" else state.tensor.data
        doc = {"kind": state.kind, "dims": list(state.dims),
               "data": np.stack([arr.real, arr.imag], -1).tolist()}
        theirs, ours = tmp_path / "stdlib.json", tmp_path / "ours.json"
        theirs.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        save_state(state, ours)
        assert theirs.read_bytes() != ours.read_bytes()  # spaces, and 1e-05 for 0.00001
        assert bits(load_state(theirs).tensor.data) == bits(load_state(ours).tensor.data)
        assert bits(load_state(theirs).tensor.data) == bits(state.tensor.data)


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


@pytest.mark.filterwarnings("error")
def test_components_under_the_bound_keep_their_physics_messages(tmp_path):
    # 1e149 is under MAX_COMPONENT: every check runs on it without overflow
    for i, (kind, data, message) in enumerate([
        ("pure", [[1e149, 1e149], [1e149, 0]], "pure state has squared norm 3e+298, not 1"),
        ("density", [[[0.5, 0], [1e149, 1e149]], [[1e149, -1e149], [0.5, 0]]],
         "density operator has negative eigenvalue -1.414e+149"),
    ]):
        path = tmp_path / f"big{i}.json"
        path.write_text(json.dumps({"kind": kind, "dims": [2], "data": data}))
        with pytest.raises(StateFileError) as exc:
            load_state(path)
        assert str(exc.value) == message


@pytest.mark.filterwarnings("error")
def test_components_are_bounded_before_any_check(tmp_path):
    # the bound itself passes to the norm check; the next double up is refused
    # in its place, and so is a file that would fail hermiticity as well
    path = tmp_path / "edge.json"
    above = float(np.nextafter(MAX_COMPONENT, np.inf))
    for kind, data, message in [
        ("pure", [[MAX_COMPONENT, 0], [0, 0]], "pure state has squared norm 1e+300, not 1"),
        ("pure", [[0, 0], [0, -above]], f"data has a component of size {above!r}, above 1e+150"),
        ("density", [[[0.5, 0], [above, 0]], [[0, 0], [0.5, 0]]],
         f"data has a component of size {above!r}, above 1e+150"),
    ]:
        path.write_text(json.dumps({"kind": kind, "dims": [2], "data": data}))
        with pytest.raises(StateFileError) as exc:
            load_state(path)
        assert str(exc.value) == message


# A file of each kind that loads; a kind added to states._KINDS adds its own.
VALID_FILES = {
    "pure": {"kind": "pure", "dims": [2], "data": [[1.0, 0.0], [0.0, 0.0]]},
    "density": {"kind": "density", "dims": [2],
                "data": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(states._KINDS))
def test_every_kind_bounds_its_components(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    doc = json.loads(json.dumps(VALID_FILES[kind]))
    path.write_text(json.dumps(doc))
    assert load_state(path).kind == kind
    # the last imaginary part at 1e151: a physics fault too, so a kind whose
    # checker skipped the bound would report that instead
    pair = doc["data"]
    while isinstance(pair[-1], list):
        pair = pair[-1]
    pair[-1] = 1e151
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError) as exc:
        load_state(path)
    assert str(exc.value) == "data has a component of size 1e+151, above 1e+150"


@pytest.mark.filterwarnings("error")
def test_the_bound_is_load_states_stage_not_the_checkers(tmp_path, monkeypatch):
    # a pure checker that judges nothing: the component past 1e150 must still
    # be refused, by load_state's one decode, before the checker sees it
    monkeypatch.setitem(states._KINDS, "pure", (1, lambda psi: psi))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "pure", "dims": [2], "data": [[1.0, 0.0], [0.0, 1e151]]}))
    with pytest.raises(StateFileError) as exc:
        load_state(path)
    assert str(exc.value) == "data has a component of size 1e+151, above 1e+150"


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_unhashable_kind_is_unknown(kind, tmp_path):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"kind": kind, "dims": [1], "data": [[1.0, 0.0]]}))
    with pytest.raises(StateFileError) as exc:
        load_state(path)
    assert str(exc.value) == f"unknown kind {kind!r}"
    with pytest.raises(ShapeError, match="^unknown kind"):
        StateData(kind, (1,), Tensor(np.ones(1)))


def test_load_state_names_a_missing_path(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(StateFileError) as exc:
        load_state(path)
    assert str(exc.value).startswith(f"cannot read state file {path}: [Errno 2] ")
    assert isinstance(exc.value.__cause__, FileNotFoundError)


def test_random_pure_state_refuses_empty_dims():
    with pytest.raises(ShapeError, match="^dims must be nonempty$"):
        random_pure_state(())


def test_random_local_unitaries_refuse_empty_dims():
    with pytest.raises(ShapeError, match="^dims must be nonempty$"):
        random_local_unitaries((), [0])


def test_psd_gate_accepts_exactly_what_eigvalsh_accepts(tmp_path, monkeypatch):
    # Cholesky of the hermitian part shifted by PSD_TOL / 2 accepts first;
    # eigvalsh decides only when it fails, and both routes must agree with it
    eigvalsh, decided = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: decided.append(1) or eigvalsh(a))
    rng = np.random.default_rng(41)
    path = tmp_path / "rho.json"
    for dims in ((2,), (2, 2), (2, 2, 2), (8, 8)):
        d = int(np.prod(dims))
        cases = [(low, None) for low in (0.5 * PSD_TOL, -0.5 * PSD_TOL, 2 * PSD_TOL, -2 * PSD_TOL)]
        cases += [(0.0, rank) for rank in sorted({1, 2, d - 1} - {0, d})]
        for low, rank in cases:
            v = random_local_unitary((d,), seed=int(rng.integers(2**31)))[0]
            if rank is None:  # one eigenvalue at low, the others positive
                p = np.append(low, rng.uniform(0.1, 1.0, d - 1))
                p[1:] *= (1 - low) / p[1:].sum()
            else:  # exact zeros, and exact zeros on the diagonal of the first
                p = np.append(rng.uniform(0.1, 1.0, rank), np.zeros(d - rank))
                p /= p.sum()
            for mat in ((v * p) @ v.conj().T, np.diag(p + 0j)) if rank else ((v * p) @ v.conj().T,):
                mat = (mat + mat.conj().T) / 2
                save_state(StateData.density(Tensor(mat), dims), path)  # bit for bit
                lowest = eigvalsh((mat + mat.conj().T) / 2)[0]
                decided.clear()
                if lowest >= -PSD_TOL:
                    load_state(path)
                else:
                    with pytest.raises(StateFileError, match="negative eigenvalue"):
                        load_state(path)
                if low >= 0:  # positive, or rank-deficient with exact zeros
                    assert decided == [], (dims, low, rank)


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
    # 65 entries of 1 pass the data length check but exceed numpy's axis limit
    # (32 in 1.x, 64 in 2.x); the refusal names dims, not numpy's internals
    path = tmp_path / "too_many_dims.json"
    path.write_text(json.dumps({"kind": "pure", "dims": [1] * 65, "data": [[1.0, 0.0]]}))
    with pytest.raises(StateFileError, match=r"^dims has 65 entries"):
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
        '{"kind": "pure", "dims": [1], "data": [[NaN, 0.0]]}',
        '{"kind": "pure", "dims": [1], "data": [[Infinity, 0.0]]}',
        '{"kind": "pure", "dims": [1], "data": [[1.0, -Infinity]]}',
        '{"kind": "pure", "dims": [1], "data": [[1e400, 0.0]]}',
        '{"kind": "pure", "dims": [1], "data": %s}' % ("[" * 100_000 + "]" * 100_000),
        '{"kind": %s, "dims": [1], "data": [[1.0, 0.0]]}' % ("[" * 5000 + "]" * 5000),
        '{"kind": "pure", "dims": [1, %s], "data": [[1.0, 0.0]]}' % ("[" * 5000 + "]" * 5000),
    ]
    for i, text in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        with pytest.raises(StateFileError):
            load_state(path)
    # as deep as MAX_DEPTH allows, the messages quote kind and dims in full
    for text, message in (('{"kind": %s, "dims": [1], "data": [[1.0, 0.0]]}'
                           % ("[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1)), "unknown kind"),
                          ('{"kind": "pure", "dims": [1, %s], "data": [[1.0, 0.0]]}'
                           % ("[" * (MAX_DEPTH - 2) + "]" * (MAX_DEPTH - 2)), "dims must be")):
        path.write_text(text)
        with pytest.raises(StateFileError, match=message):
            load_state(path)
    # orjson parses a nesting this deep, and _decode refuses it as data
    deep = "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1)
    assert orjson.loads(deep) is not None
    path.write_text('{"kind": "pure", "dims": [1], "data": %s}' % deep)
    with pytest.raises(StateFileError, match=r"\[real, imag\] pairs"):
        load_state(path)
    # past MAX_DEPTH the file is refused before it is parsed, outside strings only
    for depth, ok in ((MAX_DEPTH, True), (MAX_DEPTH + 1, False)):
        nested = "[" * (depth - 1) + "]" * (depth - 1)
        path.write_text('{"kind": "pure", "dims": [1], "data": [[1.0, 0.0]], "x%s": %s}'
                        % ("[\\\"" * MAX_DEPTH, nested))
        if ok:
            assert load_state(path).dims == (1,)
        else:
            with pytest.raises(StateFileError, match="deeper than"):
                load_state(path)


# --------------------------------------------------------------- generators


def test_random_pure_state_normalized():
    psi = random_pure_state((2, 3, 2), seed=5)
    assert abs(np.linalg.norm(psi.data) - 1.0) < 1e-12
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


def test_apply_local_unitary_leaves_legs_past_dims_alone():
    # a purification's party P rides along: U (x) I on psi of dims + (3,)
    dims = (2, 3)
    psi = random_pure_state(dims + (3,), seed=35)
    us = random_local_unitary(dims, seed=36)
    got = apply_local_unitary(StateData.pure(psi), dims, us)
    assert got.kind == "pure" and got.dims == dims + (3,)
    want = np.kron(np.kron(us[0], us[1]), np.eye(3)) @ psi.data.reshape(-1)
    assert np.max(np.abs(got.tensor.data.reshape(-1) - want)) < 1e-12
    stacked = apply_local_unitary(StateData.pure(psi), dims, [u[None] for u in us])
    assert stacked.shape == (1, 2, 3, 3) and np.array_equal(stacked[0], got.tensor.data)
    with pytest.raises(ShapeError, match="does not start with dims"):
        apply_local_unitary(StateData.pure(psi), (3, 2), us[::-1])
    # a party of size 1, as a rank-1 operator's purification has, rides along too
    psi1 = Tensor(psi.data[..., :1] / np.linalg.norm(psi.data[..., :1]))
    got = apply_local_unitary(StateData.pure(psi1), dims, us)
    assert got.dims == dims + (1,)
    want = np.kron(us[0], us[1]) @ psi1.data.reshape(-1)
    assert np.max(np.abs(got.tensor.data.reshape(-1) - want)) < 1e-12
    stacked = apply_local_unitary(StateData.pure(psi1), dims, [u[None] for u in us])
    assert stacked.shape == (1, 2, 3, 1) and np.array_equal(stacked[0], got.tensor.data)


def test_as_operator_reads_density_state_data_only():
    psi = random_pure_state((2, 3), seed=34)
    rho = density_from_pure(psi)
    mat = as_operator(StateData.density(rho, (2, 3)), (2, 3))
    assert mat.shape == (6, 6) and np.array_equal(mat, rho.data)
    with pytest.raises(ShapeError, match="pure state is not read as an operator"):
        as_operator(StateData.pure(psi), (2, 3))
    with pytest.raises(ShapeError, match=r"^operator of size 6 is not a 2 x 2 matrix$"):
        as_operator(np.ones(6), (2,))


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


def test_random_local_unitary_matches_reference_draw():
    # per subsystem in order: a real then an imaginary Gaussian block, one QR,
    # and Q's columns times the phases of R's diagonal; no further draw
    for dims, seed in (((2, 3, 4), 3), ((2,) * 5, 17), ((8, 8), 0)):
        rng = np.random.default_rng(seed)
        want = []
        for d in dims:
            real, imag = rng.standard_normal((2, d, d))
            q, r = np.linalg.qr(real + 1j * imag)
            want.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        got = random_local_unitary(dims, seed=seed)
        assert len(got) == len(want)
        for u, w in zip(got, want):
            assert np.array_equal(u, w)


def test_random_local_unitaries_match_one_trial_draws_row_by_row():
    children = np.random.SeedSequence(44).spawn(7)
    for dims in ((2, 2, 2), (2, 3, 2), (8, 8), (2,) * 6):
        # an empty chunk, as the first chunk of a verify call of one row a chunk has
        for chunk in ([], children[:1], children[1:3], children):
            stacks = random_local_unitaries(dims, chunk)
            assert [u.shape for u in stacks] == [(len(chunk), d, d) for d in dims]
            for row, child in enumerate(chunk):
                one = random_local_unitary(dims, seed=child)
                assert all(bits(u[row]) == bits(w) for u, w in zip(stacks, one)), (dims, row)


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
        # keep is checked before the operator is read: an operator of the
        # wrong size is refused for its keep first
        for cut in (partial_trace, bipartition_density):
            with pytest.raises(ShapeError, match="keep"):
                cut(np.eye(3), (2, 2), keep)


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
