"""Seeded job lists, input files and reference answers for the workloads.

A workload is a list of rounds.  Every round holds the same job slots in a
seeded order with seeded inputs, so any whole number of rounds has the same
mix of job kinds whatever the seed.  Reference answers that do not depend
on the program are computed while the rounds are built (set-up).  Checks
that must call the program, such as ``canonicalize`` of a relabelled tuple,
run after each round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tninv.cli
import tninv.invariants

VERIFY_MAX_DEV = 1e-8
ORACLE_REL_TOL = 1e-10
ENTROPY_TOL = 1e-10
FIDELITY_TOL = 1e-10
EXPLICIT_ORACLE_MAX_DK = 64  # invariants.evaluate builds a D^k x D^k operator


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` gets what ``run`` returned and gives ``None`` when the output
    is correct, or the reason it is not.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    chain_out: str | None = None


@dataclass
class Plan:
    """The rounds of one run plus facts the result document reports."""

    rounds: list[list[Job]]
    repeated_share: float
    input_bytes: int = 0


def run_cli(argv) -> CliOutput:
    """Call ``tninv.cli.main`` in-process with stdout and stderr captured.

    The function is looked up on the module at call time, so a traced run
    sees the wrapped version.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tninv.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_json(out: CliOutput):
    """Parse a ``--json`` document; returns (doc, None) or (None, reason)."""
    if out.code != 0:
        return None, f"exit code {out.code}: {out.stderr.strip()[:200]}"
    try:
        return json.loads(out.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------- inputs


def _write_state(path, kind, dims, arr):
    """Write a state file in the documented format, without the program."""
    pairs = np.stack([arr.real, arr.imag], axis=-1)  # [real, imag] per entry
    data = (pairs.reshape(-1, 2) if kind == "pure" else pairs).tolist()
    text = json.dumps({"kind": kind, "dims": list(dims), "data": data}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def _random_vectors(rng, count, dim):
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _rank2_density(rng, dim):
    v = _random_vectors(rng, 2, dim)
    w = rng.uniform(0.2, 0.8)
    rho = w * np.outer(v[0], v[0].conj()) + (1 - w) * np.outer(v[1], v[1].conj())
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


# ---------------------------------------------------------------- catalog


def _partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def burnside_count(n: int, k: int) -> int:
    """Orbits of S_k acting on S_k^n by simultaneous conjugation.

    Sum over cycle types lambda of k of z_lambda^(n-1), where z_lambda is
    the order of the centraliser of a permutation of that type.
    """
    total = 0
    for lam in _partitions(k):
        z = 1
        for part, mult in Counter(lam).items():
            z *= part**mult * math.factorial(mult)
        total += z ** (n - 1)
    return total


def _conj(p, tau):
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[tau[i]] = tau[pi]
    return tuple(out)


def _orbit(sigmas, k):
    return {tuple(_conj(s, tau) for s in sigmas) for tau in itertools.permutations(range(k))}


def _component_sizes(sigmas, k):
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in sigmas:
        for j in range(k):
            a, b = find(j), find(s[j])
            if a != b:
                parent[a] = b
    return sorted(Counter(find(j) for j in range(k)).values())


def _check_list(n, k):
    """Check an ``invariants list --json`` document against closed forms.

    The count must equal Burnside's count, the labels must lie in pairwise
    distinct orbits (computed here, not by the program), and the orbit
    sizes must add up to (k!)^n.  Identical outputs are checked once.
    """
    want = burnside_count(n, k)
    verdicts: dict[str, str | None] = {}

    def check(out: CliOutput):
        doc, err = _cli_json(out)
        if err:
            return err
        if out.stdout in verdicts:
            return verdicts[out.stdout]
        values = doc["values"]
        labels = values["labels"]
        verdict = None
        if values["count"] != want or len(labels) != want:
            verdict = f"count {values['count']} ({len(labels)} labels), Burnside gives {want}"
        else:
            keys, total = set(), 0
            for text in labels:
                sigmas = tninv.invariants.parse_label(text).sigmas
                orbit = _orbit(sigmas, k)
                keys.add(min(orbit))
                total += len(orbit)
            if len(keys) != want:
                verdict = f"{want - len(keys)} labels share an orbit"
            elif total != math.factorial(k) ** n:
                verdict = f"orbit sizes sum to {total}, not (k!)^n"
        verdicts[out.stdout] = verdict
        return verdict

    return check


def _classify(tuples):
    inv = tninv.invariants
    return [
        (inv.canonicalize(t), inv.is_real_guaranteed(t), inv.connected_components(t))
        for t in tuples
    ]


def _check_classify(relabelled, sizes):
    """The answers must not change when the copies are relabelled by tau."""

    def check(result):
        inv = tninv.invariants
        for (canon, real, comps), conj, want_sizes in zip(result, relabelled, sizes):
            if inv.canonicalize(conj) != canon:
                return f"canonicalize differs after relabelling {conj.label()}"
            if inv.is_real_guaranteed(conj) != real:
                return f"is_real_guaranteed differs after relabelling {conj.label()}"
            if sorted(len(c) for c in comps) != want_sizes:
                return f"component sizes {comps} != {want_sizes}"
        return None

    return check


LIST_SIZES = ((2, 4), (3, 3), (4, 3), (2, 5), (3, 4), (5, 3), (1, 6))
CLASSIFY_SIZES = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6))
CLASSIFY_BATCH = 8


def build_catalog(rng, nrounds, workdir, on_round) -> Plan:
    seen: set = set()
    rounds = []
    checks = {nk: _check_list(*nk) for nk in LIST_SIZES}
    for _ in range(nrounds):
        jobs = []
        for n, k in LIST_SIZES:
            argv = ["invariants", "list", "-n", str(n), "-k", str(k), "--json"]
            jobs.append(Job(f"list n={n} k={k}", lambda a=argv: run_cli(a), checks[(n, k)]))
        for n, k in CLASSIFY_SIZES:
            tuples, relabelled, sizes = [], [], []
            while len(tuples) < CLASSIFY_BATCH:
                sigmas = tuple(tuple(int(x) for x in rng.permutation(k)) for _ in range(n))
                if sigmas in seen:  # classify tuples never repeat within a run
                    continue
                seen.add(sigmas)
                tau = tuple(int(x) for x in rng.permutation(k))
                t = tninv.invariants.PermTuple(k, sigmas)
                tuples.append(t)
                relabelled.append(tninv.invariants.PermTuple(k, tuple(_conj(s, tau) for s in sigmas)))
                sizes.append(_component_sizes(sigmas, k))
            jobs.append(
                Job(
                    f"classify n={n} k={k}",
                    lambda ts=tuples: _classify(ts),
                    _check_classify(relabelled, sizes),
                )
            )
        rng.shuffle(jobs)
        rounds.append(jobs)
        on_round()
    per_round = len(LIST_SIZES) + len(CLASSIFY_SIZES)
    repeated = len(LIST_SIZES) * (nrounds - 1) / (per_round * nrounds)
    return Plan(rounds, repeated_share=repeated)


# -------------------------------------------------------------- lu_verify


def einsum_oracle(t, rho, dims, paths) -> complex:
    """The invariant's network as one ``np.einsum``, independent of evaluate_fast.

    Copy c of rho has column index (c, s) and row index (sigma_s(c), s) on
    subsystem s; every index appears twice, so the result is a scalar.
    ``paths`` is a dict caching the contraction order per (tuple, dims).
    """
    n = len(dims)
    r = np.asarray(rho).reshape(tuple(dims) * 2)
    operands = []
    for c in range(t.k):
        rows = [t.sigmas[s][c] * n + s for s in range(n)]
        cols = [c * n + s for s in range(n)]
        operands += [r, rows + cols]
    key = (t, tuple(dims))
    if key not in paths:
        paths[key] = np.einsum_path(*operands, [], optimize="greedy")[0]
    return complex(np.einsum(*operands, [], optimize=paths[key]))


def _oracle(t, rho, dims, paths):
    if math.prod(dims) ** t.k <= EXPLICIT_ORACLE_MAX_DK:
        return tninv.invariants.evaluate(t, rho, dims)
    return einsum_oracle(t, rho, dims, paths)


def _check_eval(reference):
    def check(out: CliOutput):
        doc, err = _cli_json(out)
        if err:
            return err
        values = doc["values"]
        if set(values) != set(reference):
            return f"{len(values)} labels, expected {len(reference)}"
        for label, want in reference.items():
            got = complex(*values[label])
            if abs(got - want) > ORACLE_REL_TOL * abs(want):
                return f"{label}: {got} vs oracle {want}"
        return None

    return check


def _check_verify(nclasses):
    def check(out: CliOutput):
        doc, err = _cli_json(out)
        if err:
            return err
        dev = doc["diagnostics"]["max_deviation"]
        if not dev <= VERIFY_MAX_DEV:
            return f"max deviation {dev} > {VERIFY_MAX_DEV}"
        if len(doc["values"]) != nclasses:
            return f"{len(doc['values'])} classes verified, expected {nclasses}"
        return None

    return check


# (action, dims, k or "label", trials).  Verify trials are few because each
# trial re-evaluates every class.  The slowest kind fills two of the 21
# slots, so the tail percentile (p95 at 20 s runs) and the
# median fall inside one kind's times rather than between two kinds.
LU_SLOTS = (
    ("eval", (2, 2, 2), 2, 0),
    ("eval", (2, 2, 2), 3, 0),
    ("eval", (2, 2, 2, 2), 2, 0),
    ("eval", (2, 2, 2, 2), 3, 0),
    ("eval", (2,) * 6, 2, 0),
    ("eval", (3, 3, 3), 2, 0),
    ("eval", (3, 3, 3), 3, 0),
    ("eval", (4, 4, 4), 2, 0),
    ("eval", (4, 4, 4), 3, 0),
    ("eval", (8, 8), 2, 0),
    ("eval", (8, 8), 3, 0),
    ("eval", (8, 8), "label", 0),
    ("verify", (2, 2, 2), 3, 6),
    ("verify", (2, 2, 2, 2), 2, 6),
    ("verify", (2, 2, 2, 2), 3, 2),
    ("verify", (2, 2, 2, 2), 3, 2),
    ("verify", (3, 3, 3), 3, 6),
    ("verify", (4, 4, 4), 2, 6),
    ("verify", (4, 4, 4), 3, 3),
    ("verify", (8, 8), 3, 6),
    ("verify", (2,) * 6, 2, 4),
)
# The cost of evaluate_fast on a degree-6 label depends strongly on its
# wiring (10 ms to 0.6 s and 0.5 GB for random labels on 8 x 8), so the
# label is fixed rather than drawn from the seed.
DEGREE6_LABEL = "6; (123456) | (12)(34)(56)"


def build_lu_verify(rng, nrounds, workdir, on_round) -> Plan:
    classes: dict[tuple, list] = {}
    paths: dict = {}
    rounds, nbytes, serial = [], 0, 0
    for _ in range(nrounds):
        jobs = []
        for action, dims, k, trials in LU_SLOTS:
            n, dim = len(dims), math.prod(dims)
            rho = _rank2_density(rng, dim)
            path = os.path.join(workdir, f"rho{serial}.json")
            serial += 1
            nbytes += _write_state(path, "density", dims, rho)
            if k == "label":
                tuples = [tninv.invariants.parse_label(DEGREE6_LABEL)]
                select = ["--label", DEGREE6_LABEL]
            else:
                if (n, k) not in classes:
                    classes[(n, k)] = [
                        c.representative for c in tninv.invariants.enumerate_invariants(n, k)
                    ]
                tuples = classes[(n, k)]
                select = ["-k", str(k)]
            argv = ["invariants", action, path, *select, "--json"]
            if action == "eval":
                check = _check_eval({t.label(): _oracle(t, rho, dims, paths) for t in tuples})
            else:
                argv += ["--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]
                check = _check_verify(len(tuples))
            kind = f"{action} dims={'x'.join(map(str, dims))} k={k}"
            jobs.append(Job(kind, lambda a=argv: run_cli(a), check))
        rng.shuffle(jobs)
        rounds.append(jobs)
        on_round()
    return Plan(rounds, repeated_share=0.0, input_bytes=nbytes)


# ------------------------------------------------------------ state_scale


def _entropies(psi, keep):
    n = psi.ndim
    rest = [i for i in range(n) if i not in keep]
    mat = np.transpose(psi, list(keep) + rest).reshape(2 ** len(keep), -1)
    p = np.linalg.svd(mat, compute_uv=False) ** 2
    p = p[p > 0]
    return {
        "S_vn": float(-np.sum(p * np.log(p))),
        "S_2": float(-np.log(np.sum(p**2))),
        "S_3": float(np.log(np.sum(p**3)) / -2.0),
    }


def _check_entropy(reference):
    def check(out: CliOutput):
        doc, err = _cli_json(out)
        if err:
            return err
        for key, want in reference.items():
            got = doc["values"].get(key)
            if got is None or abs(got - want) > ENTROPY_TOL:
                return f"{key} = {got}, SVD of psi gives {want}"
        return None

    return check


def _full_bonds(nq):
    return [min(2 ** (i + 1), 2 ** (nq - i - 1)) for i in range(nq - 1)]


def _check_factor(nq, chi, chain_out):
    want_bonds = [min(b, chi) for b in _full_bonds(nq)] if chi else _full_bonds(nq)

    def check(out: CliOutput):
        doc, err = _cli_json(out)
        if err:
            return err
        bonds = doc["values"]["bond_dims"]
        fid = doc["values"]["fidelity"]
        if bonds != want_bonds:
            return f"bond dims {bonds}, expected {want_bonds}"
        if chi is None and not fid >= 1 - FIDELITY_TOL:
            return f"fidelity {fid} < 1 - {FIDELITY_TOL}"
        if not 0 < fid <= 1 + 1e-12:
            return f"fidelity {fid} outside (0, 1]"
        if chain_out:
            return _check_chain_file(chain_out, bonds)
        return None

    return check


def _check_chain_file(path, bonds):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return f"chain file unreadable: {exc}"
    finally:
        with contextlib.suppress(OSError):
            os.remove(path)
    edges = [1, *bonds, 1]
    shapes = [[edges[i], 2, edges[i + 1]] for i in range(len(bonds) + 1)]
    if doc.get("kind") != "mps" or doc.get("bond_dims") != bonds:
        return "chain file kind or bond_dims wrong"
    if doc.get("site_shapes") != shapes:
        return f"chain site shapes {doc.get('site_shapes')} != {shapes}"
    for site, (l, d, r) in zip(doc["sites"], shapes):
        if len(site) != l * d or any(len(row) != r for row in site):
            return "chain site data does not match its shape"
    return None


# (command, qubits, kept qubits or chi).  The cost of an entropy job
# depends on how many qubits it keeps and that of a truncated factor job on
# chi, so both are fixed per slot; which qubits are kept is drawn from the
# seed.  The 11-qubit entropy job sets the peak memory (its 2048 x 2048
# density operator); 12 qubits would need about 1.3 GB.  With 11 slots the
# median falls among the 10-qubit entropy jobs and the tail percentile (p90
# at 20 s runs) among the two 11-qubit ones, not between two kinds of job.
STATE_SLOTS = (
    ("entropy", 9, 2),
    ("entropy", 10, 1),
    ("entropy", 10, 3),
    ("entropy", 11, 3),
    ("entropy", 11, 3),
    ("factor", 12, 4),
    ("factor", 13, None),
    ("factor", 13, "out"),
    ("factor", 14, None),
    ("factor", 14, "out"),
    ("factor", 14, 16),
)


def build_state_scale(rng, nrounds, workdir, on_round) -> Plan:
    # One pure-state file per slot, read again every round.
    files, nbytes = [], 0
    for i, (_, nq, _) in enumerate(STATE_SLOTS):
        psi = _random_vectors(rng, 1, 2**nq)[0].reshape((2,) * nq)
        path = os.path.join(workdir, f"psi{i}.json")
        nbytes += _write_state(path, "pure", (2,) * nq, psi)
        files.append((path, psi))
    rounds, serial = [], 0
    for _ in range(nrounds):
        jobs = []
        for (cmd, nq, variant), (path, psi) in zip(STATE_SLOTS, files):
            chain_out = None
            if cmd == "entropy":
                keep = sorted(int(x) for x in rng.choice(nq, size=variant, replace=False))
                argv = ["entropy", path, "--keep", ",".join(map(str, keep)), "--json"]
                check = _check_entropy(_entropies(psi, keep))
                kind = f"entropy q={nq} keep={variant}"
            else:
                argv = ["factor", path, "--json"]
                chi = variant if isinstance(variant, int) else None
                if chi:
                    argv += ["--truncate-chi", str(chi)]
                elif variant == "out":
                    chain_out = os.path.join(workdir, f"chain{serial}.json")
                    serial += 1
                    argv += ["--out", chain_out]
                check = _check_factor(nq, chi, chain_out)
                kind = f"factor q={nq}" + (f" chi={chi}" if chi else " out" if chain_out else "")
            jobs.append(Job(kind, lambda a=argv: run_cli(a), check, chain_out))
        rng.shuffle(jobs)
        rounds.append(jobs)
        on_round()
    return Plan(rounds, repeated_share=(nrounds - 1) / nrounds, input_bytes=nbytes)


# Nominal seconds per round, measured untraced on a 2-CPU x86-64 machine.
# A run of --seconds S times round(S / seconds per round) rounds, so its job
# list is fixed by the seed and S alone, not by the speed of the program.
WORKLOADS = {
    "catalog": (build_catalog, 0.45),
    "lu_verify": (build_lu_verify, 1.9),
    "state_scale": (build_state_scale, 1.85),
}


def build(workload, seed, nrounds, workdir, on_round=lambda: None) -> Plan:
    """Build the plan; ``on_round`` is called after each round is built."""
    builder, _ = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return builder(rng, nrounds, workdir, on_round)
