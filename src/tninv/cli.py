"""Command-line surface: factor, invariants, entropy.

Every command prints a human-readable report by default and a
machine-readable JSON document with --json.  Exit code 0 means all
requested computations succeeded and every verification passed its
threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import decompose, entropy, invariants, states
from .states import StateFileError
from .tensor import ShapeError

VERIFY_THRESHOLD = 1e-8
ENTROPY_CROSSCHECK_THRESHOLD = 1e-9
PRECISION = 12  # significant digits in human-readable output


@dataclass
class CommandResult:
    command: str
    values: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    exit_code: int = 0
    lines: list = field(default_factory=list)

    def add(self, line: str):
        self.lines.append(line)

    def render(self, as_json: bool) -> str:
        if as_json:
            doc = {
                "command": self.command,
                "values": self.values,
                "diagnostics": self.diagnostics,
                "exit_code": self.exit_code,
            }
            return json.dumps(doc, indent=2, sort_keys=True)
        return "\n".join(self.lines)


def _fmt(x) -> str:
    if isinstance(x, complex):  # an imaginary part below the shown digits is rounding
        imag = 0.0 if abs(x.imag) < 10.0**-PRECISION * abs(x) else x.imag
        return f"{x.real:.{PRECISION}g}{imag:+.{PRECISION}g}j"
    return f"{float(x):.{PRECISION}g}"


def _jsonable(x):
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    return float(x)


def _load(path, kind=None) -> states.StateData:
    data = states.load_state(path)
    if kind is not None and data.kind != kind:
        raise StateFileError(f"{path}: expected a {kind} state, got {data.kind}")
    return data


def cmd_factor(args) -> CommandResult:
    res = CommandResult(command="factor")
    data = _load(args.state, kind="pure")
    chain = decompose.mps_factor(
        data.tensor, max_chi=args.truncate_chi, sigma_cutoff=args.truncate_tol
    )
    rebuilt = decompose.mps_reconstruct(chain)
    fid = decompose.fidelity(data.tensor, rebuilt)
    res.values["bond_dims"] = [int(c) for c in chain.bond_dims]
    res.values["bond_sigmas"] = [[float(s) for s in v] for v in chain.bond_sigmas]
    res.values["fidelity"] = fid
    for b, sig in enumerate(chain.bond_sigmas):
        res.add(
            f"bond {b}: chi={len(sig)} sigma=" + " ".join(_fmt(s) for s in sig)
        )
    res.add(f"fidelity: {_fmt(fid)}")
    if args.out:
        states.save_chain(chain, args.out)
        res.add(f"chain written to {args.out}")
    return res


def _classes_for(args, n):
    if args.label:
        out = []
        for text in args.label:
            t = invariants.parse_label(text)
            if t.n != n:
                raise ShapeError(
                    f"label {text!r} has {t.n} subsystems, state has {n}"
                )
            out.append(t)
        return list(dict.fromkeys(out))  # a repeated label is evaluated once
    if args.k is None:
        raise ShapeError("need -k or --label")
    return [c.representative for c in invariants.enumerate_invariants(n, args.k)]


def _cost_doc(cost: invariants.ContractionCost) -> dict:
    """Summed FLOPs and largest intermediate (elements) of the compiled programs."""
    return {"flops": cost.flops, "largest_intermediate": cost.largest}


def cmd_invariants(args) -> CommandResult:
    res = CommandResult(command=f"invariants {args.action}")

    if args.action == "list":
        if args.n is None or args.k is None:
            raise ShapeError("list needs both -n and -k")
        classes = invariants.enumerate_invariants(args.n, args.k)
        res.values["count"] = len(classes)
        res.values["labels"] = labels = [c.label() for c in classes]
        for c, label in zip(classes, labels):
            tags = []
            parts = len(invariants.connected_components(c.representative))
            if parts > 1:
                tags.append(f"components={parts}")
            if invariants.is_real_guaranteed(c.representative):
                tags.append("real")
            tag = (" [" + ", ".join(tags) + "]") if tags else ""
            res.add(f"{label}  orbit={c.orbit_size}{tag}")
        return res

    data = _load(args.state)
    if args.n is not None and args.n != len(data.dims):
        raise ShapeError(f"-n {args.n} but state has {len(data.dims)} subsystems")
    tuples = _classes_for(args, len(data.dims))

    # The file's kind picks the route; a pure state never becomes rho.
    cost = invariants.ContractionCost()
    if args.action == "eval":
        vals = invariants.evaluate_many(tuples, data, data.dims, cost=cost)
        res.diagnostics["contraction"] = _cost_doc(cost)
        for t, val in zip(tuples, vals):
            label = t.label()
            res.values[label] = _jsonable(val)
            res.add(f"{label} = {_fmt(val)}")
        return res

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    devs = invariants.verify_classes(
        tuples, data, data.dims, trials=args.trials, seed=args.seed, cost=cost
    )
    res.diagnostics["contraction"] = _cost_doc(cost)
    worst = 0.0
    for t, dev in zip(tuples, devs):
        worst = max(worst, dev)
        status = "ok" if dev <= VERIFY_THRESHOLD else "FAIL"
        label = t.label()
        res.values[label] = dev
        res.add(f"{label}  deviation={_fmt(dev)}  {status}")
    res.diagnostics["max_deviation"] = worst
    res.diagnostics["threshold"] = VERIFY_THRESHOLD
    if worst > VERIFY_THRESHOLD:
        res.exit_code = 1
    res.add(f"max deviation: {_fmt(worst)}")
    return res


def cmd_entropy(args) -> CommandResult:
    res = CommandResult(command="entropy")
    data = _load(args.state)
    n = len(data.dims)
    try:
        keep = sorted({int(s) for s in args.keep.split(",") if s.strip() != ""})
    except ValueError:
        raise ValueError(
            f"--keep takes comma-separated subsystem indices, got {args.keep!r}"
        ) from None
    if not keep:
        raise ShapeError("--keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ShapeError(f"--keep {args.keep!r} is out of range: subsystems are 0..{n - 1}")
    try:
        alphas = [float(a) for a in args.alpha.split(",")] if args.alpha else [2.0, 3.0]
    except ValueError:
        raise ValueError(f"--alpha takes comma-separated numbers, got {args.alpha!r}") from None

    spec = entropy.Spectrum.from_state(data, keep)  # a pure state never becomes rho
    svn = entropy.von_neumann(spec)
    res.values["S_vn"] = svn
    res.add(f"S_vn = {_fmt(svn)}")
    s_alphas = [svn if alpha == 1 else entropy.renyi(spec, alpha) for alpha in alphas]

    # Cross-check integer orders through tr(rho_keep^k), contracted from the
    # state itself; a cycle | e label needs 2k of the MAX_LABELS (52) indices.
    checked = [a for a in alphas if a == int(a) and a >= 2 and n > len(keep)]
    orders = [int(a) for a in checked if 2 * a <= invariants.MAX_LABELS]
    labels = [invariants.reduced_power_label(n, keep, k) for k in orders]
    traces = dict(zip(orders, invariants.evaluate_many(labels, data, data.dims)))

    worst, skipped = 0.0, []
    for alpha, s_alpha in zip(alphas, s_alphas):
        key = f"S_{alpha:g}"
        res.values[key] = s_alpha
        line = f"{key} = {_fmt(s_alpha)}"
        if alpha in traces:
            k = int(alpha)
            dev = abs(entropy.renyi_from_invariant(traces[k].real, k) - s_alpha)
            worst = max(worst, dev)
            res.diagnostics[f"crosscheck_dev_{k}"] = dev
            line += f"  (invariant cross-check dev={_fmt(dev)})"
        elif alpha in checked:
            skipped.append(alpha)
            line += f"  (invariant cross-check skipped: needs over {invariants.MAX_LABELS} indices)"
        res.add(line)
    if skipped:
        res.diagnostics["crosscheck_skipped"] = skipped
    if worst > ENTROPY_CROSSCHECK_THRESHOLD:
        res.exit_code = 1
    return res


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tninv",
        description="Tensor-network state factorization and local-unitary invariants",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("factor", help="factor a pure state into an MPS chain")
    f.add_argument("state", help="pure-state JSON file")
    trunc = f.add_mutually_exclusive_group()
    trunc.add_argument("--truncate-chi", type=int, default=None, metavar="N")
    trunc.add_argument("--truncate-tol", type=float, default=None, metavar="T")
    f.add_argument("--out", default=None, help="write the chain as JSON")
    f.add_argument("--json", action="store_true")

    i = sub.add_parser("invariants", help="enumerate, evaluate or verify invariants")
    i.add_argument("action", choices=["list", "eval", "verify"])
    i.add_argument("state", nargs="?", help="state JSON file (eval/verify)")
    i.add_argument("-n", type=int, default=None, help="subsystem count")
    i.add_argument("-k", type=int, default=None, help="invariant degree")
    i.add_argument(
        "--label", action="append", default=None,
        help='invariant label, e.g. "3; (123) | (12)" (repeatable)',
    )
    i.add_argument("--trials", type=int, default=20)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--json", action="store_true")

    e = sub.add_parser("entropy", help="entropies of a reduced state")
    e.add_argument("state", help="state JSON file")
    e.add_argument("--keep", required=True, help="comma-separated subsystems to keep")
    e.add_argument("--alpha", default="2,3", help="comma-separated Renyi orders")
    e.add_argument("--json", action="store_true")

    return p


_parser = None  # built on the first call to main and reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.cmd == "factor":
            res = cmd_factor(args)
        elif args.cmd == "invariants":
            if args.action != "list" and not args.state:
                raise ShapeError(f"invariants {args.action} needs a state file")
            res = cmd_invariants(args)
        else:
            res = cmd_entropy(args)
    except (StateFileError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(res.render(args.json))
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
