"""Command-line surface: factor, invariants, entropy.

Every command prints a human-readable report by default and a
machine-readable JSON document with --json.  Exit code 0 means all
requested computations succeeded and every verification passed its
threshold.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

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


def cmd_factor(args) -> CommandResult:
    res = CommandResult(command="factor")
    data = states.load_state(args.state)
    if data.kind != "pure":
        raise StateFileError(f"{args.state}: expected a pure state, got {data.kind}")
    chain = decompose.mps_factor(data.tensor, args.truncate_chi, args.truncate_tol)
    rebuilt = decompose.mps_reconstruct(chain)
    fid = decompose.fidelity(data.tensor, rebuilt)
    res.values["bond_dims"] = [int(c) for c in chain.bond_dims]
    res.values["bond_sigmas"] = [[float(s) for s in v] for v in chain.bond_sigmas]
    res.values["fidelity"] = fid
    if args.out:
        states.save_chain(chain, args.out)
    if args.json:  # every singular value below only feeds the human lines
        return res
    for b, sig in enumerate(chain.bond_sigmas):
        res.add(f"bond {b}: chi={len(sig)} sigma=" + " ".join(_fmt(s) for s in sig))
    res.add(f"fidelity: {_fmt(fid)}")
    if args.out:
        res.add(f"chain written to {args.out}")
    return res


def _cost_doc(cost: invariants.ContractionCost) -> dict:
    """Summed FLOPs and largest intermediate (elements) of the compiled programs."""
    return {"flops": cost.flops, "largest_intermediate": cost.largest}


def cmd_invariants(args) -> CommandResult:
    res = CommandResult(command=f"invariants {args.action}")
    if args.label and args.k is not None:
        raise ShapeError("-k and --label exclude each other: -k takes every class, --label names some")

    if args.action == "list":
        if args.n is None or args.k is None:
            raise ShapeError("list needs both -n and -k")
        classes = invariants.enumerate_invariants(args.n, args.k)
        res.values["count"] = len(classes)
        res.values["labels"] = labels = invariants._kept_labels(args.n, args.k, classes)
        if args.json:  # the tags below only feed the human lines
            return res
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

    if not args.state:
        raise ShapeError(f"invariants {args.action} needs a state file")
    data = states.load_state(args.state)
    if args.n is not None and args.n != len(data.dims):
        raise ShapeError(f"-n {args.n} but state has {len(data.dims)} subsystems")
    if args.label:  # a repeated label is evaluated once
        tuples = list(dict.fromkeys(invariants.parse_label(text) for text in args.label))
    elif args.k is None:
        raise ShapeError("need -k or --label")
    else:
        tuples = [c.representative for c in invariants.enumerate_invariants(len(data.dims), args.k)]

    # The file's kind picks the route; a pure state never becomes rho.
    cost = invariants.ContractionCost()
    if args.action == "eval":
        vals = invariants.evaluate_many(tuples, data, data.dims, cost=cost)
        res.diagnostics["contraction"] = _cost_doc(cost)
        for t, val in zip(tuples, vals):
            label = t.label()
            res.values[label] = [val.real, val.imag]
            if not args.json:
                res.add(f"{label} = {_fmt(val)}")
        return res

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    devs = invariants.verify_classes(
        tuples, data, data.dims, trials=args.trials, seed=args.seed, cost=cost
    )
    res.diagnostics["contraction"] = _cost_doc(cost)
    worst = float(np.max(devs, initial=0.0))  # a NaN deviation is carried, not dropped
    for t, dev in zip(tuples, devs):
        label = t.label()
        res.values[label] = dev
        if not args.json:
            status = "ok" if dev <= VERIFY_THRESHOLD else "FAIL"
            res.add(f"{label}  deviation={_fmt(dev)}  {status}")
    res.diagnostics.update(max_deviation=worst, threshold=VERIFY_THRESHOLD)
    if not worst <= VERIFY_THRESHOLD:  # the comparison that labels each line ok
        res.exit_code = 1
    if not args.json:
        res.add(f"max deviation: {_fmt(worst)}")
    return res


def cmd_entropy(args) -> CommandResult:
    res = CommandResult(command="entropy")
    data = states.load_state(args.state)
    n = len(data.dims)
    try:
        keep = [int(s) for s in args.keep.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(
            f"--keep takes comma-separated subsystem indices, got {args.keep!r}"
        ) from None
    try:
        keep = states._checked_keep(keep, n)
    except ShapeError as exc:
        raise ShapeError(f"--keep {args.keep!r} is refused: {exc}") from None
    try:
        alphas = [float(a) for a in args.alpha.split(",")]
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

    devs, skipped = [], []
    for alpha, s_alpha in zip(alphas, s_alphas):
        key = f"S_{alpha:g}"
        res.values[key] = s_alpha
        line = f"{key} = {_fmt(s_alpha)}"
        if alpha in traces:
            k = int(alpha)
            dev = abs(entropy.renyi_from_invariant(traces[k].real, k) - s_alpha)
            devs.append(dev)
            res.diagnostics[f"crosscheck_dev_{k}"] = dev
            line += f"  (invariant cross-check dev={_fmt(dev)})"
        elif alpha in checked:
            skipped.append(alpha)
            line += f"  (invariant cross-check skipped: needs over {invariants.MAX_LABELS} indices)"
        res.add(line)
    if skipped:
        res.diagnostics["crosscheck_skipped"] = skipped
    if not np.max(devs, initial=0.0) <= ENTROPY_CROSSCHECK_THRESHOLD:  # NaN fails too
        res.exit_code = 1
    return res


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tninv",
        description="Tensor-network state factorization and local-unitary invariants",
    )
    # Each subcommand sets ``run``.  Its function is looked up when it runs, so
    # a wrapper put on the module after the parser is built is the one called.
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("factor", help="factor a pure state into an MPS chain")
    f.add_argument("state", help="pure-state JSON file")
    trunc = f.add_mutually_exclusive_group()
    trunc.add_argument("--truncate-chi", type=int, default=None, metavar="N")
    trunc.add_argument("--truncate-tol", type=float, default=None, metavar="T")
    f.add_argument("--out", default=None, help="write the chain as JSON")
    f.add_argument("--json", action="store_true")
    f.set_defaults(run=lambda args: cmd_factor(args))

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
    i.set_defaults(run=lambda args: cmd_invariants(args))

    e = sub.add_parser("entropy", help="entropies of a reduced state")
    e.add_argument("state", help="state JSON file")
    e.add_argument(
        "--keep", required=True,
        help="comma-separated subsystems to keep; a list that starts with a minus sign "
             "is written --keep=-1,0",
    )
    e.add_argument(
        "--alpha", default="2,3",
        help="comma-separated Renyi orders; a list that starts with a minus sign "
             "is written --alpha=-2,3",
    )
    e.add_argument("--json", action="store_true")
    e.set_defaults(run=lambda args: cmd_entropy(args))

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and reused."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command builds tens of thousands of short-lived containers (state
    files' ``[real, imag]`` pairs, compiled programs, enumeration classes)
    that hold no reference cycles; the only cycles it leaves are stdlib
    ``json``'s indent encoder closures, which the next automatic collection
    frees.  The collector is left as it was found on every exit, including
    argparse's ``SystemExit``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        res = args.run(args)
    except (StateFileError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(res.render(args.json) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit writes to nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
