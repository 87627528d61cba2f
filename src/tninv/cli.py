"""Command-line surface: factor, invariants, entropy.

Every command prints a human-readable report by default and a
machine-readable JSON document with --json.  Exit code 0 means all
requested computations succeeded and every verification passed its
threshold.

A command computes its result once: it fills ``values`` and
``diagnostics`` and sets ``human``, a callable that yields the report's
lines.  Only :meth:`CommandResult.render` reads the output mode, so a
``--json`` run never formats a human line.  A report closure reads the
command's locals, never its result, so it forms no reference cycle.
``--json`` output is stdlib ``json.dumps(doc, indent=2, sort_keys=True)``
byte for byte, written by :func:`_json` a block at a time.

argv is read once: a command word hands the rest of argv to that
command's parser, and the top-level parser reads only argv that starts
with no command, so help, usage and error text are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import decompose, entropy, invariants, states
from .states import StateFileError
from .tensor import ShapeError

VERIFY_THRESHOLD = 1e-8
_NUMBER_AFTER_MINUS = re.compile(r"-\.?\d")  # a value such as -1,0 or -.5, not an option
ENTROPY_CROSSCHECK_THRESHOLD = 1e-9
PRECISION = 12  # significant digits in human-readable output


@dataclass
class CommandResult:
    command: str
    values: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    exit_code: int = 0
    human: Callable[[], Iterable[str]] = tuple  # yields the human report's lines

    def render(self, as_json: bool) -> str:
        if as_json:
            doc = {
                "command": self.command,
                "values": self.values,
                "diagnostics": self.diagnostics,
                "exit_code": self.exit_code,
            }
            return _json(doc)
        return "\n".join(self.human())


def _json(o, ind: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, written a block at a time.

    A list, or a dict's sorted keys and its values, is one block, and how
    to write it is decided once: ``str`` items that need no escape are
    quoted as they are, floats are their ``float.__repr__`` unless one is
    NaN or infinite, and float pairs are joined by one separator.  Other
    items follow stdlib's rules one at a time.  Keys must be ``str``.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return text if "n" not in text else {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]
    if isinstance(o, (list, tuple)):
        return "[" + _lines(*_texts(o, ind + "  "), ind) + "]" if o else "[]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        keys = sorted(o)
        head, texts, tail = _texts(list(map(o.__getitem__, keys)), ind + "  ")
        if _plain(keys):
            quote = '"'
        else:  # TypeError for a key that is not a str
            quote, keys = "", list(map(encode_basestring_ascii, keys))
        return "{" + _lines(quote, map((quote + ": " + head).join, zip(keys, texts)), tail, ind) + "}"
    if o is None or isinstance(o, bool):
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _texts(items, ind: str) -> tuple[str, Iterable[str], str]:
    """``(head, middles, tail)``: the JSON text of each of ``items`` at indent
    ``ind`` is ``head + middle + tail``, with one rule for the whole block."""
    if _plain(items):
        return '"', items, '"'
    types = set(map(type, items))
    if types == {float} and (texts := _finite(items)):
        return "", texts, ""
    if types == {list} and set(map(len, items)) == {2}:
        flat = list(chain.from_iterable(items))
        if set(map(type, flat)) == {float} and (texts := _finite(flat)):
            inner = ind + "  "
            return "[" + inner, map(("," + inner).join, zip(texts[0::2], texts[1::2])), ind + "]"
    return "", [_json(x, ind) for x in items], ""


def _plain(items) -> bool:
    """Whether every item is a ``str`` that stdlib writes as it is between
    quotes.  ``unicode_escape`` lengthens exactly the text that holds a
    ``\\``, a control character or anything past ``~``; stdlib escapes
    those and ``"``."""
    if not (isinstance(items[0], str) and isinstance(items[-1], str)):
        return False
    try:
        text = "".join(items)
    except TypeError:  # an item between the ends is not a str
        return False
    return '"' not in text and len(text.encode("unicode_escape")) == len(text)


def _finite(floats: list) -> list | None:
    """Each float's ``float.__repr__``, or None if one is NaN or infinite."""
    texts = list(map(float.__repr__, floats))
    return None if "n" in "".join(texts) else texts  # a finite repr holds no n


def _lines(head: str, middles: Iterable[str], tail: str, ind: str) -> str:
    """``head + middle + tail`` for each middle, comma-separated, one a
    line, indented two spaces past ``ind``."""
    inner = ind + "  "
    return inner + head + (tail + "," + inner + head).join(middles) + tail + ind


def _fmt(x) -> str:
    if isinstance(x, complex):  # an imaginary part below the shown digits is rounding
        imag = 0.0 if abs(x.imag) < 10.0**-PRECISION * abs(x) else x.imag
        return f"{x.real:.{PRECISION}g}{imag:+.{PRECISION}g}j"
    return f"{float(x):.{PRECISION}g}"


def cmd_factor(args) -> CommandResult:
    res = CommandResult(command="factor")
    data = states.load_state(args.state)
    if data.legs != 1:
        raise StateFileError(f"{args.state}: expected a pure state, got {data.kind}")
    chain = decompose.mps_factor(data.tensor, args.truncate_chi, args.truncate_tol)
    rebuilt = decompose.mps_reconstruct(chain)
    fid = decompose.fidelity(data.tensor, rebuilt)
    res.values["bond_dims"] = [int(c) for c in chain.bond_dims]
    res.values["bond_sigmas"] = [[float(s) for s in v] for v in chain.bond_sigmas]
    res.values["fidelity"] = fid
    if args.out:
        states.save_chain(chain, args.out)

    def human():
        for b, sig in enumerate(chain.bond_sigmas):
            yield f"bond {b}: chi={len(sig)} sigma=" + " ".join(_fmt(s) for s in sig)
        yield f"fidelity: {_fmt(fid)}"
        if args.out:
            yield f"chain written to {args.out}"

    res.human = human
    return res


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

        def human():
            for c, label in zip(classes, labels):
                tags = []
                parts = len(invariants.connected_components(c.representative))
                if parts > 1:
                    tags.append(f"components={parts}")
                if invariants.is_real_guaranteed(c.representative):
                    tags.append("real")
                tag = (" [" + ", ".join(tags) + "]") if tags else ""
                yield f"{label}  orbit={c.orbit_size}{tag}"

        res.human = human
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
        res.values = {t.label(): [val.real, val.imag] for t, val in zip(tuples, vals)}
        res.human = lambda: (f"{t.label()} = {_fmt(val)}" for t, val in zip(tuples, vals))
    else:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        devs = invariants.verify_classes(
            tuples, data, data.dims, trials=args.trials, seed=args.seed, cost=cost
        )
        purified = cost.purification  # None unless verify contracted the operator's purification
        res.diagnostics["purification"] = None if purified is None else purified._asdict()
        worst = float(np.max(devs, initial=0.0))  # a NaN deviation is carried, not dropped
        res.values = {t.label(): dev for t, dev in zip(tuples, devs)}
        res.diagnostics.update(max_deviation=worst, threshold=VERIFY_THRESHOLD)
        if not worst <= VERIFY_THRESHOLD:  # the comparison that labels each line ok
            res.exit_code = 1

        def human():
            for t, dev in zip(tuples, devs):
                status = "ok" if dev <= VERIFY_THRESHOLD else "FAIL"
                yield f"{t.label()}  deviation={_fmt(dev)}  {status}"
            yield f"max deviation: {_fmt(worst)}"

        res.human = human
    # summed FLOPs and largest intermediate (elements) of the compiled programs
    res.diagnostics["contraction"] = {"flops": cost.flops, "largest_intermediate": cost.largest}
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
    s_alphas = [svn if alpha == 1 else entropy.renyi(spec, alpha) for alpha in alphas]

    # Cross-check integer orders through tr(rho_keep^k), contracted from the
    # state itself; a cycle | e label needs 2k of the MAX_LABELS (52) indices.
    checked = [a for a in alphas if a == int(a) and a >= 2 and n > len(keep)]
    orders = [int(a) for a in checked if 2 * a <= invariants.MAX_LABELS]
    labels = [invariants.reduced_power_label(n, keep, k) for k in orders]
    traces = dict(zip(orders, invariants.evaluate_many(labels, data, data.dims)))

    # an order's key: its :g text when that reads back as the order, else its repr
    names = [text if float(text := f"{a:g}") == a else repr(a) for a in alphas]
    devs, skipped = {}, []  # devs: order -> cross-check deviation
    for alpha, name, s_alpha in zip(alphas, names, s_alphas):
        res.values[f"S_{name}"] = s_alpha
        if alpha in traces:
            k = int(alpha)
            devs[k] = abs(entropy.renyi_from_invariant(traces[k].real, k) - s_alpha)
            res.diagnostics[f"crosscheck_dev_{k}"] = devs[k]
        elif alpha in checked:
            skipped.append(alpha)
    if skipped:
        res.diagnostics["crosscheck_skipped"] = skipped
    if not np.max(list(devs.values()), initial=0.0) <= ENTROPY_CROSSCHECK_THRESHOLD:  # NaN fails too
        res.exit_code = 1

    def human():
        yield f"S_vn = {_fmt(svn)}"
        for alpha, name, s_alpha in zip(alphas, names, s_alphas):
            line = f"S_{name} = {_fmt(s_alpha)}"
            if alpha in traces:
                line += f"  (invariant cross-check dev={_fmt(devs[int(alpha)])})"
            elif alpha in checked:
                line += f"  (invariant cross-check skipped: needs over {invariants.MAX_LABELS} indices)"
            yield line

    res.human = human
    return res


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tninv",
        description="Tensor-network state factorization and local-unitary invariants",
    )
    # Each subcommand sets ``run``.  Its function is looked up when it runs, so
    # a wrapper put on the module after the parser is built is the one called.
    sub = p.add_subparsers(dest="cmd", required=True)
    # command word -> its parser, the map argparse itself delegates through
    p.commands = sub.choices

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
    e.add_argument("--keep", required=True, help="comma-separated subsystems to keep")
    e.add_argument("--alpha", default="2,3", help="comma-separated Renyi orders")
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
    that hold no reference cycles, and it leaves none in either output
    mode.  The collector is left as it was found on every exit, including
    argparse's ``SystemExit``.

    A command word hands the rest of ``argv`` to that command's parser;
    the top-level parser reads only ``argv`` that starts with no command,
    so help, usage and error text are argparse's own.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with ``--keep -1,0`` written ``--keep=-1,0``, and so for ``--alpha``.

    argparse reads a value after a space that starts with a minus sign as an
    option unless the whole value is one number, so a list such as ``-1,0``
    would never reach the checks that name what is wrong with it.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--keep", "--alpha") and _NUMBER_AFTER_MINUS.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once: a command word hands the rest to its own parser.

    This is the hand-off argparse's subcommand action makes, on the same
    parser objects, without the top-level pass that scans all of ``argv``
    only to find the command.  Any other ``argv`` (empty, an option first,
    an unknown word) goes to the top-level parser for its help or error.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.cmd = argv[0]
    return args


def _main(argv) -> int:
    args = _parse(_joined(sys.argv[1:] if argv is None else list(argv)))
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
