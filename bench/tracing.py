"""Spans and counts at the public-function boundary of every tninv module.

The tracer replaces each public function (and two methods) with a wrapper
in every module namespace that binds it, so calls made through
``tninv.invariants.contract`` are seen as well as ``tninv.tensor.contract``.
Nothing in the program is changed on disk; ``uninstall`` restores the
originals.  ``perms`` functions are called millions of times in the
combinatorial jobs, so they get a cheaper wrapper: a call count and one
module-level busy time, no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict

import tninv
from tninv import cli, decompose, entropy, invariants, perms, states, tensor

LAYERS = {
    "perms": perms,
    "invariants": invariants,
    "tensor": tensor,
    "states": states,
    "decompose": decompose,
    "entropy": entropy,
    "cli": cli,
}
COUNT_ONLY = {"perms"}
METHODS = {"entropy": [("Spectrum", "from_density")], "cli": [("CommandResult", "render")]}


def _contract_counts(args, kwargs, result):
    a, pairing = args[0], args[2]
    contracted = math.prod(a.dims[int(i)] for i, _ in pairing)
    nbytes = result.data.nbytes
    # one complex multiply-add (8 real flops) per output element per summed index
    return {"bytes_out": nbytes, "flops": 8 * result.data.size * contracted}


def _enumerate_counts(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {
        "orbit_found": sum(c.orbit_size for c in result),
        "orbit_tried": len(result) * math.factorial(k),
    }


COUNTERS = {
    "tensor.contract": _contract_counts,
    "tensor.self_trace": lambda a, kw, r: {"bytes_out": r.data.nbytes},
    "states.load_state": lambda a, kw, r: {"bytes_in": os.path.getsize(a[0])},
    "states.density_from_pure": lambda a, kw, r: {"bytes_out": r.data.nbytes},
    "states.bipartition_density": lambda a, kw, r: {"bytes_out": r[0].data.nbytes},
    "invariants.enumerate_invariants": _enumerate_counts,
}


class Tracer:
    """Records spans ``(id, parent, job, name, start, end)`` in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = 0  # id of the current job, set by the caller
        self._stack: list[list] = []  # [span id, time covered by children]
        self._leaf_depth = 0
        self._restore: list[tuple] = []

    # -- wrappers

    def _span(self, name, layer, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                self.spans.append((sid, parent, self.job, name, start, end))
            if counter:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _leaf(self, name, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._leaf_depth -= 1
                self.calls[name] += 1
                if self._leaf_depth == 0:
                    self.self_s[layer] += elapsed
                    if self._stack:
                        self._stack[-1][1] += elapsed

        return wrapper

    # -- install / uninstall

    def install(self):
        replaced = {}
        for layer, mod in LAYERS.items():
            make = self._leaf if layer in COUNT_ONLY else self._span
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    replaced[id(obj)] = (obj, make(f"{layer}.{attr}", layer, obj))
            for cls_name, meth in METHODS.get(layer, []):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._span(f"{layer}.{cls_name}.{meth}", layer, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, raw))
        for mod in [tninv, *LAYERS.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, attr, replaced[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results

    def layer_metrics(self) -> dict:
        """Every counter and self time, keyed ``<layer>.<function>.<what>``."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.self_s.items():  # a count-only layer has one entry
            out[f"{name}.self_s"] = s
        for layer in LAYERS:
            if layer not in COUNT_ONLY:
                out[f"{layer}.self_s"] = sum(
                    s for name, s in self.self_s.items() if name.startswith(layer + ".")
                )
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(self.counts)
        tried = self.counts.get("invariants.enumerate_invariants.orbit_tried", 0)
        if tried:
            out["invariants.enumerate.orbit_hit_ratio"] = (
                self.counts["invariants.enumerate_invariants.orbit_found"] / tried
            )
        return out

    def dump(self, path):
        """Write the spans as JSON lines: one header, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "job", "name", "start", "end"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
