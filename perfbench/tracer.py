"""In-process tracer: wraps frobpair's public functions from outside.

Each layer boundary gets a wrapper that counts calls and accumulates self
time, the wrapper's duration minus the durations of the traced calls nested
inside it.  Wrappers are installed by rebinding every name that refers to the
original function, in every loaded frobpair module: `compose` and `tensor`
are imported by name into `theory`, `pair`, `cobordism` and `cube`, and
`evaluate` into `cli`, so patching only the defining module would miss most
calls.  Methods are patched on their class.

Spans (name, start, end, parent span, job) are kept in memory for the coarse
layers and written out by `write_spans`.  Ring and tensor operations run
hundreds of thousands of times per pass, so they are counted and timed in
aggregate only.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from frobpair import cli, cobordism, cube, pair, ring, tensor, theory

#: (metric prefix, owner, attribute names, size metric, size function, keep spans)
LAYERS = (
    ("ring.mul", ring.RingElem, ("__mul__",), None, None, False),
    ("ring.add", ring.RingElem, ("__add__",), None, None, False),
    ("tensor.compose", tensor, ("compose",), "entries", lambda r, a: len(r.entries), False),
    ("tensor.tensor", tensor, ("tensor",), "entries", lambda r, a: len(r.entries), False),
    ("tensor.permutation", tensor.LinMap, ("permutation",), None, None, False),
    ("tensor.equal", tensor, ("equal",), None, None, False),
    ("theory.evaluate_term", theory, ("evaluate_term",), None, None, True),
    ("theory.load_axioms", theory, ("load_axioms",), None, None, True),
    ("pair.verify", pair, ("verify",), None, None, True),
    ("pair.build", pair, ("build_aps", "build_tt", "build_it", "build_sqrt",
                          "build_laurent_sqrt", "build_rank2", "build_double",
                          "pair_from_json"), None, None, True),
    ("pair.generator_table", pair.FrobeniusPair, ("generator_table",), None, None, True),
    ("cobordism.evaluate", cobordism, ("evaluate",), None, None, True),
    ("cobordism.diamond", cobordism, ("diamond_exchange_suite",), None, None, True),
    ("cube.load", cube, ("cube_from_json",), None, None, True),
    ("cube.edge_map", cube, ("edge_map",), None, None, True),
    ("cube.differential", cube, ("differential",), "entries",
     lambda r, a: len(r.entries), True),
    ("cube.d_squared", cube, ("check_d_squared",), None, None, True),
    ("cube.rank", cube, ("sparse_rank_fraction", "sparse_rank_gf2"), "rows",
     lambda r, a: len(a[0]), True),
    ("cube.snf", cube, ("smith_normal_form",), "cells",
     lambda r, a: len(a[0]) * (len(a[0][0]) if a[0] else 0), True),
    ("cube.homology", cube, ("homology",), None, None, True),
    ("cli.main", cli, ("main",), None, None, True),
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS)


def _is_unit(x) -> bool:
    """True for the ring elements and numbers +1 and -1."""
    if isinstance(x, ring.RingElem):
        terms = x.terms
        return len(terms) == 1 and terms.get(()) in (1, -1)
    return x == 1 or x == -1


class Tracer:
    """Counters, self times and spans for one traced run."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.sizes = {}
        self.useful_mul = 0
        self.spans = []
        self.job = None
        self._stack = [[0.0, None]]  # [child seconds, span id] per open call
        self._undo = []

    # -- installation ------------------------------------------------------------

    def install(self):
        targets = [m for name, m in sorted(sys.modules.items())
                   if (name == "frobpair" or name.startswith("frobpair.")) and m is not None]
        for name, owner, attrs, size_name, size_fn, keep in LAYERS:
            for attr in attrs:
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue  # the layer no longer has this function
                if isinstance(raw, staticmethod):
                    wrapper = self._wrap(name, raw.__func__, size_name, size_fn, keep)
                    self._rebind(owner, raw, staticmethod(wrapper))
                    continue
                wrapper = self._wrap(name, raw, size_name, size_fn, keep)
                for ns in [owner] if isinstance(owner, type) else targets:
                    self._rebind(ns, raw, wrapper)
        return self

    def _rebind(self, ns, original, replacement):
        """Point every attribute of ns that is `original` at `replacement`."""
        for attr, value in list(vars(ns).items()):
            if value is original:
                self._undo.append((ns, attr, value))
                setattr(ns, attr, replacement)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name, fn, size_name, size_fn, keep):
        stack = self._stack
        calls, self_s, spans = self.calls, self.self_s, self.spans
        tracer = self
        size_key = f"{name}.{size_name}" if size_name else None
        if size_key:
            self.sizes.setdefault(size_key, 0)
        is_mul = name == "ring.mul"

        def wrapper(*args, **kwargs):
            if is_mul and not (_is_unit(args[0]) or _is_unit(args[1])):
                tracer.useful_mul += 1
            span_id = len(spans) if keep else None
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if keep:
                    spans[span_id] = (span_id, parent[1], tracer.job, name, start, end)
            if size_key:
                tracer.sizes[size_key] += size_fn(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_job(self, job_id, fn):
        """Run fn as the root span of one benchmark job."""
        self.job = job_id
        try:
            return fn()
        finally:
            self.job = None

    # -- results -------------------------------------------------------------------

    def counters(self) -> dict:
        """Raw counters so far: '<layer>.calls', '<layer>.self_s', the size
        totals and 'ring.mul.useful', the products with no unit operand."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.sizes)
        out["ring.mul.useful"] = self.useful_mul
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def layer_metrics(counters) -> dict:
    """Per-layer metrics from raw counters, or from a difference of two."""
    out = dict(counters)
    useful = out.pop("ring.mul.useful")
    muls = out["ring.mul.calls"]
    out["ring.mul.useful_ratio"] = useful / muls if muls else 0.0
    return out
