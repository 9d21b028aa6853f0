"""Span tracing installed from the benchmark's files; bqec is not edited.

Tracer.install() wraps every public function of the layer modules, plus
the public methods of Curve, and patches each wrapped name in every bqec
module that bound it with ``from .x import y`` (bqec.cli.canonical_height,
bqec.torsion.factorize, the bqec package namespace, ...).  A span is the
tuple (name, start, end, parent, request, info): parent is the index of the
enclosing span or -1, request the id the runner set, and info a value a
hook took from the call's arguments or result (see HOOKS).  Spans stay in
memory until write() dumps them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
import types

LAYERS = ("cli", "analysis", "curves", "torsion", "quad", "family", "arith")
# legendre runs once per residue; its count comes from count_points' p instead.
# odd_primes_from is a generator, so a span would time only its creation.
SKIP = frozenset({"arith.legendre", "arith.odd_primes_from"})
CURVE_METHODS = {
    "add": "curves.add",
    "multiply": "curves.multiply",
    "negate": "curves.negate",
    "contains": "curves.contains",
    "require": "curves.require",
    "integral_model": "curves.integral_model",
    "count_points_mod_p": "curves.count_points",
}


def _count_points(args, result, exc):
    return args[1] if exc is None else -1  # p when counted, -1 for a skipped prime


def _height_digits(args, result, exc):
    if exc is not None or result.value == 0.0:
        return 0.0
    return result.value * 4 ** result.doublings_used / 2.302585092994046


def _sieve(args, result, exc):
    if exc is not None:
        return None
    return (len(result), sum(r.singular for r in result), sum(r.passed for r in result))


HOOKS = {
    "curves.count_points": _count_points,
    "analysis.canonical_height": _height_digits,
    "analysis.sieve": _sieve,
    "torsion.torsion_subgroup": lambda args, result, exc: exc is None and result.proven,
    "quad.search_quads_range": lambda args, result, exc: (args[1] - args[0], len(result or ())),
    "arith.rational_sqrt": lambda args, result, exc: result is not None,
    "arith.divisors_bounded": lambda args, result, exc: exc is None and result[1],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, hook, tracer = self.spans, self._stack, time.perf_counter, HOOKS.get(name), self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # recorded, then re-raised
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request,
                                hook(args, None, exc) if hook else None)
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, tracer.request,
                            hook(args, result, None) if hook else None)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bqec" or n.startswith("bqec.")]
        for layer in LAYERS:
            module = importlib.import_module(f"bqec.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self.wrap(name, fn)
                for owner in modules:
                    if getattr(owner, attr, None) is fn:
                        self._patch(owner, attr, wrapper)
        curve = importlib.import_module("bqec.curves").Curve
        for attr, name in CURVE_METHODS.items():
            self._patch(curve, attr, self.wrap(name, vars(curve)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
