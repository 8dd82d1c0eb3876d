"""Spans recorded from outside propest, kept in memory and written at the end.

A span is (id, parent, name, start, end, thread, attrs).  Spans nest per
thread: workload -> cell or request -> trial -> layer call.  A span named
``<layer>.<function>`` times a call into that propest module.  Calls that
the estimators module makes into ``numerics`` and ``properties`` are too
many to keep one span each, so :meth:`Tracer.count_inner_calls` adds their
time to the innermost open span instead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# Layers whose calls are counted inside estimator spans instead of spanned.
INNER_LAYERS = ("numerics", "properties")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = next(self._ids)
        stack.append((sid, attrs))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), attrs))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def _patched(self, module, replacements: dict):
        originals = {attr: getattr(module, attr) for attr in replacements}
        for attr, fn in replacements.items():
            setattr(module, attr, fn)
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def count_inner_calls(self, module):
        """Time every numerics/properties function that ``module`` calls by name."""
        replacements = {}
        for attr, fn in vars(module).items():
            if isinstance(fn, types.FunctionType):
                package, _, layer = fn.__module__.rpartition(".")
                if package == "propest" and layer in INNER_LAYERS:
                    replacements[attr] = self._charged(fn, layer)
        return self._patched(module, replacements)

    def span_calls(self, module, names, results: list):
        """Span each call ``module`` makes to the propest functions ``names``.

        The span is named after the called function's own module; each
        return value is appended to ``results``.
        """
        replacements = {}
        for attr in names:
            fn = getattr(module, attr)
            replacements[attr] = self._spanned(fn, f"{fn.__module__.rpartition('.')[2]}.{attr}", results)
        return self._patched(module, replacements)

    def _spanned(self, fn, name: str, results: list):
        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            results.append((name, result))
            return result

        return spanned

    def _charged(self, fn, layer: str):
        def charged(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack = self._stack()
                if stack:
                    attrs = stack[-1][1]
                    attrs[layer + "_s"] = attrs.get(layer + "_s", 0.0) + time.perf_counter() - t0

        return charged

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def inner_total(self, layer: str, name: str) -> float:
        """Time of ``layer``'s calls counted inside the spans named ``name``."""
        return float(sum(s[6].get(layer + "_s", 0.0) for s in self.spans if s[2] == name))

    def _self(self) -> list[tuple[str, float, dict]]:
        """(name, self seconds, inner seconds per layer) of every span."""
        children = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]] += s[4] - s[3]
        out = []
        for s in self.spans:
            inner = {layer: s[6].get(layer + "_s", 0.0) for layer in INNER_LAYERS}
            out.append((s[2], s[4] - s[3] - children[s[0]] - sum(inner.values()), inner))
        return out

    def self_durations(self, name: str) -> list[float]:
        """Self time of each span named ``name``: less child spans and inner calls."""
        return [own for span_name, own, _ in self._self() if span_name == name]

    def layer_busy(self) -> dict:
        """Self time per layer: the prefix of ``<layer>.<function>`` span names."""
        busy = defaultdict(float)
        for name, own, inner in self._self():
            if "." in name:
                busy[name.split(".", 1)[0]] += own
            for layer, seconds in inner.items():
                busy[layer] += seconds
        return busy

    def write(self, path, extra: dict) -> None:
        spans = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
             "thread": s[5], "attrs": s[6]}
            for s in sorted(self.spans, key=lambda s: s[3])
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(extra, spans=spans), f)
