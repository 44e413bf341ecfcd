"""Span recorder for the traced benchmark run.

`Tracer.installed()` replaces every public module-level function of the
measured sparselm modules with a wrapper that records one span per call,
everywhere the function object is bound inside the package (so names that
one module imported from another are traced too). Nothing under `src/`
changes; leaving the context restores the original functions.

A span is (run_id, name, start, end, parent): `parent` is the index of the
enclosing span in `Tracer.spans`, or -1. Spans stay in memory until the run
ends. Calls are assumed to come from one thread, so spans nest properly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("tensor", "model", "sparsity", "training", "checkpoint", "finetune",
          "evaluation", "data", "flops")


class NullTracer:
    """Stand-in for the untraced run: wraps nothing, records nothing."""

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Records spans of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Return `fn` recording a span called `name` around each call.

        The recording is written out here rather than built on `span()`: it
        runs around every tensor op, where a generator-based context manager
        would add more cost to the traced run."""
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (run_id, name, start, clock(), parent)
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (self.run_id, name, start, time.perf_counter(), parent)
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, package):
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        patched = []
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for run_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class SpanIndex:
    """Derived views of a finished span list: durations, self times, and the
    unit span (a benchmark span such as `bench.step`) each span belongs to."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (_, name, _, _, parent) in enumerate(spans):
            self.by_name[name].append(i)
            if parent >= 0:
                self.children[parent].append(i)
        self._unit_of = {}

    def duration(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def unit_of(self, unit):
        """Each span inside a span called `unit`, mapped to that unit span."""
        if unit not in self._unit_of:
            owner = {}
            for u in self.by_name[unit]:
                stack = [u]
                while stack:
                    i = stack.pop()
                    owner[i] = u
                    stack.extend(self.children[i])
            self._unit_of[unit] = owner
        return self._unit_of[unit]

    def named(self, name, within=None):
        """Spans called `name`; with `within`, only those inside a span called so."""
        if within is None:
            return self.by_name[name]
        owner = self.unit_of(within)
        return [i for i in self.by_name[name] if i in owner]

    def per_unit(self, name, measure, unit):
        """measure(i) summed over spans called `name`, one total per span called `unit`."""
        owner = self.unit_of(unit)
        totals = dict.fromkeys(self.by_name[unit], 0.0)
        for i in self.by_name[name]:
            if i in owner:
                totals[owner[i]] += measure(i)
        return list(totals.values())

    def layer_self_seconds(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for i, span in enumerate(self.spans):
            layer = span[1].split(".", 1)[0]
            if layer in totals:
                totals[layer] += self.self_time(i)
        return totals
