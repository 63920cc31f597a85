"""Span tracer that wraps the package's public functions from outside.

Every public function reachable as a module attribute of a layer is
replaced by a wrapper, including names re-imported with ``from .core
import ...`` (those resolve through the importing module's namespace, so
they need their own binding replaced).  ``OperatorMatrix.apply`` is the
one method wrapped.  Spans are aggregated as they close: per function a
call count and self time (duration minus the time covered by its child
spans), and per parent -> child link a call count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("core", "pairs", "chaos", "modular", "network", "report",
          "suites", "cli")
HARNESS = "<harness>"


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.links = {}  # (parent span, child span) -> calls
        self._stack = [0.0]  # child time accumulated by each open span
        self._names = [HARNESS]
        self._undo = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, names, links = self._stack, self._names, self.links
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            link = (names[-1], name)
            names.append(name)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                names.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - child
                links[link] = links.get(link, 0) + 1

        return traced

    def install(self):
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"sympairs.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith("sympairs."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        core = importlib.import_module("sympairs.core")
        cls = core.OperatorMatrix
        self._undo.append((cls, "apply", cls.apply))
        cls.apply = self._wrap("core.OperatorMatrix.apply", cls.apply)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def snapshot(self) -> dict:
        return {name: (s[0], s[1]) for name, s in self.stats.items()}


def delta(after: dict, before: dict) -> dict:
    """Per-span (calls, self seconds) accrued between two snapshots."""
    return {
        name: (calls - before.get(name, (0, 0.0))[0],
               self_s - before.get(name, (0, 0.0))[1])
        for name, (calls, self_s) in after.items()
    }


def layer_self(spans: dict) -> dict:
    """Self seconds summed per layer (the span name's first component)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in spans.items():
        out[name.split(".", 1)[0]] += self_s
    return out
