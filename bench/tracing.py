"""Spans around calls into hcmeta's layers, recorded by the benchmark itself.

Every call the benchmark makes into a layer goes through :meth:`Tracer.call`.
Calls that one layer makes into another are reached by replacing the module
global the caller looks up (for example ``hcmeta.potential.voltage``, which
``expected_hitting_time`` calls) with a wrapper that opens a child span.  The
package source is never modified; the wrappers are installed only for traced
passes and removed afterwards.
"""
from __future__ import annotations

import importlib
import sys
import time

# (module that looks the name up, global name, span name)
NESTED = (
    ("hcmeta.potential", "effective_resistance", "potential.effective_resistance"),
    ("hcmeta.potential", "voltage", "potential.voltage"),
    ("hcmeta.metastability", "psi_symbolic", "potential.psi_symbolic"),
    ("hcmeta.metastability", "dominance_sets", "metastability.dominance_sets"),
    ("hcmeta.metastability", "brute_force_profile", "isoperimetry.brute_force_profile"),
)


class Tracer:
    """Span recorder; ``enabled`` is switched per pass by the worker.

    A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
    the enclosing span in :attr:`spans` (-1 at top level) and ``run`` is the
    pass the span belongs to.  With tracing on or off, :meth:`call` reports
    which layer the benchmark is in, so a run that hits its time cap can say
    where it stopped.
    """

    def __init__(self, progress=sys.stdout):
        self.enabled = False
        self.run = 0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._progress = progress
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``, a layer's public function, from the benchmark."""
        print(f"@layer {name}", file=self._progress, flush=True)
        return self._span(name, fn, args, kwargs)

    def _span(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.run]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap the nested call sites listed in :data:`NESTED`."""
        for mod_name, attr, span_name in NESTED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(span_name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        wrapped.__wrapped__ = fn
        return wrapped


def layer_times(spans, run) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self time per span name for one pass.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since the work is serial.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for _, start, end, parent, r in spans:
        if r == run and parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for idx, (name, start, end, parent, r) in enumerate(spans):
        if r != run:
            continue
        d = end - start
        total[name] = total.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + d - child_time.get(idx, 0.0)
    return total, own
