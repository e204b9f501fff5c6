"""Span tracing around the calls into pcqed's layers.

Spans are recorded from the benchmark's own files: ``instrument`` replaces
a pcqed function with a wrapper under every name that refers to it in the
package's modules (so ``gates.evolve`` and ``sweep.pulse_area`` are caught
as well as ``ode.evolve`` and ``coupling.pulse_area``), and ``restore`` puts
the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = True
        self._stack: list[int] = []  # indices of the open spans

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions run unrecorded inside this block."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        stack = self._stack
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time direct children cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return dict(out)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it is defined, how its span is named, and
    an optional hook that turns (args, kwargs, result) into counts."""

    module: str
    attr: str
    span: object  # str, or callable(args, kwargs) -> str
    counter: object = None  # callable(tracer, args, kwargs, result) -> None


def instrument(tracer: Tracer, probes) -> list[tuple[object, str, object]]:
    """Wrap each probe's function under every pcqed name bound to it.

    Returns the patches for ``restore``, and skips probes whose function no
    longer exists, so their metrics come out absent.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "pcqed" or name.startswith("pcqed."))]
    patches = []
    for probe in probes:
        owner = sys.modules.get(probe.module)
        original = getattr(owner, probe.attr, None) if owner is not None else None
        if original is None:
            continue
        wrapper = _wrapper(tracer, probe, original)
        for module in modules + [owner]:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    patches.append((module, name, original))
    return patches


def restore(patches) -> None:
    for module, name, original in reversed(patches):
        setattr(module, name, original)


def _wrapper(tracer: Tracer, probe: Probe, original):
    def traced(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        name = probe.span(args, kwargs) if callable(probe.span) else probe.span
        result = tracer.call(name, original, *args, **kwargs)
        if probe.counter is not None:
            probe.counter(tracer, args, kwargs, result)
        return result

    traced.__wrapped__ = original
    return traced
