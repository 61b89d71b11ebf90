"""Spans, per-module self time and latency statistics for the benchmark.

Spans are recorded from the benchmark's own code, around each call it makes
into a ``bellopt`` module; the library itself is not instrumented.  A span
name is ``<module>.<function>`` (``harness.op`` for the root span of one
operation, ``harness.check`` for the whole-run checks), so a module's self
time is the summed self time of the spans whose name starts with that
module.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

#: percentiles the tail latency may be read at; the benchmark reports the
#: highest one with at least ``TAIL_BEYOND`` samples above it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int | None
    name: str
    start: float
    end: float = math.nan
    units: int = 1


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes every call direct.

    Calls are strictly nested (one thread, closed loop), so the innermost
    open span is the parent of the next one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id: int | None = None

    def call(self, name: str, fn, *args, units: int = 1, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span when tracing is on;
        ``units`` is the amount of work the call does (runs, for ensembles)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        span.units = units
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def begin_op(self, op_id: int, name: str) -> Span | None:
        if not self.enabled:
            return None
        self._op_id = op_id
        return self._open(name)

    def end_op(self, span: Span | None) -> None:
        """Close the operation's span, and any span an interrupted call
        (a timeout) left open inside it."""
        if span is None:
            return
        while self._stack[-1] is not span:
            self._close(self._stack[-1])
        self._close(span)
        self._op_id = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def per_unit(self, name: str) -> list[float]:
        """Duration per unit of work of every span with this name, in seconds."""
        return [(s.end - s.start) / s.units for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per module (first name component):
        each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            module = s.name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s.end - s.start) - covered
        return out

    def dump(self, path) -> None:
        """Write every span as JSON, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": s.span_id, "parent": s.parent_id, "op": s.op_id, "name": s.name,
             "start_s": s.start - t0, "end_s": s.end - t0, "units": s.units}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of ``n``
    samples above it; the median when there are too few samples for any."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 6) >= TAIL_BEYOND:
            best = q
    return best


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail latency in ms, with the tail's percentile and count."""
    values = sorted(seconds)
    q = tail_percentile(len(values))
    return {
        "p50_ms": percentile(values, 50.0) * 1e3,
        "tail_ms": percentile(values, q) * 1e3,
        "tail_percentile": q,
        "samples": len(values),
    }
