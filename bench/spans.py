"""The benchmark's one timing mechanism: spans and counts, kept in memory.

A span records its name, start, end, parent span and the operation it
belongs to. When ``tracemalloc`` is tracing, it also records the peak of
traced memory inside the span, measured from the memory in use when the span
began. A disabled tracer hands out one shared no-op context, so untraced
runs pay a single method call per layer call and record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

_NO_SPAN = nullcontext()
MIB = 1024 * 1024
# The root span of one operation; self times are reported per operation.
OPERATION = "bench.op"


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    memory: bool = False  # tracemalloc was tracing: the peak is known
    base_bytes: int = 0
    peak_bytes: int = 0  # absolute traced peak seen while the span was open

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return (self.peak_bytes - self.base_bytes) / MIB


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.op = ""
        self.spans: list[Span] = []
        self.counts: list[tuple[str, str, float]] = []  # (op, name, value)
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _NO_SPAN

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.op, name, value))

    @contextmanager
    def _record(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.op, parent, 0.0)
        if tracemalloc.is_tracing():
            span.memory = True
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                # reset_peak below forgets the parent's peak so far; keep it.
                self.spans[parent].peak_bytes = max(self.spans[parent].peak_bytes, peak)
            tracemalloc.reset_peak()
            span.base_bytes = span.peak_bytes = current
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if span.memory:
                span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    self.spans[parent].peak_bytes = max(self.spans[parent].peak_bytes, span.peak_bytes)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""

        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counts": self.counts},
                handle,
            )
            handle.write("\n")


def per_op(tracer: Tracer, ops: set[str]) -> dict[str, float]:
    """Per-layer figures for the given operations, each the median over the
    operations that produced it: ``<span>_ms`` sums the span's durations
    within an operation, ``<layer>.self_ms`` sums the layer's self times
    within operations that have an OPERATION root span (not within loose
    probes), and counts are summed. ``<span>_peak_mb`` is the largest traced
    peak; it comes only from spans recorded under tracemalloc, and their
    times, which tracemalloc inflates, are left out."""

    totals: dict[str, dict[str, float]] = {}

    def add(name: str, op: str, value: float) -> None:
        by_op = totals.setdefault(name, {})
        by_op[op] = by_op.get(op, 0.0) + value

    peaks: dict[str, float] = {}
    operations = {s.op for s in tracer.spans if s.name == OPERATION}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        if span.op not in ops:
            continue
        if span.memory:
            peaks[f"{span.name}_peak_mb"] = max(peaks.get(f"{span.name}_peak_mb", 0.0), span.peak_mb)
            continue
        add(f"{span.name}_ms", span.op, span.seconds * 1e3)
        if span.op in operations:
            add(f"{span.layer}.self_ms", span.op, own * 1e3)
    for op, name, value in tracer.counts:
        if op in ops:
            add(name, op, value)
    result = {name: statistics.median(by_op.values()) for name, by_op in totals.items()}
    result.update(peaks)
    return result
