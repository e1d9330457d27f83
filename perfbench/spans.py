"""In-memory spans and the arithmetic the benchmark reports with.

A traced operation is one root span whose children are the calls the
benchmark makes into each layer. Spans stay in memory while the run
measures; :meth:`Tracer.dump` writes them out once the run has ended.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover. Summed per layer name and operation,
self times are the per-layer metrics; the root's self time is the
work no layer span covers (``unattributed_s``).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Iterable, Optional, Sequence


class Tracer:
    """Records nested spans and per-operation counters."""

    def __init__(self) -> None:
        #: one dict per span: id, parent, op, name, start, end
        self.spans: list[dict] = []
        #: one dict per operation: counter name -> value
        self.counters: list[dict[str, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def op(self):
        """The root span of one traced operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self.counters.append({})
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "op": len(self.counters) - 1,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add *value* to a counter of the current operation."""
        counters = self.counters[-1]
        counters[name] = counters.get(name, 0) + value

    def last(self, name: str) -> float:
        """Duration of the most recent finished span called *name*."""
        for record in reversed(self.spans):
            if record["name"] == name and record["end"] is not None:
                return record["end"] - record["start"]
        raise KeyError(name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``[start, end]`` that *intervals* cover
    (overlaps counted once, parts outside the window ignored)."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[dict]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    return [
        (record["end"] - record["start"])
        - covered(record["start"], record["end"], children.get(record["id"], ()))
        for record in spans
    ]


def per_op_layer_seconds(spans: Sequence[dict]) -> list[dict[str, float]]:
    """Self time summed per span name, one dict per operation."""
    per_op: dict[int, dict[str, float]] = {}
    for record, own in zip(spans, self_times(spans)):
        layers = per_op.setdefault(record["op"], {})
        layers[record["name"]] = layers.get(record["name"], 0.0) + own
    return [per_op[op] for op in sorted(per_op)]


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) by linear interpolation between
    order statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return float(values[0])
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(n_samples: int, beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least *beyond* samples above it,
    or ``None`` when the sample is too small to have one."""
    if n_samples < beyond + 1:
        return None
    return 100.0 * (1.0 - beyond / n_samples)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
