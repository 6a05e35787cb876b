"""Spans, self time and percentiles for the benchmark's own trace.

The traced run wraps each call the benchmark makes into a layer's public
function in a span.  Spans stay in memory until the run ends; a layer's
self time is its span's duration minus the part of that interval its
child spans cover, so nested calls are charged once.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder, or -1.
    parent: int
    #: The workload item the span belongs to.
    item: str


class Spans:
    """An in-memory span recorder for one thread of calls."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[Span | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str = ""):
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records[index] = Span(name, start, end, parent, item)

    def add(self, name: str, start: float, end: float, item: str = "") -> None:
        """Record a top-level span whose interval was measured by hand."""
        self.records.append(Span(name, start, end, -1, item))

    def finished(self) -> list[Span]:
        return [span for span in self.records if span is not None]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        spans = self.finished()
        totals: dict[str, float] = {}
        for span, own in zip(spans, self_times(spans)):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.finished():
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class _Nothing:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


class NoSpans:
    """The untraced stand-in: ``span`` records nothing."""

    enabled = False
    _nothing = _Nothing()

    def span(self, name: str, item: str = "") -> _Nothing:
        return self._nothing


NO_SPANS = NoSpans()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


#: Fewest samples a percentile needs above it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank: p50 needs 20 samples, p90 needs 100.
    """
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if len(ordered) - rank < MIN_BEYOND or rank < 1:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return ordered[rank - 1]
