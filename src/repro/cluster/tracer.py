"""Trace collection: the engines' side of the cost/memory accounting.

A :class:`Tracer` groups :class:`~repro.cluster.events.CostEvent` and
:class:`~repro.cluster.events.MemoryEvent` records into named phases
(``init``, ``iteration:0``, ``iteration:1``, ...).  Platform engines are
handed a tracer (or the do-nothing :class:`NullTracer`) and call
:meth:`Tracer.emit` / :meth:`Tracer.materialize` as they execute.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.cluster.events import DATA, CostEvent, Kind, MemoryEvent, Phase, Site


class Tracer:
    """Collects phased cost and memory events from an engine run."""

    def __init__(self) -> None:
        self.phases: list[Phase] = []
        self._current: Phase | None = None
        self._pinned: dict[int, MemoryEvent] = {}
        self._next_pin = 0

    @contextmanager
    def phase(self, name: str) -> Iterator[Phase]:
        """Open a named phase; events emitted inside are attributed to it.

        Re-entering a name appends a new phase with the same name (the
        simulator sums same-named phases), but nesting is an error —
        engine phases are strictly sequential, like the paper's
        initialization-then-iterations structure.

        Memory pinned via :meth:`pin` (cached RDDs, resident graphs) is
        added to every phase that closes while the pin is live.
        """
        if self._current is not None:
            raise RuntimeError(f"phase {name!r} opened inside phase {self._current.name!r}")
        opened = Phase(name)
        self.phases.append(opened)
        self._current = opened
        try:
            yield opened
        finally:
            opened.memory.extend(self._pinned.values())
            self._current = None

    def pin(
        self,
        bytes: float = 0.0,
        objects: float = 0.0,
        scale: str = DATA,
        site: Site = Site.CLUSTER,
        spillable: bool = False,
        label: str = "",
    ) -> int:
        """Register memory resident across phases (e.g. a cached RDD).

        Returns a handle for :meth:`unpin`.  The memory is charged to
        every phase that closes while pinned, including the current one.
        """
        event = MemoryEvent(
            bytes=bytes, objects=objects, scale=scale, site=site, spillable=spillable, label=label
        )
        handle = self._next_pin
        self._next_pin += 1
        self._pinned[handle] = event
        return handle

    def unpin(self, handle: int) -> None:
        """Release pinned memory; future phases no longer pay for it."""
        self._pinned.pop(handle, None)

    def init_phase(self):
        return self.phase("init")

    def iteration_phase(self, index: int):
        return self.phase(f"iteration:{index}")

    def emit(
        self,
        kind: Kind,
        records: float = 0.0,
        flops: float = 0.0,
        bytes: float = 0.0,
        language: str = "python",
        scale: str = DATA,
        site: Site = Site.CLUSTER,
        label: str = "",
    ) -> None:
        """Record one unit of work in the current phase."""
        event = CostEvent(
            kind=kind,
            records=records,
            flops=flops,
            bytes=bytes,
            language=language,
            scale=scale,
            site=site,
            label=label,
        )
        self._require_phase().events.append(event)

    def materialize(
        self,
        bytes: float = 0.0,
        objects: float = 0.0,
        scale: str = DATA,
        site: Site = Site.CLUSTER,
        spillable: bool = False,
        label: str = "",
    ) -> None:
        """Record memory resident for the remainder of the current phase."""
        event = MemoryEvent(
            bytes=bytes,
            objects=objects,
            scale=scale,
            site=site,
            spillable=spillable,
            label=label,
        )
        self._require_phase().memory.append(event)

    def iteration_phases(self) -> list[Phase]:
        return [p for p in self.phases if p.is_iteration]

    def named(self, name: str) -> list[Phase]:
        return [p for p in self.phases if p.name == name]

    def summary(self) -> dict:
        """Aggregate totals over every phase, for reports and benchmarks.

        Returns a plain-JSON-able dict with event counts by kind, total
        records/flops, and bytes broken down by scale group — the shared
        summarizer behind ``bench/report.py`` and the microbenchmark
        output.
        """
        events_by_kind: dict[str, int] = {}
        records = 0.0
        flops = 0.0
        total_bytes = 0.0
        bytes_by_scale: dict[str, float] = {}
        for phase in self.phases:
            for event in phase.events:
                kind = event.kind.value
                events_by_kind[kind] = events_by_kind.get(kind, 0) + 1
                records += event.records
                flops += event.flops
                total_bytes += event.bytes
                if event.bytes:
                    bytes_by_scale[event.scale] = (
                        bytes_by_scale.get(event.scale, 0.0) + event.bytes)
        return {
            "phases": len(self.phases),
            "events": sum(events_by_kind.values()),
            "events_by_kind": dict(sorted(events_by_kind.items())),
            "compute_events": events_by_kind.get("compute", 0),
            "shuffle_events": events_by_kind.get("shuffle", 0),
            "records": records,
            "flops": flops,
            "bytes": total_bytes,
            "bytes_by_scale": dict(sorted(bytes_by_scale.items())),
        }

    # ------------------------------------------------------------------
    # event capture/replay (host fast path)
    # ------------------------------------------------------------------
    #
    # The dataflow engine memoizes partition results within an action and
    # must re-emit the *exact* events a recomputation would have emitted.
    # ``_mark``/``_events_since`` snapshot the span a computation emitted
    # into the current phase; ``_replay`` appends those (frozen) events
    # again in order.

    def _mark(self) -> tuple[int, int] | None:
        if self._current is None:
            return None
        return (len(self._current.events), len(self._current.memory))

    def _events_since(self, mark) -> tuple[tuple, tuple]:
        if mark is None or self._current is None:
            return ((), ())
        return (tuple(self._current.events[mark[0]:]),
                tuple(self._current.memory[mark[1]:]))

    def _replay(self, events, memory) -> None:
        if not events and not memory:
            return
        phase = self._require_phase()
        phase.events.extend(events)
        phase.memory.extend(memory)

    def _require_phase(self) -> Phase:
        if self._current is None:
            raise RuntimeError("emit/materialize called outside any phase")
        return self._current


class NullTracer(Tracer):
    """A tracer that accepts and discards everything.

    Used when an engine is exercised for correctness only (unit tests,
    examples) and no cost accounting is wanted.  Phases may nest freely.
    """

    @contextmanager
    def phase(self, name: str) -> Iterator[Phase]:
        yield Phase(name)

    def emit(self, *args, **kwargs) -> None:
        pass

    def materialize(self, *args, **kwargs) -> None:
        pass

    def pin(self, *args, **kwargs) -> int:
        return -1

    def unpin(self, handle: int) -> None:
        pass

    def _mark(self) -> None:
        return None

    def _replay(self, events, memory) -> None:
        pass
