"""Vectorized trace algebra: one recorded trace, arbitrary scenario grids.

The simulator's per-cell path walks Python ``CostEvent`` objects one at
a time.  That is fine for a single cell, but the paper's verdict rests
on sweeping platform x model x cluster-size x crash-rate x seed grids,
and every cell of such a sweep re-reads the *same* trace.  This module
keeps the trace columnar — parallel numpy arrays over events — and
evaluates the cost model, the memory check, and the fault replay of
:mod:`repro.cluster.faults` as array expressions, so a thousand-cell
grid costs one pass over the arrays instead of a thousand event walks.

Bitwise identity with the per-cell oracle is a hard contract, not a
best effort (``tests/test_tracealgebra.py`` asserts it cell by cell):

* every per-event formula below copies the *exact expression tree* of
  :func:`repro.cluster.costmodel.event_seconds` — elementwise IEEE-754
  double ops match scalar Python float ops when the operation order is
  identical;
* per-phase totals fold with ``np.cumsum(...)[-1]``, the sequential
  left-to-right accumulation the scalar ``+=`` loop performs (pairwise
  ``np.sum`` would round differently);
* scenario-level coefficients (slots, network denominators, broadcast
  and barrier factors, backoff delays) are computed in scalar Python
  with the same expressions the scalar code uses, then broadcast;
* fault replay applies the same masked additions in the same order the
  :class:`~repro.cluster.faults.FaultInjector` loop does, with the
  per-phase uniforms drawn from the identical ``make_rng((seed, index))``
  streams.

The grid covers *sampled* fault schedules (``FaultRates`` or none).
Explicit per-phase ``Fault`` lists stay on the per-cell oracle —
:meth:`repro.cluster.simulator.Simulator.simulate` — which remains the
reference implementation for everything here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cluster.costmodel import (
    LANGUAGE_COSTS,
    PlatformProfile,
    RecoveryStrategy,
    ResizeCost,
    ScaleMap,
)
from repro.cluster.events import PARALLEL_KINDS, Kind, MemoryEvent, Site
from repro.cluster.faults import FaultRates
from repro.cluster.machine import ClusterSpec, Fleet
from repro.cluster.memory import MemoryVerdict, check_phase_memory
from repro.cluster.simulator import PhaseReport, RunReport
from repro.cluster.tracer import Tracer
from repro.config import CHECKPOINT_REPLICATION, DEFAULT_RETRY_POLICY, RetryPolicy
from repro.stats import make_rng

__all__ = [
    "GridResult",
    "Scenario",
    "ScenarioGrid",
    "TraceTable",
    "simulate_grid",
]

#: Stable kind <-> small-int code tables for the event arrays.
_KINDS: tuple[Kind, ...] = tuple(Kind)
_KIND_CODE: dict[Kind, int] = {kind: code for code, kind in enumerate(_KINDS)}
_SITES: tuple[Site, ...] = tuple(Site)
_SITE_CODE: dict[Site, int] = {site: code for code, site in enumerate(_SITES)}
_PARALLEL_KIND_CODES = frozenset(_KIND_CODE[kind] for kind in PARALLEL_KINDS)
_CLUSTER = _SITE_CODE[Site.CLUSTER]


def _fold(values: np.ndarray) -> float:
    """Sequential left-to-right sum, identical to a scalar ``+=`` loop."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


@dataclass(frozen=True)
class TraceTable:
    """A finished trace as parallel columns over all cost events.

    One row per :class:`~repro.cluster.events.CostEvent`, in trace
    order; ``phase_slices`` delimits each phase's rows.  Metadata
    (language, scale, site) is interned: the per-event ``meta`` column
    indexes ``meta_scales``/``meta_sites`` and the pre-gathered
    language-cost arrays.  Memory events stay as objects — they are a
    handful per phase and the scalar
    :func:`~repro.cluster.memory.check_phase_memory` is already exact.
    """

    phase_names: tuple[str, ...]
    phase_slices: tuple[tuple[int, int], ...]
    phase_memory: tuple[tuple[MemoryEvent, ...], ...]
    kinds: np.ndarray  # (E,) kind codes into _KINDS
    records: np.ndarray  # (E,) float64, laptop-scale quantities
    flops: np.ndarray
    bytes: np.ndarray
    meta: np.ndarray  # (E,) intern codes
    meta_scales: tuple[str, ...]  # scale label per intern code
    meta_sites: np.ndarray  # (M,) site codes into _SITES
    ev_per_record: np.ndarray = field(repr=False, default=None)  # (E,)
    ev_per_flop: np.ndarray = field(repr=False, default=None)
    ev_per_serialized_byte: np.ndarray = field(repr=False, default=None)
    ev_site: np.ndarray = field(repr=False, default=None)  # (E,) site codes
    parallel_mask: np.ndarray = field(repr=False, default=None)  # (E,) bool
    kind_index: dict[int, np.ndarray] = field(repr=False, default=None)

    @property
    def n_phases(self) -> int:
        return len(self.phase_names)

    @property
    def n_events(self) -> int:
        return int(self.kinds.shape[0])

    @staticmethod
    def _finish(phase_names, phase_slices, phase_memory, kinds, records,
                flops, bytes_, meta, metas) -> "TraceTable":
        """Derive the gathered per-event columns from the raw ones."""
        meta_scales = tuple(m[1] for m in metas)
        meta_sites = np.array([_SITE_CODE[m[2]] for m in metas], dtype=np.int64)
        per_record = np.array([LANGUAGE_COSTS[m[0]].per_record for m in metas])
        per_flop = np.array([LANGUAGE_COSTS[m[0]].per_flop for m in metas])
        per_ser = np.array(
            [LANGUAGE_COSTS[m[0]].per_serialized_byte for m in metas])
        if len(metas) == 0:
            # np fancy-indexing needs a non-empty table even for 0 events
            meta_sites = np.zeros(1, dtype=np.int64)
            per_record = per_flop = per_ser = np.zeros(1)
            meta_scales = ("",)
        ev_site = meta_sites[meta]
        parallel_mask = (ev_site == _CLUSTER) & np.isin(
            kinds, np.fromiter(_PARALLEL_KIND_CODES, dtype=kinds.dtype))
        kind_index = {
            code: np.flatnonzero(kinds == code)
            for code in range(len(_KINDS))
        }
        return TraceTable(
            phase_names=phase_names,
            phase_slices=phase_slices,
            phase_memory=phase_memory,
            kinds=kinds,
            records=records,
            flops=flops,
            bytes=bytes_,
            meta=meta,
            meta_scales=meta_scales,
            meta_sites=meta_sites,
            ev_per_record=per_record[meta],
            ev_per_flop=per_flop[meta],
            ev_per_serialized_byte=per_ser[meta],
            ev_site=ev_site,
            parallel_mask=parallel_mask,
            kind_index=kind_index,
        )

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceTable":
        """Build a table from a finished trace in one pass over its
        event objects.  The tracer is read-only here.
        """
        phase_names = tuple(p.name for p in tracer.phases)
        phase_memory = tuple(tuple(p.memory) for p in tracer.phases)
        # Intern (language, scale, site, label) in first-use order.
        meta_codes: dict[tuple, int] = {}
        metas: list[tuple] = []
        kind_rows: list[int] = []
        rec_rows: list[float] = []
        flop_rows: list[float] = []
        byte_rows: list[float] = []
        meta_rows: list[int] = []
        slices = []
        for phase in tracer.phases:
            start = len(kind_rows)
            for event in phase.events:
                key = (event.language, event.scale, event.site, event.label)
                code = meta_codes.get(key)
                if code is None:
                    code = len(metas)
                    meta_codes[key] = code
                    metas.append(key)
                kind_rows.append(_KIND_CODE[event.kind])
                rec_rows.append(event.records)
                flop_rows.append(event.flops)
                byte_rows.append(event.bytes)
                meta_rows.append(code)
            slices.append((start, len(kind_rows)))
        return cls._finish(
            phase_names, tuple(slices), phase_memory,
            np.array(kind_rows, dtype=np.int8),
            np.array(rec_rows, dtype=float),
            np.array(flop_rows, dtype=float),
            np.array(byte_rows, dtype=float),
            np.array(meta_rows, dtype=int),
            metas,
        )

    @classmethod
    def of(cls, tracer: Tracer) -> "TraceTable":
        """``from_tracer`` with a cache on the tracer instance.

        Both event lists are append-only, so a key of (phase count,
        cost-event count, memory-event count) detects every growth.
        """
        key = (len(tracer.phases), sum(len(p.events) for p in tracer.phases),
               sum(len(p.memory) for p in tracer.phases))
        cached = getattr(tracer, "_trace_table_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        table = cls.from_tracer(tracer)
        tracer._trace_table_cache = (key, table)  # repro: allow[P001] append-only memo on the tracer; invisible to replay
        return table


# ----------------------------------------------------------------------
# Vectorized cost model (exact replica of costmodel.event_seconds)
# ----------------------------------------------------------------------

def event_seconds_array(
    table: TraceTable,
    scale_map: ScaleMap,
    cluster: ClusterSpec,
    profile: PlatformProfile,
) -> np.ndarray:
    """Per-event simulated seconds for one (machines, scales) scenario.

    Every arithmetic expression below mirrors
    :func:`~repro.cluster.costmodel.event_seconds` term for term and in
    the same association order, so each element is the bitwise-identical
    IEEE-754 result of the scalar call.
    """
    factor_by_meta = np.array(
        [scale_map.factor(scale) for scale in table.meta_scales], dtype=float)
    if factor_by_meta.size == 0:
        factor_by_meta = np.ones(1)
    factor = factor_by_meta[table.meta]
    records = table.records * factor
    flops = table.flops * factor
    nbytes = table.bytes * factor

    eff = profile.parallel_efficiency
    slots_by_site = np.array([
        max(1.0, cluster.total_cores * eff),      # Site.CLUSTER
        max(1.0, cluster.machine.cores * eff),    # Site.MACHINE
        1.0,                                      # Site.DRIVER
    ])
    slots = slots_by_site[table.ev_site]
    bandwidth = cluster.machine.network_bandwidth
    # Scalar code computes nbytes / (machines * bandwidth): precomputing
    # the denominator keeps the float identical.
    net_den_by_site = np.array([
        cluster.machines * bandwidth,  # CLUSTER: all-to-all even share
        bandwidth,                     # MACHINE/DRIVER: single-link fan-in
        bandwidth,
    ])
    net_den = net_den_by_site[table.ev_site]
    disk = cluster.machine.disk_bandwidth
    disk_den_by_site = np.array([cluster.machines * disk, disk, disk])
    disk_den = disk_den_by_site[table.ev_site]
    per_ser = table.ev_per_serialized_byte

    out = np.zeros(table.n_events)
    idx = table.kind_index

    i = idx[_KIND_CODE[Kind.COMPUTE]]
    if i.size:
        out[i] = (records[i] * table.ev_per_record[i]
                  + flops[i] * table.ev_per_flop[i]) / slots[i]
    for kind in (Kind.SHUFFLE, Kind.MESSAGE):
        i = idx[_KIND_CODE[kind]]
        if i.size:
            network = nbytes[i] / net_den[i]
            handling = records[i] * profile.per_message_overhead / slots[i]
            serialization = nbytes[i] * per_ser[i] / slots[i]
            out[i] = network + handling + serialization
    i = idx[_KIND_CODE[Kind.BROADCAST]]
    if i.size:
        spread = 1.0 + 0.1 * max(0, cluster.machines - 1) ** 0.5
        out[i] = nbytes[i] / bandwidth * spread + nbytes[i] * per_ser[i]
    for kind in (Kind.DISK_READ, Kind.DISK_WRITE):
        i = idx[_KIND_CODE[kind]]
        if i.size:
            out[i] = nbytes[i] / disk_den[i]
    i = idx[_KIND_CODE[Kind.JOB]]
    if i.size:
        out[i] = records[i] * profile.job_overhead
    i = idx[_KIND_CODE[Kind.BARRIER]]
    if i.size:
        stragglers = 1.0 + cluster.machines / 20.0
        out[i] = records[i] * profile.barrier_overhead * stragglers
    i = idx[_KIND_CODE[Kind.SERIALIZE]]
    if i.size:
        out[i] = nbytes[i] * per_ser[i] / slots[i]
    return out


def phase_reports(
    table: TraceTable,
    scale_map: ScaleMap,
    cluster: ClusterSpec,
    profile: PlatformProfile,
) -> list[PhaseReport]:
    """Fault-free per-phase reports, bitwise equal to the scalar path.

    The vectorized counterpart of ``Simulator._simulate_phase``: one
    pass prices every event, then each phase folds its parallel/serial
    subsequences sequentially and runs the (already scalar-exact)
    memory check.
    """
    seconds = event_seconds_array(table, scale_map, cluster, profile)
    reports = []
    for p in range(table.n_phases):
        a, b = table.phase_slices[p]
        span = seconds[a:b]
        mask = table.parallel_mask[a:b]
        parallel = _fold(span[mask])
        if cluster.fleet is not None:
            # Same scalar-Python stretch factor Simulator._simulate_phase
            # multiplies by, so the product is bit-identical.
            parallel = parallel * cluster.fleet.phase_stretch(
                p, profile.recovery.speculative_execution)
        serial = _fold(span[~mask])
        verdict = check_phase_memory(
            list(table.phase_memory[p]), scale_map, cluster, profile)
        if verdict.spilled_bytes > 0:
            serial += 2.0 * verdict.spilled_bytes / cluster.machine.disk_bandwidth
        reports.append(PhaseReport(
            name=table.phase_names[p],
            seconds=parallel + serial,
            memory=verdict,
            parallel_seconds=parallel,
            serial_seconds=serial,
        ))
    return reports


# ----------------------------------------------------------------------
# Scenarios and grids
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One cell of a sweep: cluster size, data volume, fault regime.

    ``scales`` is a sorted tuple of (group, factor) pairs so scenarios
    hash/compare; use :meth:`make` to pass a plain dict.  ``rates`` of
    ``None`` means no fault injection at all (not even checkpoint
    accounting), matching ``Simulator.simulate(faults=None)``; an
    all-zero :class:`FaultRates` activates the injector with no faults,
    matching a sampled schedule at rate zero.
    """

    machines: int
    scales: tuple[tuple[str, float], ...] = ()
    rates: FaultRates | None = None
    seed: int = 0
    retry_policy: RetryPolicy | None = None
    checkpoint_interval: int = 0
    #: Heterogeneous fleet (speeds/contention); must describe exactly
    #: ``machines`` machines.  ``None`` keeps the cluster homogeneous.
    fleet: Fleet | None = None

    @classmethod
    def make(
        cls,
        machines: int,
        scales: dict[str, float] | None = None,
        rates: FaultRates | None = None,
        seed: int = 0,
        retry_policy: RetryPolicy | None = None,
        checkpoint_interval: int = 0,
        fleet: Fleet | None = None,
    ) -> "Scenario":
        return cls(
            machines=machines,
            scales=tuple(sorted((scales or {}).items())),
            rates=rates,
            seed=seed,
            retry_policy=retry_policy,
            checkpoint_interval=checkpoint_interval,
            fleet=fleet,
        )

    @property
    def scale_dict(self) -> dict[str, float]:
        return dict(self.scales)

    @property
    def policy(self) -> RetryPolicy:
        return self.retry_policy if self.retry_policy is not None else DEFAULT_RETRY_POLICY

    @property
    def base_key(self) -> tuple:
        """Scenarios sharing a key share cost and memory evaluation."""
        return (self.machines, self.scales, self.fleet)


@dataclass(frozen=True)
class ScenarioGrid:
    """An ordered collection of scenarios over one trace and profile."""

    scenarios: tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    @classmethod
    def of(cls, scenarios: Iterable[Scenario]) -> "ScenarioGrid":
        return cls(tuple(scenarios))

    @classmethod
    def product(
        cls,
        machine_counts: Sequence[int],
        scale_sets: Sequence[dict[str, float]],
        rates: Sequence[FaultRates | float | None] = (None,),
        seeds: Sequence[int] = (0,),
        retry_policies: Sequence[RetryPolicy | None] = (None,),
        checkpoint_intervals: Sequence[int] = (0,),
        fleets: Sequence[Fleet | None] = (None,),
    ) -> "ScenarioGrid":
        """Cross product of the sweep axes, in nested declaration order.

        A float in ``rates`` is shorthand for
        ``FaultRates(machine_crash=rate)`` (the faultbench axis);
        ``None`` keeps that slice fault-free.  A non-``None`` entry in
        ``fleets`` must describe exactly as many machines as every entry
        of ``machine_counts`` (heterogeneous sweeps usually fix one
        cluster size per grid).
        """
        cells = []
        for machines in machine_counts:
            for scales in scale_sets:
                for fleet in fleets:
                    for rate in rates:
                        if isinstance(rate, float):
                            rate = FaultRates(machine_crash=rate)
                        for policy in retry_policies:
                            for interval in checkpoint_intervals:
                                for seed in seeds:
                                    cells.append(Scenario.make(
                                        machines=machines,
                                        scales=scales,
                                        rates=rate,
                                        seed=seed,
                                        retry_policy=policy,
                                        checkpoint_interval=interval,
                                        fleet=fleet,
                                    ))
        return cls(tuple(cells))


# Abort bookkeeping codes (reconstructed into the exact f-strings of
# faults.FaultInjector.replay when a report is materialized).
_ABORT_NONE = 0
_ABORT_NO_TOLERANCE = 1
_ABORT_EXCEEDED = 2
_KIND_CRASH = 0
_KIND_TASK = 1
_KIND_PREEMPT = 2
_ABORT_KIND_VALUE = ("machine_crash", "task_failure", "preemption")


@dataclass(frozen=True)
class _Cell:
    """Per-scenario outcome, enough to rebuild an exact RunReport."""

    base: tuple[PhaseReport, ...]  # fault-free phase reports (shared)
    n_phases: int  # phases present in this scenario's report
    seconds: tuple[float, ...]  # per present phase
    retries: tuple[int, ...]
    fault_seconds: tuple[float, ...]
    recovered: int
    lost: float
    checkpoint: float
    drained: int
    resizes: int
    failed: bool
    aborted: bool
    fail_phase: str
    fail_reason: str


class GridResult:
    """Columnar result table of a scenario grid.

    ``report(i)`` rebuilds the full :class:`RunReport` of scenario ``i``
    (phase list included) byte-identical to the per-cell oracle;
    ``columns()`` exposes the aggregate table as numpy arrays.
    """

    def __init__(self, profile: PlatformProfile,
                 scenarios: tuple[Scenario, ...], cells: list[_Cell]) -> None:
        self.profile = profile
        self.scenarios = scenarios
        self._cells = cells

    def __len__(self) -> int:
        return len(self.scenarios)

    def report(self, index: int) -> RunReport:
        cell = self._cells[index]
        scenario = self.scenarios[index]
        phases = []
        for p in range(cell.n_phases):
            base = cell.base[p]
            if (cell.seconds[p] == base.seconds and cell.retries[p] == 0
                    and cell.fault_seconds[p] == 0.0):
                phases.append(base)
            else:
                phases.append(PhaseReport(
                    name=base.name,
                    seconds=cell.seconds[p],
                    memory=base.memory,
                    parallel_seconds=base.parallel_seconds,
                    serial_seconds=base.serial_seconds,
                    retries=cell.retries[p],
                    fault_seconds=cell.fault_seconds[p],
                ))
        return RunReport(
            platform=self.profile.name,
            machines=scenario.machines,
            phases=phases,
            failed=cell.failed,
            fail_phase=cell.fail_phase,
            fail_reason=cell.fail_reason,
            recovered_failures=cell.recovered,
            lost_seconds=cell.lost,
            checkpoint_seconds=cell.checkpoint,
            preemptions_drained=cell.drained,
            resize_events=cell.resizes,
            aborted=cell.aborted,
        )

    def reports(self) -> list[RunReport]:
        return [self.report(i) for i in range(len(self))]

    def columns(self) -> dict[str, np.ndarray]:
        """The grid as a columnar table (one row per scenario)."""
        cells = self._cells
        return {
            "machines": np.array([s.machines for s in self.scenarios]),
            "seed": np.array([s.seed for s in self.scenarios]),
            "crash_rate": np.array([
                s.rates.machine_crash if s.rates is not None else 0.0
                for s in self.scenarios]),
            "preemption_rate": np.array([
                s.rates.preemption if s.rates is not None else 0.0
                for s in self.scenarios]),
            "resize_rate": np.array([
                s.rates.resize if s.rates is not None else 0.0
                for s in self.scenarios]),
            "checkpoint_interval": np.array(
                [s.checkpoint_interval for s in self.scenarios]),
            "completed": np.array([not c.failed for c in cells]),
            "aborted": np.array([c.aborted for c in cells]),
            "recovered_failures": np.array([c.recovered for c in cells]),
            "preemptions_drained": np.array([c.drained for c in cells]),
            "resize_events": np.array([c.resizes for c in cells]),
            "total_retries": np.array([sum(c.retries) for c in cells]),
            "lost_seconds": np.array([c.lost for c in cells]),
            "checkpoint_seconds": np.array([c.checkpoint for c in cells]),
            "total_seconds": np.array([sum(c.seconds) for c in cells]),
        }


def _phase_uniforms(seed: int, index: int,
                    cache: dict[tuple[int, int], tuple[float, ...]],
                    ) -> tuple[float, ...]:
    """The five sampled-fault uniforms of ``FaultSchedule.faults_for``.

    Draw order is crash, task, straggler, preemption, resize — the two
    new kinds draw after the original three so historical schedules
    keep their streams.
    """
    key = (seed, index)
    got = cache.get(key)
    if got is None:
        rng = make_rng(key)
        got = (rng.random(), rng.random(), rng.random(),
               rng.random(), rng.random())
        cache[key] = got
    return got


def simulate_grid(
    trace: Tracer | TraceTable,
    profile: PlatformProfile,
    scenarios: ScenarioGrid | Iterable[Scenario],
) -> GridResult:
    """Simulate every scenario of a grid against one recorded trace.

    Scenarios sharing (machines, scales) share one vectorized cost and
    memory evaluation; fault replay runs as masked array updates across
    all of the group's scenarios at once.  Results are byte-identical to
    calling ``Simulator.simulate`` per cell with the matching
    ``FaultSchedule.sampled`` (or ``faults=None`` when ``rates`` is
    ``None``).
    """
    table = trace if isinstance(trace, TraceTable) else TraceTable.of(trace)
    grid = (scenarios if isinstance(scenarios, ScenarioGrid)
            else ScenarioGrid.of(scenarios))
    cells: list[_Cell | None] = [None] * len(grid)
    uniform_cache: dict[tuple[int, int], tuple[float, ...]] = {}

    by_base: dict[tuple, list[int]] = {}
    for i, scenario in enumerate(grid):
        by_base.setdefault(scenario.base_key, []).append(i)

    for (machines, scales, fleet), indices in by_base.items():
        cluster = ClusterSpec(machines=machines, fleet=fleet)
        scale_map = ScaleMap(dict(scales))
        base = tuple(phase_reports(table, scale_map, cluster, profile))
        first_oom = next(
            (p for p, r in enumerate(base) if r.memory.out_of_memory), None)
        last_phase = len(base) if first_oom is None else first_oom + 1

        plain = [i for i in indices if grid[i].rates is None]
        faulted = [i for i in indices if grid[i].rates is not None]

        for i in plain:
            n = last_phase
            failed = first_oom is not None
            cells[i] = _Cell(
                base=base, n_phases=n,
                seconds=tuple(r.seconds for r in base[:n]),
                retries=(0,) * n, fault_seconds=(0.0,) * n,
                recovered=0, lost=0.0, checkpoint=0.0,
                drained=0, resizes=0,
                failed=failed, aborted=False,
                fail_phase=base[first_oom].name if failed else "",
                fail_reason=base[first_oom].memory.reason if failed else "",
            )

        if faulted:
            for i, cell in _replay_base(grid, faulted, base, cluster,
                                        profile, first_oom, uniform_cache):
                cells[i] = cell

    return GridResult(profile, grid.scenarios, cells)


def _replay_base(
    grid: ScenarioGrid,
    indices: list[int],
    base: tuple[PhaseReport, ...],
    cluster: ClusterSpec,
    profile: PlatformProfile,
    first_oom: int | None,
    uniform_cache: dict,
) -> list:
    """Vectorized fault replay for one (machines, scales) group.

    Every masked update below reproduces one ``+=`` (or assignment) of
    ``FaultInjector.replay`` / ``Simulator._inject`` in the same order,
    so each scenario's float accumulation sequence is exactly the
    scalar one.  Returns ``(grid index, cell)`` pairs — replay is pure
    over its inputs (P001); the caller assembles the grid.
    """
    s = len(indices)
    scen = [grid[i] for i in indices]
    recovery = profile.recovery
    strategy = recovery.strategy
    machines = cluster.machines
    survivors = cluster.without_machines(1).machines
    disk_bw = cluster.machine.disk_bandwidth
    n_phases = len(base)
    stop_at = n_phases if first_oom is None else first_oom + 1

    mc = np.array([sc.rates.machine_crash for sc in scen])
    tf = np.array([sc.rates.task_failure for sc in scen])
    st = np.array([sc.rates.straggler for sc in scen])
    pr = np.array([sc.rates.preemption for sc in scen])
    rz = np.array([sc.rates.resize for sc in scen])
    frac = np.array([sc.rates.task_fraction for sc in scen])
    slow = np.array([sc.rates.straggler_slowdown for sc in scen])
    warn = np.array([sc.rates.preemption_warning for sc in scen])
    delta = np.array([sc.rates.resize_delta for sc in scen], dtype=np.int64)
    seeds = [sc.seed for sc in scen]
    max_attempts = np.array([sc.policy.max_attempts for sc in scen])
    timeout = np.array([sc.policy.timeout_seconds for sc in scen])
    backoff1 = np.array([sc.policy.backoff_before(1) for sc in scen])
    backoff2 = np.array([sc.policy.backoff_before(2) for sc in scen])
    backoff3 = np.array([sc.policy.backoff_before(3) for sc in scen])
    interval = np.array([sc.checkpoint_interval for sc in scen])
    safe_interval = np.where(interval > 0, interval, 1)
    net_bw = cluster.machine.network_bandwidth
    # Resize geometry (FaultInjector._resize_cost): post-resize size and
    # moved partition share under consistent re-assignment.
    new_m = np.maximum(1, machines + delta)
    moved = np.abs(delta) / np.maximum(machines, new_m)
    resize_discipline = recovery.resize_cost

    active = np.ones(s, dtype=bool)
    lineage = np.zeros(s)
    iters_seen = np.zeros(s, dtype=np.int64)
    run_recovered = np.zeros(s, dtype=np.int64)
    run_lost = np.zeros(s)
    run_checkpoint = np.zeros(s)
    run_drained = np.zeros(s, dtype=np.int64)
    run_resizes = np.zeros(s, dtype=np.int64)
    run_aborted = np.zeros(s, dtype=bool)
    abort_phase = np.full(s, -1, dtype=np.int64)
    abort_kind = np.zeros(s, dtype=np.int64)
    abort_mode = np.full(s, _ABORT_NONE, dtype=np.int64)
    stop_phase = np.full(s, stop_at, dtype=np.int64)  # phases present
    oom_failed = np.zeros(s, dtype=bool)

    # (P, S) per-phase outputs
    ph_seconds = np.zeros((stop_at, s))
    ph_retries = np.zeros((stop_at, s), dtype=np.int64)
    ph_fault_seconds = np.zeros((stop_at, s))

    for p in range(stop_at):
        if not active.any():
            break
        core = base[p]
        par = core.parallel_seconds
        name = core.name
        us = np.array([_phase_uniforms(seed, p, uniform_cache)
                       for seed in seeds])
        crash = active & (us[:, 0] < mc)
        task = active & (us[:, 1] < tf)
        strag = active & (us[:, 2] < st)
        preempt = active & (us[:, 3] < pr)
        resize_m = active & (us[:, 4] < rz)
        # Drain feasibility is per phase (resident bytes through the NIC)
        # and per scenario (warning window) — scalar float comparison.
        drain_need = core.memory.peak_bytes_per_machine / net_bw

        lost = np.zeros(s)
        retries = np.zeros(s, dtype=np.int64)
        recovered = np.zeros(s, dtype=np.int64)
        drained_p = np.zeros(s, dtype=np.int64)
        resizes_p = np.zeros(s, dtype=np.int64)
        aborted = np.zeros(s, dtype=bool)
        p_kind = np.zeros(s, dtype=np.int64)
        p_mode = np.full(s, _ABORT_NONE, dtype=np.int64)

        if strategy is RecoveryStrategy.ABORT:
            # The fault list is ordered [crash, task, straggler,
            # preemption, resize]; the first non-survivable fault aborts
            # and breaks, so later faults are only priced when nothing
            # earlier struck fatally.
            aborted = crash | task
            p_kind = np.where(crash, _KIND_CRASH, _KIND_TASK)
            p_mode = np.where(aborted, _ABORT_NO_TOLERANCE, _ABORT_NONE)
            s_only = strag & ~aborted
            stretch = par * (slow - 1.0)
            if recovery.speculative_execution:
                stretch = stretch / machines
            lost = np.where(s_only, lost + stretch, lost)
            # -- preemption: drain saves it, otherwise it's a crash -----
            if recovery.preemption_drain:
                dr = preempt & ~aborted & (warn >= drain_need)
            else:
                dr = np.zeros(s, dtype=bool)
            lost = np.where(dr, lost + par / survivors, lost)
            recovered = np.where(dr, recovered + 1, recovered)
            drained_p = np.where(dr, drained_p + 1, drained_p)
            p_abort = preempt & ~aborted & ~dr
            p_kind = np.where(p_abort, _KIND_PREEMPT, p_kind)
            p_mode = np.where(p_abort, _ABORT_NO_TOLERANCE, p_mode)
            aborted = aborted | p_abort
        else:
            # -- machine crash ----------------------------------------
            exceeded = crash & (1 > max_attempts - 1)
            retries = np.where(crash, 1, 0)
            aborted = exceeded.copy()
            p_kind = np.where(exceeded, _KIND_CRASH, p_kind)
            p_mode = np.where(exceeded, _ABORT_EXCEEDED, p_mode)
            ok = crash & ~exceeded
            lost = np.where(ok, lost + backoff1, lost)
            if strategy is RecoveryStrategy.RETRY:
                lost = np.where(ok, lost + timeout, lost)
                lost = np.where(ok, lost + par / survivors, lost)
            else:  # LINEAGE
                lost = np.where(ok, lost + (lineage + par) / survivors, lost)
            recovered = np.where(ok, recovered + 1, recovered)
            # -- transient task failure -------------------------------
            t = task & ~aborted
            retries = np.where(t, retries + 1, retries)
            t_exceeded = t & (retries > max_attempts - 1)
            aborted = aborted | t_exceeded
            p_kind = np.where(t_exceeded, _KIND_TASK, p_kind)
            p_mode = np.where(t_exceeded, _ABORT_EXCEEDED, p_mode)
            t_ok = t & ~t_exceeded
            backoff_t = np.where(retries == 1, backoff1, backoff2)
            lost = np.where(t_ok, lost + backoff_t, lost)
            lost = np.where(t_ok, lost + frac * par, lost)
            recovered = np.where(t_ok, recovered + 1, recovered)
            # -- straggler --------------------------------------------
            s_ok = strag & ~aborted
            stretch = par * (slow - 1.0)
            if recovery.speculative_execution:
                stretch = stretch / machines
            lost = np.where(s_ok, lost + stretch, lost)
            # -- spot preemption --------------------------------------
            # A drainable reclaim re-runs the in-flight share on the
            # survivors, skipping retry bookkeeping; everything else
            # falls through to the machine-crash path with the shared
            # retries counter (possibly the third failure this phase).
            if recovery.preemption_drain:
                dr = preempt & ~aborted & (warn >= drain_need)
            else:
                dr = np.zeros(s, dtype=bool)
            lost = np.where(dr, lost + par / survivors, lost)
            recovered = np.where(dr, recovered + 1, recovered)
            drained_p = np.where(dr, drained_p + 1, drained_p)
            pc = preempt & ~aborted & ~dr
            retries = np.where(pc, retries + 1, retries)
            pc_exceeded = pc & (retries > max_attempts - 1)
            aborted = aborted | pc_exceeded
            p_kind = np.where(pc_exceeded, _KIND_PREEMPT, p_kind)
            p_mode = np.where(pc_exceeded, _ABORT_EXCEEDED, p_mode)
            pc_ok = pc & ~pc_exceeded
            backoff_p = np.where(retries == 1, backoff1,
                                 np.where(retries == 2, backoff2, backoff3))
            lost = np.where(pc_ok, lost + backoff_p, lost)
            if strategy is RecoveryStrategy.RETRY:
                lost = np.where(pc_ok, lost + timeout, lost)
                lost = np.where(pc_ok, lost + par / survivors, lost)
            else:  # LINEAGE
                lost = np.where(pc_ok, lost + (lineage + par) / survivors, lost)
            recovered = np.where(pc_ok, recovered + 1, recovered)

        # -- elastic resize (any strategy; planned, never aborts) ------
        # Must price before the lineage window advances: the scalar
        # fault loop runs before FaultInjector's lineage accumulation.
        rz_ok = resize_m & ~aborted
        if rz_ok.any():
            if resize_discipline is ResizeCost.LINEAGE_RECOMPUTE:
                rz_cost = (lineage + par) * machines * moved / new_m
            elif resize_discipline is ResizeCost.CHECKPOINT_RESTORE:
                write_read = (
                    2.0 * CHECKPOINT_REPLICATION
                    * core.memory.peak_bytes_per_machine / disk_bw
                )
                rz_cost = write_read + par * machines * moved / new_m
            else:  # INPUT_RESPLIT
                rz_cost = (
                    profile.job_overhead
                    + core.memory.peak_bytes_per_machine * machines * moved
                    / (new_m * disk_bw)
                )
            lost = np.where(rz_ok, lost + rz_cost, lost)
            resizes_p = np.where(rz_ok, resizes_p + 1, resizes_p)

        checkpoint = np.zeros(s)
        if strategy is RecoveryStrategy.LINEAGE:
            live = active & ~aborted
            lineage = np.where(live, lineage + par, lineage)
            if name.startswith("iteration:"):
                counting = live & (interval > 0)
                iters_seen = np.where(counting, iters_seen + 1, iters_seen)
                writes = counting & (iters_seen % safe_interval == 0)
                cost = CHECKPOINT_REPLICATION * core.memory.peak_bytes_per_machine / disk_bw
                checkpoint = np.where(writes, cost, 0.0)
                lineage = np.where(writes, 0.0, lineage)

        # -- fold into run + phase accounting (Simulator._inject) -----
        run_recovered = np.where(active, run_recovered + recovered,
                                 run_recovered)
        run_lost = np.where(active, run_lost + lost, run_lost)
        run_checkpoint = np.where(active, run_checkpoint + checkpoint,
                                  run_checkpoint)
        run_drained = np.where(active, run_drained + drained_p, run_drained)
        run_resizes = np.where(active, run_resizes + resizes_p, run_resizes)
        newly_aborted = aborted & active
        run_aborted = run_aborted | newly_aborted
        abort_phase = np.where(newly_aborted, p, abort_phase)
        abort_kind = np.where(newly_aborted, p_kind, abort_kind)
        abort_mode = np.where(newly_aborted, p_mode, abort_mode)

        extra = lost + checkpoint
        untouched = (extra == 0.0) & (retries == 0)
        ph_seconds[p] = np.where(untouched, core.seconds,
                                 core.seconds + extra)
        ph_retries[p] = retries
        ph_fault_seconds[p] = np.where(untouched, 0.0, lost)

        if p == stop_at - 1 and first_oom is not None:
            # Every run that reached the OOM phase dies here; an abort
            # in the same phase keeps its aborted flag but the memory
            # reason overwrites the fault reason (Simulator order).
            oom_failed = oom_failed | active
            stop_phase = np.where(active, p + 1, stop_phase)
            active = np.zeros_like(active)
        else:
            stop_phase = np.where(newly_aborted, p + 1, stop_phase)
            active = active & ~newly_aborted

    replayed = []
    for j, i in enumerate(indices):
        n = int(stop_phase[j])
        failed = bool(oom_failed[j] or run_aborted[j])
        if oom_failed[j]:
            reason = base[n - 1].memory.reason
        elif run_aborted[j]:
            kind = _ABORT_KIND_VALUE[int(abort_kind[j])]
            where = base[int(abort_phase[j])].name
            if abort_mode[j] == _ABORT_NO_TOLERANCE:
                reason = f"{kind} in {where}: no fault tolerance, run aborted"
            else:
                attempts = int(max_attempts[j])
                reason = (f"{kind} in {where}: task exceeded "
                          f"{attempts} attempts")
        else:
            reason = ""
        replayed.append((i, _Cell(
            base=base,
            n_phases=n,
            seconds=tuple(float(v) for v in ph_seconds[:n, j]),
            retries=tuple(int(v) for v in ph_retries[:n, j]),
            fault_seconds=tuple(float(v) for v in ph_fault_seconds[:n, j]),
            recovered=int(run_recovered[j]),
            lost=float(run_lost[j]),
            checkpoint=float(run_checkpoint[j]),
            drained=int(run_drained[j]),
            resizes=int(run_resizes[j]),
            failed=failed,
            aborted=bool(run_aborted[j]),
            fail_phase=base[n - 1].name if failed else "",
            fail_reason=reason,
        )))
    return replayed
