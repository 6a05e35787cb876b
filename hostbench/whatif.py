"""The ``whatif-grid`` workload: hostile what-if grids priced over traces.

Set-up records fault-sweep traces (:func:`repro.bench.faultsweep.default_cases`
at 5 and 20 machines) and builds each one's :class:`TraceTable`.  An item
then builds one hostile :class:`ScenarioGrid` over one trace — crash
rates x checkpoint intervals x schedule seeds x {on-demand,
mixed-generations} fleets, every non-zero rate mixing all five fault
kinds — prices it with :func:`repro.cluster.simulate_grid`, and reads it
back the ways callers do: ``report(i)`` per scenario and ``columns()``.

Checks: one sampled scenario per item must be ``repr``-equal to the
per-scenario :meth:`Simulator.simulate` oracle, and where the manifest
records the item (the default seed) the digest of ``columns()`` must
match it.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.bench import gridbench
from repro.bench.faultsweep import SEED as SWEEP_WORKLOAD_SEED
from repro.bench.faultsweep import default_cases
from repro.bench.pool import WorkloadCache, WorkloadRef, WorkloadSpec
from repro.cluster import (
    PLATFORM_PROFILES,
    FaultRates,
    Scenario,
    ScenarioGrid,
    simulate_grid,
)
from repro.cluster.tracealgebra import TraceTable
from repro.hashing import stable_digest, stable_hash
from repro.service.execution import hetero_fleet, scales_for, trace_spec
from repro.stats import derive_seed

from hostbench.figures import load_manifest
from hostbench.harness import DEFAULT_SEED, Outcome, Workload
from hostbench.spans import Spans

#: Traces recorded in set-up.  The GMM cases cover all four platforms'
#: recovery semantics; the LDA traces price no differently per scenario
#: but SimSQL LDA alone takes seconds to record.
CASES = ("spark/gmm", "simsql/gmm", "giraph/gmm", "graphlab/gmm")
#: Grids repeat every CYCLE items, so the manifest covers every item.
CYCLE = 64

#: (cases, machine counts, crash rates, checkpoint intervals, seeds).
SIZES = {
    "bench": (CASES, gridbench.MACHINE_COUNTS, gridbench.CRASH_RATES,
              gridbench.CHECKPOINT_INTERVALS, gridbench.SEEDS),
    "tiny": (("giraph/gmm",), (5,), (0.0, 0.3), (0, 2), 3),
}


def hostile_rates(rate: float) -> FaultRates:
    """All five fault kinds: crashes at ``rate``, the rest at half of it."""
    half = gridbench.HOSTILE_SCALE * rate
    return FaultRates(machine_crash=rate, task_failure=half, straggler=half,
                      preemption=half, resize=half)


def reseed_case(case, seed: int):
    """A fault-sweep case with its workload and engine seeds from ``seed``."""
    seeds = {SWEEP_WORKLOAD_SEED: seed}
    args = tuple(
        WorkloadRef(WorkloadSpec(arg.spec.generator, seeds[arg.spec.seed],
                                 arg.spec.params), arg.attr)
        if isinstance(arg, WorkloadRef) else arg
        for arg in case.args)
    return replace(case, args=args, seed=seeds[case.seed]).validate()


def columns_digest(columns: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


class _Trace:
    """One recorded trace and what pricing it needs."""

    def __init__(self, case, machines: int, tracer, events: int) -> None:
        self.case = case
        self.machines = machines
        self.tracer = tracer
        self.events = events
        self.profile = PLATFORM_PROFILES[case.platform]
        self.scales = scales_for(case, machines)


class WhatIfWorkload(Workload):
    name = "whatif-grid"
    pass_seconds = 0.36
    traced_passes = 8

    def __init__(self, seed: int, size: str = "bench") -> None:
        names, self.machine_counts, self.rates, self.intervals, seeds = SIZES[size]
        cases = {case.name: case for case in default_cases()}
        self.cases = [reseed_case(cases[name], seed) for name in names]
        # Per cycle position: the schedule seeds and the oracle's scenario.
        self.seeds = [[derive_seed(seed, ("whatif-grid", c, j)) for j in range(seeds)]
                      for c in range(CYCLE)]
        grid_size = len(self.rates) * len(self.intervals) * seeds * 2
        self.oracle_index = [stable_hash((seed, "oracle", c)) % grid_size
                             for c in range(CYCLE)]
        self.digests: dict[str, str] = load_manifest()["grids"]
        # The manifest pins every item of the default seed at benchmark size.
        self.strict = seed == DEFAULT_SEED and size == "bench"
        self.traces: list[_Trace] = []
        self.event_scenarios = 0

    def setup(self, directory: Path, spans: Spans) -> None:
        cache = WorkloadCache(directory / "workloads")
        span = spans.span
        self.traces = []
        for case in self.cases:
            for arg in case.args:
                if isinstance(arg, WorkloadRef):
                    with span("workloads.generate", case.name):
                        cache.get(arg.spec)
            for machines in self.machine_counts:
                item = f"{case.name}@{machines}"
                with span("impls.trace", item):
                    tracer = trace_spec(case, machines, cache)
                with span("cluster.tracealgebra.table", item):
                    table = TraceTable.of(tracer)
                self.traces.append(_Trace(case, machines, tracer, table.n_events))
        self.event_scenarios = 0

    def item_key(self, trace: _Trace, position: int) -> str:
        return stable_digest((trace.case.key, trace.machines, position,
                              self.rates, self.intervals, len(self.seeds[0])))

    def run_pass(self, number: int, spans: Spans) -> list[Outcome]:
        span = spans.span
        outcomes = []
        for offset, trace in enumerate(self.traces):
            index = number * len(self.traces) + offset
            position = index % CYCLE
            item = f"{index}/{trace.case.name}@{trace.machines}"
            with span("hostbench.item", item):
                outcomes.append(self._item(trace, position, item, span))
        return outcomes

    def _item(self, trace: _Trace, position: int, item: str, span) -> Outcome:
        machines = trace.machines
        try:
            with span("cluster.tracealgebra.grid_build", item):
                fleets = (None, hetero_fleet(machines, trace.case.iterations))
                grid = ScenarioGrid.of(
                    Scenario.make(machines, trace.scales, rates=hostile_rates(rate),
                                  seed=seed, checkpoint_interval=interval,
                                  fleet=fleet)
                    for rate in self.rates
                    for interval in self.intervals
                    for seed in self.seeds[position]
                    for fleet in fleets)
            with span("cluster.tracealgebra.simulate_grid", item):
                result = simulate_grid(trace.tracer, trace.profile, grid)
            with span("cluster.tracealgebra.report", item):
                reports = [result.report(i) for i in range(len(result))]
            with span("cluster.tracealgebra.columns", item):
                columns = result.columns()
            self.event_scenarios += trace.events * len(grid)
            sampled = self.oracle_index[position]
            with span("cluster.simulator.simulate", item):
                oracle = gridbench._oracle(trace.tracer, trace.profile,
                                           grid[sampled])
            digest = columns_digest(columns)
            return Outcome(item, digest, self._check(
                trace, position, reports[sampled], oracle, digest))
        except Exception as exc:  # a crashed item is a failed item
            return Outcome(item, "", f"{item}: {type(exc).__name__}: {exc}")

    def _check(self, trace, position, report, oracle, digest) -> str:
        if repr(report) != repr(oracle):
            return (f"{trace.case.name}@{trace.machines}: grid report of "
                    f"scenario {self.oracle_index[position]} differs from "
                    f"Simulator.simulate")
        want = self.digests.get(self.item_key(trace, position))
        if want is None and self.strict:
            return (f"{trace.case.name}@{trace.machines}: no recorded digest "
                    f"for item {position}")
        if want is not None and want != digest:
            return (f"{trace.case.name}@{trace.machines}: columns digest "
                    f"{digest} != {want}")
        return ""

    def layer_metrics(self, untraced, traced, spans) -> dict[str, float]:
        return {"cluster.tracealgebra.event_scenarios": float(self.event_scenarios)}
