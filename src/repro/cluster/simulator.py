"""The run simulator: trace + scale factors + cluster -> RunReport.

This is the piece that turns a laptop-scale engine execution into the
numbers the paper's tables report: initialization time, average
per-iteration time, and Fail entries with their causes.  It is also the
fault-injection hook (Section 10): :meth:`Simulator.simulate` can replay
the traced phases against a :class:`~repro.cluster.faults.FaultSchedule`
and charge each platform's recovery semantics — the trace itself is
never touched, so the engine event stream is byte-identical with and
without faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.costmodel import PlatformProfile, ScaleMap, event_seconds
from repro.cluster.events import PARALLEL_KINDS, Phase, Site
from repro.cluster.faults import FaultInjector, FaultSchedule, RetryPolicy
from repro.cluster.machine import ClusterSpec
from repro.cluster.memory import MemoryVerdict, check_phase_memory
from repro.cluster.tracer import Tracer


@dataclass(frozen=True)
class PhaseReport:
    """Simulated outcome of one traced phase."""

    name: str
    seconds: float
    memory: MemoryVerdict
    #: Cluster-parallel share of ``seconds``: every machine busy on its
    #: 1/Nth of the work (what a crash loses, what a straggler slows).
    parallel_seconds: float = 0.0
    #: Coordination share: job launches, barriers, broadcasts, driver
    #: work, hotspot machines, spill round trips.
    serial_seconds: float = 0.0
    #: Re-execution attempts fault injection charged to this phase.
    retries: int = 0
    #: Wall seconds of ``seconds`` attributable to faults and recovery.
    fault_seconds: float = 0.0


@dataclass
class RunReport:
    """Simulated outcome of a full benchmark run.

    Mirrors one cell of the paper's tables: an average per-iteration
    time, an initialization time in parentheses, or the word "Fail".
    Under fault injection the report additionally accounts for the
    failures the platform survived (``recovered_failures``), the wall
    time they cost (``lost_seconds``), proactive checkpoint overhead
    (``checkpoint_seconds``), and whether a fault killed the run
    (``aborted`` — GraphLab's no-fault-tolerance story, or a task that
    exhausted its retry budget).
    """

    platform: str
    machines: int
    phases: list[PhaseReport] = field(default_factory=list)
    failed: bool = False
    fail_phase: str = ""
    fail_reason: str = ""
    #: Failures survived via retry or lineage recomputation.
    recovered_failures: int = 0
    #: Wall seconds lost to faults (detection, backoff, re-execution,
    #: straggler stalls) across all phases.
    lost_seconds: float = 0.0
    #: Wall seconds spent writing checkpoints (lineage platforms).
    checkpoint_seconds: float = 0.0
    #: Spot reclaims absorbed by a graceful drain inside the warning
    #: window (subset of ``recovered_failures``).
    preemptions_drained: int = 0
    #: Elastic resize events the run absorbed (planned, never fatal).
    resize_events: int = 0
    #: True when an injected fault (not memory) terminated the run.
    aborted: bool = False

    @property
    def init_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if p.name == "init")

    @property
    def iteration_seconds(self) -> list[float]:
        return [p.seconds for p in self.phases if p.name.startswith("iteration:")]

    @property
    def total_seconds(self) -> float:
        """Wall time of the whole simulated run (all phases)."""
        return sum(p.seconds for p in self.phases)

    @property
    def mean_iteration_seconds(self) -> float:
        iters = self.iteration_seconds
        if not iters:
            if self.failed:
                raise ValueError(
                    f"{self.platform} run failed in {self.fail_phase!r} before "
                    f"completing an iteration ({self.fail_reason}); no "
                    f"per-iteration time exists — check RunReport.failed "
                    f"before averaging"
                )
            raise ValueError("run traced no iterations")
        return sum(iters) / len(iters)

    @property
    def peak_memory_bytes(self) -> float:
        if not self.phases:
            return 0.0
        return max(p.memory.peak_bytes_per_machine for p in self.phases)

    @property
    def total_retries(self) -> int:
        return sum(p.retries for p in self.phases)

    def cell(self, verbose: bool = False) -> str:
        """Format as a table cell the way the paper does.

        ``verbose`` renders the paper's footnoted failure form — the
        diagnosis next to the Fail instead of discarded — and appends
        recovery accounting to surviving cells that paid for faults.
        """
        if self.failed:
            if verbose and (self.fail_phase or self.fail_reason):
                where = self.fail_phase or "?"
                why = self.fail_reason or "unknown"
                return f"Fail [{where}: {why}]"
            return "Fail"
        text = f"{format_hms(self.mean_iteration_seconds)} ({format_hms(self.init_seconds)})"
        if verbose and (self.recovered_failures or self.lost_seconds):
            text += (
                f" [recovered {self.recovered_failures}, "
                f"+{format_hms(self.lost_seconds)} lost]"
            )
        return text


def format_hms(seconds: float) -> str:
    """Format seconds as the paper's HH:MM:SS / MM:SS."""
    total = int(round(seconds))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class Simulator:
    """Applies the cost, memory and fault models to a collected trace."""

    def __init__(self, cluster: ClusterSpec, profile: PlatformProfile) -> None:
        self.cluster = cluster
        self.profile = profile

    def simulate(
        self,
        tracer: Tracer,
        scales: dict[str, float] | None = None,
        faults: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint_interval: int = 0,
    ) -> RunReport:
        """Simulate every traced phase; stop at the first failure.

        A failed phase still contributes a PhaseReport (with the doomed
        footprint) so diagnostics can show *where* the run died, matching
        how the paper reports "could not be made to run at this scale".

        When ``faults`` is given, each phase is additionally replayed
        against the schedule and the platform's
        :class:`~repro.cluster.costmodel.RecoveryModel` prices what went
        wrong (see :mod:`repro.cluster.faults`).  ``checkpoint_interval``
        makes lineage platforms (Spark) checkpoint every that-many
        iterations, trading per-iteration write overhead against
        recovery depth.  The trace is read-only throughout: injection
        changes the *priced* seconds, never the events.
        """
        scale_map = ScaleMap(scales)
        report = RunReport(platform=self.profile.name, machines=self.cluster.machines)
        injector: FaultInjector | None = None
        if faults is not None and not faults.empty:
            # The trace is already complete (replay, not execution), so
            # strict schedules can be checked against every phase name
            # up front — even if the simulated run aborts early.
            faults.validate_phases(p.name for p in tracer.phases)
            injector = FaultInjector(
                faults, self.cluster, self.profile,
                policy=retry_policy, checkpoint_interval=checkpoint_interval,
            )
        for index, phase in enumerate(tracer.phases):
            phase_report = self._simulate_phase(phase, scale_map, index)
            if injector is not None:
                phase_report = self._inject(injector, index, phase_report, report)
            report.phases.append(phase_report)
            if phase_report.memory.out_of_memory:
                report.failed = True
                report.fail_phase = phase_report.name
                report.fail_reason = phase_report.memory.reason
                break
            if report.aborted:
                report.failed = True
                report.fail_phase = phase_report.name
                break
        return report

    def _simulate_phase(self, phase: Phase, scale_map: ScaleMap,
                        index: int = 0) -> PhaseReport:
        parallel = 0.0
        serial = 0.0
        for event in phase.events:
            seconds = event_seconds(event, scale_map, self.cluster, self.profile)
            if event.site is Site.CLUSTER and event.kind in PARALLEL_KINDS:
                parallel += seconds
            else:
                serial += seconds
        if self.cluster.fleet is not None:
            # Heterogeneous fleet: the phase's parallel span stretches by
            # the scheduling-discipline factor (see Fleet.phase_stretch);
            # serial/coordination work is unaffected.
            parallel = parallel * self.cluster.fleet.phase_stretch(
                index, self.profile.recovery.speculative_execution)
        verdict = check_phase_memory(phase.memory, scale_map, self.cluster, self.profile)
        if verdict.spilled_bytes > 0:
            # Spilled working set makes one extra round trip to local
            # disk on the loaded machine (write out, read back).
            serial += 2.0 * verdict.spilled_bytes / self.cluster.machine.disk_bandwidth
        return PhaseReport(
            name=phase.name,
            seconds=parallel + serial,
            memory=verdict,
            parallel_seconds=parallel,
            serial_seconds=serial,
        )

    def _inject(
        self,
        injector: FaultInjector,
        index: int,
        phase_report: PhaseReport,
        report: RunReport,
    ) -> PhaseReport:
        """Replay one phase against the schedule; fold costs into both
        the phase report and the run-level accounting."""
        outcome = injector.replay(
            index, phase_report.name,
            phase_report.parallel_seconds,
            phase_report.memory.peak_bytes_per_machine,
        )
        report.recovered_failures += outcome.recovered
        report.lost_seconds += outcome.lost_seconds
        report.checkpoint_seconds += outcome.checkpoint_seconds
        report.preemptions_drained += outcome.drained
        report.resize_events += outcome.resizes
        if outcome.aborted:
            report.aborted = True
            report.fail_reason = outcome.reason
        if outcome.extra_seconds == 0.0 and outcome.retries == 0:
            return phase_report
        return PhaseReport(
            name=phase_report.name,
            seconds=phase_report.seconds + outcome.extra_seconds,
            memory=phase_report.memory,
            parallel_seconds=phase_report.parallel_seconds,
            serial_seconds=phase_report.serial_seconds,
            retries=phase_report.retries + outcome.retries,
            fault_seconds=outcome.lost_seconds,
        )
