"""Benchmark runner: drive an implementation, simulate the cluster run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster import (
    PLATFORM_PROFILES,
    ClusterSpec,
    RunReport,
    Simulator,
    Tracer,
)
from repro.cluster.events import FIXED
from repro.impls.base import Implementation


@dataclass
class CellResult:
    """One cell of a paper table: a simulated run plus the paper's value."""

    label: str
    machines: int
    report: RunReport
    paper: str = ""
    loc: int = 0

    @property
    def cell(self) -> str:
        return self.report.cell()


def run_benchmark(
    factory: Callable[[ClusterSpec, Tracer], Implementation],
    machines: int,
    iterations: int,
    scales: dict[str, float],
) -> RunReport:
    """Execute one benchmark cell.

    ``factory`` builds the implementation against the given cluster spec
    and tracer.  The runner owns the tracer phases: one ``init`` phase
    around ``initialize()`` and one phase per iteration, after which the
    trace is scaled to paper size and simulated.
    """
    cluster = ClusterSpec(machines=machines)
    tracer = Tracer()
    impl = factory(cluster, tracer)
    profile = PLATFORM_PROFILES[impl.platform]
    with tracer.init_phase():
        impl.initialize()
    for i in range(iterations):
        with tracer.iteration_phase(i):
            impl.iterate(i)
    validate_scale_groups(impl, tracer)
    simulator = Simulator(cluster, profile)
    return simulator.simulate(tracer, scales)


def observed_scale_groups(tracer: Tracer) -> set[str]:
    """Every non-FIXED scale-group component on the traced events.
    Compound labels ("data*p2") count each component separately."""
    scales = {event.scale for phase in tracer.phases
              for events in (phase.events, phase.memory) for event in events}
    return {part for scale in sorted(scales) for part in scale.split("*")
            if part != FIXED}


def validate_scale_groups(impl: Implementation, tracer: Tracer) -> None:
    """Check ``impl.scale_groups()`` against the trace it produced.

    The declaration is the runner's contract for which scale factors a
    cell needs; a drifted declaration silently simulates events at
    factor 1.0 (undeclared group) or promises a factor nothing uses.
    Raises ``ValueError`` naming the cell and both sides of the drift.
    """
    declared = set(impl.scale_groups())
    observed = observed_scale_groups(tracer)
    if observed == declared:
        return
    problems = []
    undeclared = sorted(observed - declared)
    if undeclared:
        problems.append(f"events use undeclared scale groups {undeclared}")
    unused = sorted(declared - observed)
    if unused:
        problems.append(f"declared scale groups {unused} appear on no event")
    raise ValueError(
        f"{impl.label}: scale_groups() out of sync with the trace: "
        f"{'; '.join(problems)} (declared {sorted(declared)}, "
        f"traced {sorted(observed)})"
    )


def paper_scales(units_per_machine: int, machines: int, laptop_units: int,
                 **extra: float) -> dict[str, float]:
    """Scale factors for a cell: the paper keeps data-per-machine fixed,
    so the data factor is (units/machine x machines) / laptop units.
    ``extra`` supplies model-axis factors (vocab, p, ...); ``words``
    defaults to the data factor (corpora keep the paper's words-per-
    document ratio, so one factor serves both units)."""
    if laptop_units < 1:
        raise ValueError(f"laptop_units must be positive, got {laptop_units}")
    data = units_per_machine * machines / laptop_units
    scales = {"data": data, "words": data, "d": 1.0, "d2": 1.0,
              "p": 1.0, "p2": 1.0, "vocab": 1.0, "sv": 1.0}
    scales.update(extra)
    return scales


def sv_factor(machines: int, laptop_units: int, laptop_block: int) -> float:
    """Super-vertex-count scale factor: the paper uses ~80 super
    vertices per machine; the laptop run groups ``laptop_units`` data
    units into blocks of ``laptop_block``."""
    laptop_svs = max(1, laptop_units // laptop_block)
    return 80.0 * machines / laptop_svs
