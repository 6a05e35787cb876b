"""Trace algebra golden suite: the vectorized grid vs. the per-cell oracle.

Every assertion here is *byte* identity, not tolerance: a grid cell's
``RunReport`` must ``repr``-match the report ``Simulator.simulate``
produces for the equivalent per-cell call.  Dataclass reprs round-trip
every float, so repr equality is bit equality on every priced second,
every retry count, and every failure string.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    ContentionWindow,
    FaultRates,
    FaultSchedule,
    Fleet,
    Kind,
    PLATFORM_PROFILES,
    RetryPolicy,
    Scenario,
    ScenarioGrid,
    Simulator,
    Site,
    TraceTable,
    Tracer,
    UnknownScaleGroup,
    replicate_studies,
    replicate_study,
    sample_fleet_speeds,
    simulate_grid,
)
from repro.cluster.costmodel import ScaleMap
from repro.cluster.events import FIXED
from repro.cluster.tracealgebra import phase_reports
from repro.stats import make_rng

SEED = 20140622


def build_trace(tracer: Tracer, iterations: int = 3,
                memory_bytes: float = 1e9) -> Tracer:
    """A small synthetic trace exercising every event kind and site."""
    with tracer.init_phase():
        tracer.emit(Kind.JOB, records=1.0, scale=FIXED)
        tracer.emit(Kind.DISK_READ, bytes=2e9)
        tracer.emit(Kind.COMPUTE, records=1e6, flops=3e7, language="numpy")
        tracer.emit(Kind.BROADCAST, bytes=5e6, site=Site.DRIVER, scale=FIXED,
                    language="java")
        tracer.materialize(bytes=memory_bytes, label="resident-data")
    for i in range(iterations):
        with tracer.iteration_phase(i):
            tracer.emit(Kind.COMPUTE, records=1e6, flops=2e7, language="numpy")
            tracer.emit(Kind.SHUFFLE, records=1e4, bytes=3e8)
            tracer.emit(Kind.BARRIER, records=1.0, scale=FIXED)
            tracer.emit(Kind.SERIALIZE, bytes=1e7, site=Site.MACHINE,
                        scale=FIXED)
            tracer.emit(Kind.MESSAGE, records=5e3, bytes=1e7, language="java",
                        scale="data*p")
            tracer.emit(Kind.DISK_WRITE, bytes=1e8, site=Site.MACHINE)
            tracer.materialize(bytes=2e8, spillable=True, label="working-set")
    return tracer


SCALES = {"data": 40.0, "p": 1.0}


def oracle(tracer: Tracer, profile, scenario: Scenario):
    """The per-cell reference: one ``Simulator.simulate`` call."""
    simulator = Simulator(
        ClusterSpec(machines=scenario.machines, fleet=scenario.fleet), profile)
    faults = None
    if scenario.rates is not None:
        faults = FaultSchedule.sampled(scenario.rates, seed=scenario.seed)
    return simulator.simulate(
        tracer, scenario.scale_dict, faults=faults,
        retry_policy=scenario.retry_policy,
        checkpoint_interval=scenario.checkpoint_interval,
    )


def assert_grid_matches_oracle(tracer, profile, scenarios):
    result = simulate_grid(tracer, profile, ScenarioGrid.of(scenarios))
    for i, scenario in enumerate(scenarios):
        want = oracle(tracer, profile, scenario)
        got = result.report(i)
        assert repr(got) == repr(want), (
            f"scenario {i} ({scenario}) diverged from the per-cell oracle")
    return result


# ----------------------------------------------------------------------
# Fault-free pricing: vectorized phase reports == _simulate_phase
# ----------------------------------------------------------------------

@pytest.mark.parametrize("platform", sorted(PLATFORM_PROFILES))
def test_phase_reports_match_scalar_path(platform):
    tracer = build_trace(Tracer())
    profile = PLATFORM_PROFILES[platform]
    for machines in (1, 5, 20):
        cluster = ClusterSpec(machines=machines)
        simulator = Simulator(cluster, profile)
        scale_map = ScaleMap(SCALES)
        want = [simulator._simulate_phase(p, scale_map) for p in tracer.phases]
        got = phase_reports(TraceTable.of(tracer), scale_map, cluster, profile)
        assert repr(got) == repr(want)


def test_unknown_scale_group_message_matches_oracle():
    tracer = build_trace(Tracer())
    profile = PLATFORM_PROFILES["spark"]
    scenario = Scenario.make(5, {"data": 40.0})  # missing "p"
    with pytest.raises(UnknownScaleGroup) as grid_err:
        simulate_grid(tracer, profile, [scenario])
    with pytest.raises(UnknownScaleGroup) as oracle_err:
        oracle(tracer, profile, scenario)
    assert str(grid_err.value) == str(oracle_err.value)


# ----------------------------------------------------------------------
# ScenarioGrid edge cases (each byte-identical to the oracle)
# ----------------------------------------------------------------------

def test_empty_grid():
    tracer = build_trace(Tracer())
    result = simulate_grid(tracer, PLATFORM_PROFILES["spark"], [])
    assert len(result) == 0
    assert result.reports() == []
    assert result.columns()["total_seconds"].shape == (0,)


def test_single_cell_grid():
    tracer = build_trace(Tracer())
    result = assert_grid_matches_oracle(
        tracer, PLATFORM_PROFILES["spark"],
        [Scenario.make(5, SCALES, rates=FaultRates(machine_crash=0.4), seed=1)])
    assert len(result) == 1


def test_abort_before_first_iteration():
    """GraphLab with a near-certain crash rate dies in ``init``; the cell
    must fail with the oracle's exact reason and raise the oracle's
    exact no-iterations error."""
    tracer = build_trace(Tracer())
    profile = PLATFORM_PROFILES["graphlab"]
    scenario = Scenario.make(5, SCALES,
                             rates=FaultRates(machine_crash=0.999), seed=3)
    want = oracle(tracer, profile, scenario)
    assert want.failed and want.aborted and want.fail_phase == "init"
    result = assert_grid_matches_oracle(tracer, profile, [scenario])
    got = result.report(0)
    assert len(got.phases) == 1
    with pytest.raises(ValueError, match="before completing an iteration"):
        got.mean_iteration_seconds


def test_mixed_fault_free_and_faulted_grid():
    tracer = build_trace(Tracer())
    scenarios = [
        Scenario.make(5, SCALES),
        Scenario.make(5, SCALES, rates=FaultRates(machine_crash=0.4), seed=1),
        Scenario.make(20, SCALES),
        Scenario.make(20, SCALES, rates=FaultRates(machine_crash=0.0), seed=1),
        Scenario.make(20, SCALES,
                      rates=FaultRates(machine_crash=0.4, task_failure=0.3,
                                       straggler=0.5),
                      seed=9),
    ]
    for platform in sorted(PLATFORM_PROFILES):
        assert_grid_matches_oracle(tracer, PLATFORM_PROFILES[platform],
                                   scenarios)


def test_out_of_memory_cells_match_oracle():
    """A grid mixing OOM cluster sizes with healthy ones: the doomed
    cells must carry the oracle's exact failure strings, with and
    without fault injection (the injector's accounting on the OOM phase
    counts in both paths)."""
    tracer = build_trace(Tracer(), memory_bytes=2e10)
    scenarios = []
    for machines in (2, 100):
        scenarios.append(Scenario.make(machines, SCALES))
        scenarios.append(Scenario.make(
            machines, SCALES, rates=FaultRates(machine_crash=0.4), seed=1))
    for platform in sorted(PLATFORM_PROFILES):
        profile = PLATFORM_PROFILES[platform]
        small = oracle(tracer, profile, scenarios[0])
        assert small.failed and not small.aborted, (
            "fixture must OOM at 2 machines for this test to bite")
        assert_grid_matches_oracle(tracer, profile, scenarios)


def test_retry_policy_axis_matches_oracle():
    """A one-attempt policy turns the first crash into the oracle's
    'task exceeded N attempts' abort; a generous policy recovers."""
    tracer = build_trace(Tracer())
    scenarios = [
        Scenario.make(5, SCALES, rates=FaultRates(machine_crash=0.9), seed=2,
                      retry_policy=policy)
        for policy in (RetryPolicy(max_attempts=1), RetryPolicy(max_attempts=9),
                       None)
    ]
    for platform in ("simsql", "spark", "giraph"):
        assert_grid_matches_oracle(tracer, PLATFORM_PROFILES[platform],
                                   scenarios)


def test_checkpoint_interval_axis_matches_oracle():
    tracer = build_trace(Tracer(), iterations=6)
    scenarios = [
        Scenario.make(5, SCALES, rates=FaultRates(machine_crash=0.5), seed=1,
                      checkpoint_interval=interval)
        for interval in (0, 1, 2, 5)
    ]
    assert_grid_matches_oracle(tracer, PLATFORM_PROFILES["spark"], scenarios)


def test_product_grid_shape_and_identity():
    tracer = build_trace(Tracer())
    grid = ScenarioGrid.product(
        machine_counts=(5, 20),
        scale_sets=[SCALES],
        rates=(None, 0.15, 0.4),
        seeds=(1, 2),
        checkpoint_intervals=(0, 2),
    )
    assert len(grid) == 2 * 1 * 3 * 2 * 2
    profile = PLATFORM_PROFILES["spark"]
    result = assert_grid_matches_oracle(tracer, profile, list(grid))
    columns = result.columns()
    assert columns["total_seconds"].shape == (len(grid),)
    totals = [result.report(i).total_seconds for i in range(len(grid))]
    assert columns["total_seconds"].tolist() == totals
    assert columns["completed"].all()


def test_grid_result_columns_track_reports():
    tracer = build_trace(Tracer())
    profile = PLATFORM_PROFILES["simsql"]
    scenarios = [
        Scenario.make(5, SCALES, rates=FaultRates(machine_crash=rate), seed=1)
        for rate in (0.0, 0.4, 0.9)
    ]
    result = assert_grid_matches_oracle(tracer, profile, scenarios)
    columns = result.columns()
    for i in range(len(scenarios)):
        report = result.report(i)
        assert columns["completed"][i] == (not report.failed)
        assert columns["recovered_failures"][i] == report.recovered_failures
        assert columns["total_retries"][i] == report.total_retries
        assert columns["lost_seconds"][i] == report.lost_seconds
        assert columns["total_seconds"][i] == report.total_seconds


# ----------------------------------------------------------------------
# Hostile-cluster axes: preemption, resize, heterogeneous fleets
# ----------------------------------------------------------------------

def test_preemption_axis_matches_oracle():
    """Drains (Spark/SimSQL), crash fallbacks (Giraph, zero warning) and
    aborts (GraphLab) must all reproduce the oracle bit for bit."""
    tracer = build_trace(Tracer())
    scenarios = [
        Scenario.make(5, SCALES, rates=FaultRates(preemption=rate,
                                                  preemption_warning=warning),
                      seed=seed)
        for rate in (0.3, 0.9)
        for warning in (120.0, 0.0)
        for seed in (1, 2, 3)
    ]
    for platform in sorted(PLATFORM_PROFILES):
        assert_grid_matches_oracle(tracer, PLATFORM_PROFILES[platform],
                                   scenarios)


def test_resize_axis_matches_oracle():
    """Every re-partitioning discipline (lineage recompute, checkpoint
    restore, input re-split), shrink and grow, with and without a
    checkpointing interval for the lineage window."""
    tracer = build_trace(Tracer(), iterations=5)
    scenarios = [
        Scenario.make(5, SCALES,
                      rates=FaultRates(resize=rate, resize_delta=delta),
                      seed=seed, checkpoint_interval=interval)
        for rate in (0.4, 0.9)
        for delta in (-1, -4, 3)
        for seed in (1, 4)
        for interval in (0, 2)
    ]
    for platform in sorted(PLATFORM_PROFILES):
        assert_grid_matches_oracle(tracer, PLATFORM_PROFILES[platform],
                                   scenarios)


def test_heterogeneous_fleet_matches_oracle():
    """Fleet stretch lands in the base pricing: mixed generations,
    contention windows, sampled lognormal speeds — fault-free and under
    every fault kind at once."""
    tracer = build_trace(Tracer())
    fleets = [
        Fleet.generations((3, 1.0), (2, 0.8)),
        Fleet.uniform(5, contention=(ContentionWindow(0, 1, 3, 1.5),
                                     ContentionWindow(2, 0, 4, 2.0))),
        Fleet(speeds=sample_fleet_speeds(5, rng=7, cv=0.3)),
    ]
    hostile = FaultRates(machine_crash=0.2, task_failure=0.2, straggler=0.2,
                         preemption=0.4, resize=0.3)
    scenarios = [
        Scenario.make(5, SCALES, rates=rates, seed=seed, fleet=fleet)
        for fleet in fleets + [None]
        for rates in (None, hostile)
        for seed in (1, 2)
    ]
    for platform in sorted(PLATFORM_PROFILES):
        assert_grid_matches_oracle(tracer, PLATFORM_PROFILES[platform],
                                   scenarios)


def test_preemption_exhausts_shared_retry_budget_like_oracle():
    """An undrainable preemption draws from the same attempt budget as
    crashes; a one-attempt policy turns it into the oracle's exact
    'preemption ... exceeded' abort, including before iteration 0."""
    tracer = build_trace(Tracer())
    scenarios = [
        Scenario.make(5, SCALES,
                      rates=FaultRates(preemption=0.95, preemption_warning=0.0),
                      seed=seed, retry_policy=RetryPolicy(max_attempts=1))
        for seed in range(6)
    ]
    for platform in ("simsql", "spark", "giraph"):
        result = assert_grid_matches_oracle(
            tracer, PLATFORM_PROFILES[platform], scenarios)
        reasons = [result.report(i).fail_reason for i in range(len(scenarios))]
        assert any("preemption" in r and "exceeded" in r for r in reasons)
    aborted_early = [
        r for i in range(len(scenarios))
        if (r := simulate_grid(tracer, PLATFORM_PROFILES["giraph"],
                               ScenarioGrid.of(scenarios)).report(i)).failed
        and r.fail_phase == "init"
    ]
    for report in aborted_early:
        with pytest.raises(ValueError, match="before completing an iteration"):
            report.mean_iteration_seconds
        assert report.cell(verbose=True).startswith("Fail [init:")


def test_hostile_columns_track_reports():
    tracer = build_trace(Tracer())
    scenarios = [
        Scenario.make(5, SCALES,
                      rates=FaultRates(preemption=0.8, resize=0.6), seed=seed)
        for seed in (1, 2, 3)
    ]
    result = assert_grid_matches_oracle(
        tracer, PLATFORM_PROFILES["spark"], scenarios)
    columns = result.columns()
    assert columns["preemption_rate"].tolist() == [0.8] * 3
    assert columns["resize_rate"].tolist() == [0.6] * 3
    drained = 0
    resized = 0
    for i in range(len(scenarios)):
        report = result.report(i)
        assert columns["preemptions_drained"][i] == report.preemptions_drained
        assert columns["resize_events"][i] == report.resize_events
        drained += report.preemptions_drained
        resized += report.resize_events
    assert drained > 0 and resized > 0


def test_fleet_axis_in_product_grid():
    tracer = build_trace(Tracer())
    fleet = Fleet.generations((3, 1.0), (2, 0.8))
    grid = ScenarioGrid.product(
        machine_counts=(5,),
        scale_sets=[SCALES],
        rates=(None, FaultRates(preemption=0.5, resize=0.5)),
        seeds=(1, 2),
        fleets=(None, fleet),
    )
    assert len(grid) == 1 * 1 * 2 * 2 * 2
    assert {s.fleet for s in grid} == {None, fleet}
    assert_grid_matches_oracle(tracer, PLATFORM_PROFILES["simsql"], list(grid))


# ----------------------------------------------------------------------
# TraceTable plumbing
# ----------------------------------------------------------------------

def test_trace_table_cache_invalidates_on_growth():
    tracer = Tracer()
    with tracer.init_phase():
        tracer.emit(Kind.COMPUTE, records=1.0)
    first = TraceTable.of(tracer)
    assert TraceTable.of(tracer) is first
    with tracer.iteration_phase(0):
        tracer.emit(Kind.COMPUTE, records=2.0)
    second = TraceTable.of(tracer)
    assert second is not first
    assert second.n_phases == 2


# ----------------------------------------------------------------------
# Vectorized variability replication
# ----------------------------------------------------------------------

def test_replicate_studies_seed_array_matches_scalar_cells():
    seconds = np.array([1620.0, 300.0, 0.0, 42.5])
    seeds = np.array([7, 8, 9, 10])
    means, stds = replicate_studies(seconds, seeds)
    for i in range(len(seconds)):
        mean, std = replicate_study(float(seconds[i]), int(seeds[i]))
        assert means[i] == mean
        assert stds[i] == std


def test_replicate_studies_generator_matches_sequential_loop():
    seconds = np.array([1620.0, 0.0, 300.0, 42.5, 0.0, 99.0])
    means, stds = replicate_studies(seconds, make_rng(7))
    rng = make_rng(7)
    for i in range(len(seconds)):
        mean, std = replicate_study(float(seconds[i]), rng)
        assert means[i] == mean
        assert stds[i] == std


def test_replicate_studies_zero_cv_draws_nothing():
    rng = make_rng(3)
    before = rng.bit_generator.state["state"]["state"]
    means, stds = replicate_studies(np.array([10.0, 20.0]), rng, cv=0.0)
    assert rng.bit_generator.state["state"]["state"] == before
    want = [replicate_study(x, make_rng(3), cv=0.0) for x in (10.0, 20.0)]
    assert means.tolist() == [w[0] for w in want]
    assert stds.tolist() == [w[1] for w in want]


def test_replicate_studies_validates_inputs():
    with pytest.raises(ValueError, match="one seed per cell"):
        replicate_studies(np.array([1.0, 2.0]), np.array([7]))
    with pytest.raises(ValueError, match="at least two days"):
        replicate_studies(np.array([1.0]), np.array([7]), days=1)
    with pytest.raises(ValueError, match="non-negative"):
        replicate_studies(np.array([-1.0]), np.array([7]))
    with pytest.raises(ValueError, match="one-dimensional"):
        replicate_studies(np.array([[1.0]]), np.array([7]))
