"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from hostbench.environment import isolate  # noqa: E402

isolate()

from hostbench import harness, hostclock, loadgen, whatif  # noqa: E402
from hostbench.harness import DEFAULT_SEED, make_workload  # noqa: E402
from hostbench.spans import NO_SPANS, Span, Spans, percentile, self_times  # noqa: E402

SECOND_SEED = 7


# ----------------------------------------------------------------------
# Spans and percentiles
# ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        Span("parent", 0.0, 10.0, -1, "a"),
        Span("left", 1.0, 4.0, 0, "a"),    # overlaps "middle"
        Span("middle", 3.0, 6.0, 0, "a"),
        Span("late", 8.0, 12.0, 0, "a"),   # runs past its parent
        Span("inner", 2.0, 3.0, 1, "a"),   # grandchild: charged to "left" only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_recorder_links_parents_and_totals_self_time():
    spans = Spans()
    with spans.span("outer", "item-1"):
        with spans.span("inner", "item-1"):
            pass
        with spans.span("inner", "item-1"):
            pass
    records = spans.finished()
    assert [span.name for span in records] == ["outer", "inner", "inner"]
    assert [span.parent for span in records] == [-1, 0, 0]
    assert {span.item for span in records} == {"item-1"}
    totals = spans.self_seconds()
    inner = sum(span.end - span.start for span in records[1:])
    assert totals["inner"] == pytest.approx(inner)
    assert totals["outer"] == pytest.approx(
        records[0].end - records[0].start - inner)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        percentile(range(99), 90)


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------

def test_calibration_rescales_program_time_by_slice_speed():
    clock = hostclock.HostClock()
    slow = 2 * hostclock.NOMINAL
    # Slices of 1.5x nominal wall time, of which 2x nominal main-thread CPU
    # (the CPU clock is coarser than the wall clock, not slower).
    clock.samples = [(0.1 * k, 0.1 * k + 0.75 * slow, slow) for k in range(11, 30)]
    # 19 slices inside [1, 3]: half-speed host, slices' wall time excluded.
    assert clock.speed(1.0, 3.0) == pytest.approx(0.5)
    factor = 0.5 ** hostclock.ELASTICITY
    assert clock.calibrated(1.0, 3.0) == pytest.approx(
        (2.0 - 19 * 0.75 * slow) * factor)
    # Too short to hold ten slices: the nearest ten set the speed.
    assert clock.calibrated(1.55, 1.5505) == pytest.approx(0.0005 * factor)


def _spin(seconds: float) -> None:
    started = time.thread_time()
    while time.thread_time() - started < seconds:
        pass


def test_interval_flags_cpu_outside_the_main_thread():
    with hostclock.Interval() as alone:
        _spin(0.2)
    assert not alone.contended
    assert alone.seconds == alone.wall > 0.19

    worker = threading.Thread(target=_spin, args=(0.2,))
    with hostclock.Interval() as shared:
        worker.start()
        worker.join()
    assert shared.other_cpu > 0.15 and shared.contended


def test_timer_takes_slices_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock().start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.3:
        pass
    clock.stop()
    assert len(clock.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < clock.calibrated(started, time.perf_counter())


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert harness.metric_units("end_to_end") == {
        "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    # Every per-layer metric says what it should move, and on which workloads.
    targets = harness.layer_targets()
    assert list(targets) == list(harness.metric_units("per_layer"))
    assert all(row["moves"] and row["on"] for row in targets.values())


def test_default_seed_at_figure_size_gives_the_figure_cells():
    from hostbench.cells import benchmark_cells, select_cells

    platforms = ("simsql", "spark", "giraph", "graphlab")
    figure = select_cells(platforms)
    assert len(figure) == 46
    assert [spec.key for spec in benchmark_cells(platforms, DEFAULT_SEED)] == [
        spec.key for spec in figure]
    reseeded = benchmark_cells(platforms, SECOND_SEED)
    assert not {spec.key for spec in reseeded} & {spec.key for spec in figure}


def test_manifest_pins_every_default_seed_item():
    for name in ("figures-relational", "figures-dataflow-graph"):
        workload = make_workload(name, DEFAULT_SEED)
        assert workload.strict
        assert {spec.key for spec in workload.cells} <= set(workload.digests)
    grid = make_workload("whatif-grid", DEFAULT_SEED)
    traces = [whatif._Trace(case, machines, None, 0)
              for case in grid.cases for machines in grid.machine_counts]
    assert {grid.item_key(trace, position)
            for offset, trace in enumerate(traces)
            for position in range(offset, whatif.CYCLE, len(traces))
            } == set(grid.digests)


# ----------------------------------------------------------------------
# Negative controls: a planted wrong answer is a failed item
# ----------------------------------------------------------------------

def _failed(outcomes):
    return [outcome for outcome in outcomes if outcome.reason]


def test_planted_cell_digest_fails_the_cell(tmp_path):
    workload = make_workload("figures-relational", DEFAULT_SEED, "tiny")
    workload.setup(tmp_path, NO_SPANS)
    assert not _failed(workload.run_pass(0, NO_SPANS))
    planted = workload.cells[0]
    workload.digests = {planted.key: "0" * 16}
    failed = _failed(workload.run_pass(1, NO_SPANS))
    assert len(failed) == 1 and "digest" in failed[0].reason


def test_planted_grid_digest_and_oracle_mismatch_fail_the_item(tmp_path, monkeypatch):
    workload = make_workload("whatif-grid", DEFAULT_SEED, "tiny")
    workload.setup(tmp_path, NO_SPANS)
    assert not _failed(workload.run_pass(0, NO_SPANS))
    trace = workload.traces[0]
    workload.digests = {workload.item_key(trace, 1): "0" * 16}
    failed = _failed(workload.run_pass(1, NO_SPANS))
    assert len(failed) == 1 and "columns digest" in failed[0].reason

    oracle = whatif.gridbench._oracle

    def wrong_oracle(tracer, profile, scenario):
        return oracle(tracer, profile, whatif.Scenario.make(
            scenario.machines, scenario.scale_dict,
            rates=whatif.hostile_rates(0.45), seed=scenario.seed + 1))

    monkeypatch.setattr(whatif.gridbench, "_oracle", wrong_oracle)
    failed = _failed(workload.run_pass(2, NO_SPANS))
    assert len(failed) == 1 and "Simulator.simulate" in failed[0].reason


def test_planted_cached_reply_fails_the_submission(tmp_path):
    workload = make_workload("service-mixed", DEFAULT_SEED, "tiny")
    try:
        workload.setup(tmp_path, NO_SPANS)
        payload, _ = workload.known[0]
        workload.known[0] = (payload, b"{}")
        outcomes = [o for n in range(3) for o in workload.run_pass(n, NO_SPANS)]
        failed = _failed(outcomes)
        assert failed and all("differs" in o.reason for o in failed)
        assert workload.audit() == ""
    finally:
        workload.close()


def test_spellings_round_trip_to_one_spec_key():
    from repro.service.spec import ExperimentSpec

    spec = make_workload("service-mixed", DEFAULT_SEED, "tiny").kinds[0]
    payload = spec.to_json()
    for variant in range(3):
        spelled = loadgen.spelling(payload, variant)
        assert json.dumps(spelled) != json.dumps(payload)
        assert ExperimentSpec.from_json(spelled).key == spec.key


# ----------------------------------------------------------------------
# Tiny-size smoke runs of every workload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", harness.WORKLOADS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, SECOND_SEED])
def test_tiny_untraced_run(name, seed, tmp_path):
    workload = make_workload(name, seed, "tiny")
    try:
        outcomes, metrics = harness.untraced_run(
            workload, tmp_path, 0.01, hostclock.Interval().between(0.0, 0.1))
    finally:
        workload.close()
    units = harness.metric_units("end_to_end")
    line = harness.result_line(outcomes, metrics, units)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == list(units)
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_tiny_traced_run_matches_untraced(name, tmp_path):
    workload = make_workload(name, DEFAULT_SEED, "tiny")
    workload.traced_passes = 2
    try:
        outcomes, metrics = harness.traced_run(workload, tmp_path,
                                               tmp_path / "spans.jsonl")
    finally:
        workload.close()
    assert not _failed(outcomes)
    assert list(harness.metric_units("per_layer")) == list(metrics)
    assert (tmp_path / "spans.jsonl").read_text()
    layers = {"figures-relational": "relational.gmm.iterate_s",
              "figures-dataflow-graph": "dataflow.gmm.iterate_s",
              "whatif-grid": "cluster.tracealgebra.simulate_grid_s",
              "service-mixed": "service.client.wait_s"}
    assert metrics[layers[name]] > 0
