"""How a benchmark run goes: set-up, timed passes, the traced run, the result.

Every workload is a sequence of numbered *passes*; a pass is a fixed
list of items (figure cells, priced grids, service submissions) whose
outputs are checked as they complete.

* An untraced run (``--trace 0``) sets up :data:`SETUPS` times and
  reports the median, then runs ``round(--seconds / pass_seconds)`` whole
  passes and prints the end-to-end metrics.  The pass count depends only
  on ``--seconds``, so every run does the same work.  Its seconds are
  host-calibrated (:mod:`hostbench.hostclock`); the wall-clock figures
  are printed beside them, and a run whose program used CPU outside the
  main thread, which calibration cannot see, says so.
* A traced run (``--trace 1``) runs a fixed number of passes untraced,
  sets up again with spans on, runs the same passes traced, checks that
  both produced the same outputs, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostbench.environment import ROOT
from hostbench.hostclock import HostClock, Interval
from hostbench.spans import NO_SPANS, Spans

HERE = Path(__file__).resolve().parent
#: Where runs keep their working state; every run gets a fresh directory.
RUNS = ROOT / ".hostbench"
SETUPS = 3
DEFAULT_SEED = 20140622


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def layer_targets() -> dict[str, dict]:
    """Per-layer metric -> the end-to-end metric and workloads it should
    move (BENCHMARK.json's schema has no room for them)."""
    return json.loads((HERE / "layers.json").read_text())


@dataclass
class Outcome:
    """One checked item: its output digest and why it failed, if it did."""

    item: str
    digest: str
    reason: str = ""
    #: Item class and latency, for workloads that report percentiles.
    kind: str = ""
    seconds: float = 0.0


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: Wall seconds of one pass on a shared 2-vCPU host.
    pass_seconds = 1.0
    #: Passes the traced run times, untraced and traced.
    traced_passes = 1

    def setup(self, directory: Path, spans: Spans) -> None:
        raise NotImplementedError

    def run_pass(self, number: int, spans: Spans) -> list[Outcome]:
        raise NotImplementedError

    def audit(self) -> str:
        """A check over the whole run so far; the reason it fails, or ""."""
        return ""

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process running the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, untraced: list[Outcome], traced: list[Outcome],
                      spans: Spans) -> dict[str, float]:
        """Per-layer values beyond span self times (counts, shares)."""
        return {}

    def close(self) -> None:
        pass


def make_workload(name: str, seed: int, size: str = "bench") -> Workload:
    if name in ("figures-relational", "figures-dataflow-graph"):
        from hostbench.figures import FigureWorkload
        return FigureWorkload(name, seed, size)
    if name == "whatif-grid":
        from hostbench.whatif import WhatIfWorkload
        return WhatIfWorkload(seed, size)
    if name == "service-mixed":
        from hostbench.loadgen import ServiceWorkload
        return ServiceWorkload(seed, size)
    raise KeyError(name)


WORKLOADS = ("figures-relational", "figures-dataflow-graph", "whatif-grid",
             "service-mixed")


def _guarded(workload: Workload, number: int,
             spans: Spans) -> list[Outcome]:
    try:
        return workload.run_pass(number, spans)
    except Exception as exc:  # a crashed pass is one failed item, not a crash
        return [Outcome(f"pass-{number}", "",
                        f"pass {number} raised {type(exc).__name__}: {exc}")]


def _audit(workload: Workload) -> list[Outcome]:
    reason = workload.audit()
    return [Outcome("audit", "", reason)] if reason else []


def _flag(what: str, interval: Interval) -> None:
    if interval.contended:
        print(f"warning: {what} ran {interval.threads} threads and "
              f"{interval.other_cpu:.3f} s of CPU outside the main thread, "
              f"which host calibration cannot see; compare the wall figures",
              file=sys.stderr)


def untraced_run(workload: Workload, directory: Path, seconds: float,
                 imported: Interval,
                 clock: HostClock | None = None) -> tuple[list[Outcome], dict]:
    """The end-to-end metrics, as measured (host-calibrated when there is
    a clock); ``imported`` times the imports before set-up."""
    setups = []
    for k in range(SETUPS):
        if k:
            workload.close()
        with Interval(clock) as setup:
            workload.setup(directory / f"setup-{k}", NO_SPANS)
        _flag("set-up", setup)
        setups.append(setup)
    passes = max(1, round(seconds / workload.pass_seconds))
    with Interval(clock) as timed:
        outcomes = [o for n in range(passes)
                    for o in _guarded(workload, n, NO_SPANS)]
    _flag("the timed passes", timed)
    completed = sum(1 for outcome in outcomes if not outcome.reason)
    outcomes.extend(_audit(workload))
    metrics = {
        "setup_s": imported.seconds + statistics.median(s.seconds for s in setups),
        "items_per_s": completed / timed.seconds,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    speed = (f", host at {clock.speed(timed.start, timed.end):.3f}x nominal"
             if clock else "")
    print(f"timed: {passes} passes, {completed} items in "
          f"{timed.wall:.3f} s wall{speed}, "
          f"{timed.other_cpu:.3f} s CPU outside the main thread")
    wall_setup = imported.wall + statistics.median(s.wall for s in setups)
    print(f"wall clock: setup_s = {wall_setup:.6g} s, items_per_s = "
          f"{completed / timed.wall:.6g} 1/s")
    return outcomes, metrics


def traced_run(workload: Workload, directory: Path, spans_path: Path,
               clock: HostClock | None = None) -> tuple[list[Outcome], dict]:
    passes = range(workload.traced_passes)
    workload.setup(directory / "untraced", NO_SPANS)
    with Interval(clock) as untraced_time:
        untraced = [o for n in passes for o in _guarded(workload, n, NO_SPANS)]
    untraced.extend(_audit(workload))
    workload.close()

    spans = Spans()
    workload.setup(directory / "traced", spans)
    with Interval(clock) as traced_time:
        traced = [o for n in passes for o in _guarded(workload, n, spans)]
    traced.extend(_audit(workload))
    spans.write(spans_path)

    outcomes = untraced + traced
    mismatched = [b.item for a, b in zip(untraced, traced)
                  if a.digest != b.digest or a.item != b.item]
    if len(untraced) != len(traced) or mismatched:
        outcomes.append(Outcome(
            "traced-vs-untraced", "",
            f"traced outputs differ from untraced ones at {mismatched[:3]} "
            f"({len(untraced)} vs {len(traced)} items)"))

    metrics = {f"{name}_s": seconds
               for name, seconds in spans.self_seconds().items()}
    metrics.update(workload.layer_metrics(untraced, traced, spans))
    metrics["trace.overhead_s"] = traced_time.seconds - untraced_time.seconds
    names = metric_units("per_layer")
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise KeyError(f"measured per-layer metrics missing from "
                       f"BENCHMARK.json: {unknown}")
    return outcomes, {name: metrics.get(name, 0.0) for name in names}


def host_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def result_line(outcomes: list[Outcome], metrics: dict[str, float],
                units: dict[str, str]) -> dict:
    failed = sum(1 for outcome in outcomes if outcome.reason)
    return {
        "correct": failed == 0,
        "attempted": max(1, len(outcomes)),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hostbench/run.py",
                                     description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str], started: float, clock: HostClock) -> int:
    """Run one benchmark.  ``started`` is the process's first clock read;
    ``clock`` has been sampling the host since then."""
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    imported = Interval(clock).between(started, time.perf_counter())
    RUNS.mkdir(exist_ok=True)
    directory = RUNS / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        if args.trace:
            spans_path = RUNS / f"spans-{args.workload}-{args.seed}.jsonl"
            outcomes, metrics = traced_run(workload, directory, spans_path,
                                           clock)
            units = metric_units("per_layer")
        else:
            outcomes, metrics = untraced_run(workload, directory, args.seconds,
                                             imported, clock)
            units = metric_units("end_to_end")
    finally:
        clock.stop()
        workload.close()
        shutil.rmtree(directory, ignore_errors=True)
    for outcome in outcomes:
        if outcome.reason:
            print(f"FAILED {outcome.item}: {outcome.reason}", file=sys.stderr)
    print("host " + json.dumps(host_facts(), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(result_line(outcomes, metrics, units)))
    return 0
