"""Wall-clock microbenchmarks for the host-execution fast path.

The tracer charges the paper's per-record costs no matter how the host
actually executes, so host execution is free to batch and memoize
(``repro.fastpath``).  This module measures what that buys: each case
runs one model on one backend twice — fast path on, then off — and
times the *per-iteration host cost* (initialization excluded, best of
``repeats`` runs).  Both runs use identical seeds, so the tracer event
streams must come out identical; the JSON records that check next to
the speedup.

``python benchmarks/microbench.py`` drives this and writes
``BENCH_<rev>.json`` so the perf trajectory is kept per revision.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import fastpath
from repro.bench.pool import pool_map, resolve_jobs
from repro.bench.report import format_summary
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.service.execution import bind_factory
from repro.service.spec import ExperimentSpec, workload_ref

SEED = 20140622
MACHINES = 3
IMPL_SEED = 42


@dataclass(frozen=True)
class BenchCase:
    """One (model, backend) microbenchmark."""

    name: str
    model: str
    platform: str
    factory: Callable[[ClusterSpec, Tracer], object]
    iterations: int = 3
    repeats: int = 5
    #: The declarative description the factory was bound from (None for
    #: hand-built test cases).
    spec: ExperimentSpec | None = None


def _case(name: str, platform: str, model: str, variant: str, args: tuple,
          iterations: int = 3, repeats: int = 5) -> BenchCase:
    """A case declared as an :class:`ExperimentSpec` and bound through
    the service layer — every repeat must see the same stream
    (``make_rng(IMPL_SEED)`` is a pure function of the seed, so repeats
    replay identically)."""
    spec = ExperimentSpec.make_cell(platform, model, variant, args=args,
                                    seed=IMPL_SEED, machines=MACHINES,
                                    iterations=iterations, label=name)
    return BenchCase(name, model, platform, bind_factory(spec),
                     iterations=iterations, repeats=repeats, spec=spec)


def default_cases() -> list[BenchCase]:
    """The five models on Spark plus GMM on every other backend.

    Workload refs resolve through the shared
    :func:`~repro.bench.pool.default_cache`, so a suite run after (or
    alongside) a figure sweep in the same process reuses any
    already-generated dataset instead of regenerating it.
    """
    gmm_points = workload_ref("gmm", 7, "points", n=600, dim=5, clusters=3)
    small_points = workload_ref("gmm", 7, "points", n=100, dim=5, clusters=3)
    lda_docs = workload_ref("lda", 5, "documents", n_documents=400,
                            vocabulary=600, topics=5, mean_length=120)
    hmm_docs = workload_ref("newsgroup", 13, "documents", n_documents=40,
                            vocabulary=500)
    return [
        _case("spark_gmm", "spark", "gmm", "initial", (gmm_points, 3)),
        _case("spark_lda", "spark", "lda", "document", (lda_docs, 600, 5)),
        _case("spark_lasso", "spark", "lasso", "initial",
              (workload_ref("lasso", 11, "x", n=800, p=25),
               workload_ref("lasso", 11, "y", n=800, p=25))),
        _case("spark_hmm", "spark", "hmm", "document", (hmm_docs, 500, 10)),
        _case("spark_imputation", "spark", "imputation", "initial",
              (workload_ref("censored-gmm", 17, "points", n=400, dim=5, clusters=3),
               workload_ref("censored-gmm", 17, "mask", n=400, dim=5, clusters=3),
               3)),
        _case("simsql_gmm", "simsql", "gmm", "initial", (small_points, 3),
              iterations=2, repeats=2),
        _case("giraph_gmm", "giraph", "gmm", "initial", (gmm_points, 3),
              repeats=3),
        _case("graphlab_gmm", "graphlab", "gmm", "initial", (gmm_points, 3),
              repeats=3),
    ]


def quick_cases() -> list[BenchCase]:
    """CI smoke subset: the two cases with acceptance-bar speedups."""
    return [case for case in default_cases()
            if case.name in ("spark_gmm", "spark_lda")]


def registry_cases(iterations: int = 2, repeats: int = 2) -> list[BenchCase]:
    """One timed scalar-vs-fast case per registered cell.

    This is the full-registry speed gate: the case list is *derived*
    from :func:`repro.impls.registry.cells`, so a newly registered
    variant shows up here (and in the floor check) automatically.
    Workloads are modest — the gate guards the host fast path's
    relative speedup per variant, not absolute scale.
    """
    from repro.impls.registry import cells

    gmm_points = workload_ref("gmm", 7, "points", n=400, dim=5, clusters=3)
    hmm_docs = workload_ref("newsgroup", 13, "documents", n_documents=30,
                            vocabulary=300)
    lda_docs = workload_ref("lda", 5, "documents", n_documents=120,
                            vocabulary=300, topics=5, mean_length=80)
    args_by_model = {
        "gmm": (gmm_points, 3),
        "lasso": (workload_ref("lasso", 11, "x", n=300, p=10),
                  workload_ref("lasso", 11, "y", n=300, p=10)),
        "hmm": (hmm_docs, 300, 5),
        "lda": (lda_docs, 300, 5),
        "imputation": (
            workload_ref("censored-gmm", 17, "points", n=240, dim=5, clusters=3),
            workload_ref("censored-gmm", 17, "mask", n=240, dim=5, clusters=3),
            3),
    }
    return [
        _case(f"{platform}_{model}_{variant.replace('-', '_')}",
              platform, model, variant, args_by_model[model],
              iterations=iterations, repeats=repeats)
        for platform, model, variant in cells()
    ]


def check_floor(payload: dict, floors: dict) -> list[str]:
    """Speed-floor violations in a suite payload; empty means pass.

    Every floored case must exist, stay at or above its floor, and keep
    ``events_identical``; unfloored measurements still fail on an event
    mismatch (the bitwise contract has no opt-out).
    """
    problems = []
    for name, floor in sorted(floors.items()):
        report = payload["cases"].get(name)
        if report is None:
            problems.append(f"{name}: floored but not measured")
            continue
        if not report["events_identical"]:
            problems.append(f"{name}: cost events changed under the fast path")
        if report["speedup"] < floor:
            problems.append(f"{name}: speedup {report['speedup']:.2f}x below "
                            f"floor {floor:.2f}x")
    for name, report in sorted(payload["cases"].items()):
        if name not in floors and not report["events_identical"]:
            problems.append(f"{name}: cost events changed under the fast path")
    return problems


def format_coverage(coverage: dict) -> str:
    """Render a :func:`repro.impls.registry.batch_coverage` report."""
    lines = []
    for name, report in sorted(coverage["cells"].items()):
        sites = report["batch_sites"] + [f"{s} (decline)"
                                         for s in report["decline_sites"]]
        if report["no_batch_twin"]:
            sites.append("(NO_BATCH_TWIN)")
        mark = "ok " if report["covered"] else "MISS"
        lines.append(f"{mark} {name:36s} {', '.join(sites) or '-'}")
    listed = coverage["no_batch_twin"]
    lines.append(f"covered: {coverage['covered']}/{coverage['total']} "
                 f"({coverage['covered'] - listed} by a batch or decline "
                 f"site, {listed} by NO_BATCH_TWIN)")
    return "\n".join(lines)


def _run_once(case: BenchCase, fast: bool) -> tuple[float, list, dict]:
    """One full run: init (untimed) + timed iterations.  Returns the
    iteration wall-clock, the phase event streams, and the summary."""
    with fastpath.fast_path(fast):
        tracer = Tracer()
        impl = case.factory(ClusterSpec(machines=MACHINES), tracer)
        with tracer.phase("init"):
            impl.initialize()
        started = time.perf_counter()
        for i in range(case.iterations):
            with tracer.phase(f"iteration-{i}"):
                impl.iterate(i)
        elapsed = time.perf_counter() - started
    events = [(p.name, p.events, p.memory) for p in tracer.phases]
    return elapsed, events, tracer.summary()


def run_case(case: BenchCase) -> dict:
    """Benchmark one case fast-vs-slow; best-of-``repeats`` timing."""
    fast_best, fast_events, summary = _run_once(case, fast=True)
    slow_best, slow_events, _ = _run_once(case, fast=False)
    for _ in range(case.repeats - 1):
        fast_best = min(fast_best, _run_once(case, fast=True)[0])
        slow_best = min(slow_best, _run_once(case, fast=False)[0])
    return {
        "model": case.model,
        "platform": case.platform,
        "iterations": case.iterations,
        "repeats": case.repeats,
        "fast_seconds_per_iteration": fast_best / case.iterations,
        "slow_seconds_per_iteration": slow_best / case.iterations,
        "speedup": slow_best / fast_best if fast_best > 0 else float("inf"),
        "events_identical": fast_events == slow_events,
        "summary": summary,
    }


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() or "dev"
    except Exception:
        return "dev"


def run_suite(cases: list[BenchCase] | None = None,
              progress: Callable[[str], None] | None = None,
              jobs: int | None = None) -> dict:
    """Run every case and assemble the ``BENCH_<rev>.json`` payload.

    ``jobs`` fans the cases out over a process pool (see
    ``repro.bench.pool``); results and the JSON payload are identical
    to a serial run, merged back in declared case order.
    """
    case_list = list(cases if cases is not None else default_cases())
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    reports = pool_map(run_case, case_list, jobs=jobs,
                       describe=lambda case: case.name)
    harness_seconds = time.perf_counter() - started
    results: dict[str, dict] = {}
    for case, report in zip(case_list, reports):
        results[case.name] = report
        if progress is not None:
            r = report
            progress(f"{case.name}: {r['speedup']:.2f}x "
                     f"({r['slow_seconds_per_iteration']:.4f}s -> "
                     f"{r['fast_seconds_per_iteration']:.4f}s/iter, "
                     f"events {'identical' if r['events_identical'] else 'DIFFER'})")
            progress(f"  trace: {format_summary(r['summary'])}")
    return {
        "rev": git_revision(),
        "machines": MACHINES,
        "fast_path_default": fastpath.enabled(),
        "jobs": jobs,
        "host_cpus": os.cpu_count(),
        "harness_seconds": harness_seconds,
        "cases": results,
    }


def write_report(payload: dict, out_dir: str | Path = ".") -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['rev']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
