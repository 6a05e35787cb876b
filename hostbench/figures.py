"""The ``figures-relational`` and ``figures-dataflow-graph`` workloads.

Each pass runs every selected figure cell once, in figure order, through
:func:`repro.service.execution.execute_spec`; the traced pass runs the
same cells through the steps of :func:`repro.bench.pool.run_cell` with a
span around each.  Either way a cell's output is the digest of its report
and line count, which the traced run compares pass against pass.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import fastpath
from repro.bench.pool import WorkloadCache, WorkloadRef
from repro.hashing import stable_digest
from repro.service.execution import execute_spec

from hostbench.cells import (
    benchmark_cells,
    check_cell,
    dimension,
    report_digest,
    run_traced,
)
from hostbench.harness import DEFAULT_SEED, HERE, Outcome, Workload
from hostbench.spans import Spans

PLATFORMS = {
    "figures-relational": ("simsql",),
    "figures-dataflow-graph": ("spark", "giraph", "graphlab"),
}
#: (data fraction, iterations) per workload and size.  SimSQL cells are
#: dominated by model-sized tables (vocabulary x states, 100-d moments),
#: not by the sample, so its pass is cut to one iteration on a quarter
#: sample: 20-30 s on a shared 2-vCPU host instead of 61 s at figure size.
SIZES = {
    ("figures-relational", "bench"): (0.25, 1),
    ("figures-dataflow-graph", "bench"): (1.0, None),
    ("figures-relational", "tiny"): (0.25, 1),
    ("figures-dataflow-graph", "tiny"): (0.25, 1),
}


def load_manifest() -> dict:
    return json.loads((HERE / "manifest.json").read_text())


def _tiny(spec) -> bool:
    """The cheap cells a smoke run keeps: Lasso, and 10-d super-vertex GMM."""
    return spec.model == "lasso" or (
        spec.model == "gmm" and spec.variant == "super-vertex"
        and dimension(spec) == 10)


#: Wall seconds of one pass at benchmark size on a shared 2-vCPU host.
PASS_SECONDS = {"figures-relational": 20.0, "figures-dataflow-graph": 12.5}


class FigureWorkload(Workload):
    def __init__(self, name: str, seed: int, size: str = "bench") -> None:
        self.name = name
        self.pass_seconds = PASS_SECONDS[name]
        fraction, iterations = SIZES[(name, size)]
        cells = benchmark_cells(PLATFORMS[name], seed, fraction, iterations)
        self.cells = [spec for spec in cells if size != "tiny" or _tiny(spec)]
        self.digests: dict[str, str] = load_manifest()["cells"]
        # The manifest pins every cell of the default seed at benchmark size.
        self.strict = seed == DEFAULT_SEED and size == "bench"
        self.cache: WorkloadCache | None = None
        self._counters: dict | None = None
        self._events = 0
        self._memory_events = 0

    def setup(self, directory: Path, spans: Spans) -> None:
        self.cache = WorkloadCache(directory / "workloads")
        workloads = {arg.spec.key: arg.spec for spec in self.cells
                     for arg in spec.args if isinstance(arg, WorkloadRef)}
        for key, workload in workloads.items():
            with spans.span("workloads.generate", key):
                self.cache.get(workload)
        self._counters = fastpath.counters()
        self._events = self._memory_events = 0

    def run_pass(self, number: int, spans: Spans) -> list[Outcome]:
        outcomes = []
        for spec in self.cells:
            item = f"{number}/{spec.key}"
            try:
                if not spans.enabled:
                    result = execute_spec(spec, self.cache)
                else:
                    with spans.span("hostbench.item", item):
                        result, tracer = run_traced(spec, self.cache, spans, item)
                    self._events += tracer.summary()["events"]
                    self._memory_events += sum(len(p.memory) for p in tracer.phases)
                digest = stable_digest((report_digest(result), result.loc))
                reason = check_cell(spec, result, self.digests, self.strict)
            except Exception as exc:  # a crashed cell is a failed item
                digest, reason = "", f"{spec.describe()}: {type(exc).__name__}: {exc}"
            outcomes.append(Outcome(item, digest, reason))
        return outcomes

    def layer_metrics(self, untraced, traced, spans) -> dict[str, float]:
        after = fastpath.counters()
        batch = sum(after["batch"].values()) - sum(self._counters["batch"].values())
        declines = (sum(after["decline"].values())
                    - sum(self._counters["decline"].values()))
        return {
            "cluster.tracer.cost_events": float(self._events),
            "cluster.tracer.memory_events": float(self._memory_events),
            "fastpath.batch_calls": float(batch),
            "fastpath.declines": float(declines),
            "fastpath.batch_share": batch / (batch + declines) if batch + declines else 0.0,
        }
