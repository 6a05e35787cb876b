"""Figure cells for the ``figures-*`` workloads.

The cells are the paper's own: the first 5-machine cell of every
(platform, model, variant, dimension) in
:func:`repro.bench.experiments.figure_specs` order.  The benchmark then
re-derives every seed from its ``--seed`` argument and, for the SimSQL
workload, shrinks the laptop sample so one pass fits in a run.  With the
paper-figure seed and ``fraction=1`` both steps are the identity, so the
cells are exactly the ones ``python -m repro.bench`` runs.

A cell is checked two ways: its simulated Fail/non-Fail verdict must
equal the paper cell it carries, and at recorded (spec key) points the
digest of its report must match the manifest in this directory.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURE_BUILDERS, figure_specs
from repro.bench.experiments import SEED as FIGURE_SEED
from repro.bench.loc import count_source_lines
from repro.bench.paper_data import parse_cell
from repro.bench.pool import WorkloadCache, WorkloadRef, WorkloadSpec
from repro.bench.runner import CellResult, sv_factor, validate_scale_groups
from repro.cluster import PLATFORM_PROFILES, ClusterSpec, Simulator, Tracer
from repro.hashing import stable_digest
from repro.service.execution import bind_factory
from repro.service.spec import ExperimentSpec
from repro.stats import derive_seed

from hostbench.spans import Spans

#: Figure columns whose cell seed is ``derive_seed(SEED, ("figure-column", c))``.
FIGURE_COLUMNS = 4
#: The cluster size of every cell the benchmark runs.
MACHINES = 5
#: Data units per laptop super vertex, per model, as the figures group them.
SV_BLOCK = {"gmm": 64, "lasso": 64, "imputation": 64, "hmm": 16, "lda": 16}
#: Workload parameter that counts laptop data units, per generator.
UNIT_PARAM = {"gmm": "n", "censored-gmm": "n", "lasso": "n",
              "newsgroup": "n_documents", "lda": "n_documents"}
#: Engine module of each platform; per-layer metric names start with it.
ENGINE = {"simsql": "relational", "spark": "dataflow",
          "giraph": "graph.giraph", "graphlab": "graph.graphlab"}


def dimension(spec: ExperimentSpec):
    for arg in spec.args:
        if isinstance(arg, WorkloadRef):
            dim = dict(arg.spec.params).get("dim")
            if dim is not None:
                return dim
    return None


def select_cells(platforms: tuple[str, ...]) -> list[ExperimentSpec]:
    """First 5-machine cell of each (platform, model, variant, dim)."""
    seen = set()
    cells = []
    for name in FIGURE_BUILDERS:
        for spec in figure_specs(name):
            if spec.platform not in platforms or spec.machines != MACHINES:
                continue
            key = (spec.platform, spec.model, spec.variant, dimension(spec))
            if key not in seen:
                seen.add(key)
                cells.append(spec)
    return cells


def seed_map(seed: int) -> dict[int, int]:
    """Figure seed -> benchmark seed, for the workload and every column.

    The identity at ``seed == FIGURE_SEED``.
    """
    mapping = {FIGURE_SEED: seed}
    for column in range(FIGURE_COLUMNS):
        tag = ("figure-column", column)
        mapping[derive_seed(FIGURE_SEED, tag)] = derive_seed(seed, tag)
    return mapping


def derive_cell(spec: ExperimentSpec, seed: int, fraction: float = 1.0,
                iterations: int | None = None) -> ExperimentSpec:
    """``spec`` with every seed derived from ``seed``, every laptop data
    set shrunk to ``fraction`` of its figure size and, if given, its
    iteration count replaced.

    Shrinking keeps the paper's data per machine: the ``data``/``words``
    scale factors grow by the same ratio the sample shrinks, and the
    super-vertex factor is recomputed for the new block count.
    """
    seeds = seed_map(seed)
    if spec.seed not in seeds:
        raise ValueError(f"{spec.describe()}: seed {spec.seed} is not a "
                         f"figure seed")
    ratios = set()
    args = []
    for arg in spec.args:
        if not isinstance(arg, WorkloadRef):
            args.append(arg)
            continue
        params = dict(arg.spec.params)
        unit = UNIT_PARAM[arg.spec.generator]
        old = params[unit]
        params[unit] = max(1, round(old * fraction))
        ratios.add((old, params[unit]))
        workload = WorkloadSpec.make(arg.spec.generator,
                                     seeds[arg.spec.seed], **params)
        args.append(WorkloadRef(workload, arg.attr))
    if len(ratios) != 1:
        raise ValueError(f"{spec.describe()}: expected one data-unit count, "
                         f"got {sorted(ratios)}")
    (old, new), = ratios
    scales = spec.scale_dict()
    if new != old:
        if scales["words"] != scales["data"]:
            raise ValueError(f"{spec.describe()}: words and data scales differ")
        scales["data"] = scales["words"] = scales["data"] * old / new
        if scales["sv"] != 1.0:
            block = SV_BLOCK[spec.model]
            if scales["sv"] != sv_factor(spec.machines, old, block):
                raise ValueError(f"{spec.describe()}: super-vertex scale is "
                                 f"not the figures' {block}-unit blocking")
            scales["sv"] = sv_factor(spec.machines, new, block)
    return ExperimentSpec.make_cell(
        spec.platform, spec.model, spec.variant, args=tuple(args),
        seed=seeds[spec.seed], machines=spec.machines,
        iterations=iterations or spec.iterations, scales=scales,
        label=spec.label,
        paper=spec.paper, **dict(spec.kwargs))


def benchmark_cells(platforms: tuple[str, ...], seed: int,
                    fraction: float = 1.0,
                    iterations: int | None = None) -> list[ExperimentSpec]:
    return [derive_cell(spec, seed, fraction, iterations)
            for spec in select_cells(platforms)]


def report_digest(result: CellResult) -> str:
    """Digest of the simulated report; ``loc`` is left out on purpose."""
    return stable_digest((result.label, result.machines, repr(result.report),
                          result.paper))


def check_cell(spec: ExperimentSpec, result: CellResult,
               digests: dict[str, str], strict: bool = False) -> str:
    """The reason ``result`` is wrong, or "" when it passes.  ``strict``
    makes a cell the manifest does not record a failure too."""
    expected_fail = parse_cell(spec.paper).failed
    if result.report.failed != expected_fail:
        return (f"{spec.describe()}: simulated "
                f"{'Fail' if result.report.failed else 'a run'}, paper "
                f"{spec.paper!r}")
    want = digests.get(spec.key)
    if want is None and strict:
        return f"{spec.describe()}: no recorded digest for {spec.key}"
    if want is not None and want != report_digest(result):
        return f"{spec.describe()}: report digest {report_digest(result)} != {want}"
    return ""


def run_traced(spec: ExperimentSpec, cache: WorkloadCache, spans: Spans,
               item: str) -> tuple[CellResult, Tracer]:
    """One cell through the steps of :func:`repro.bench.pool.run_cell`,
    each call into a layer wrapped in a span."""
    engine = f"{ENGINE[spec.platform]}.{spec.model}"
    cluster = ClusterSpec(machines=spec.machines)
    tracer = Tracer()
    with spans.span("impls.construct", item):
        factory = bind_factory(spec, cache)
        impl = factory(cluster, tracer)
    with spans.span(f"{engine}.initialize", item):
        with tracer.init_phase():
            impl.initialize()
    for i in range(spec.iterations):
        with spans.span(f"{engine}.iterate", item):
            with tracer.iteration_phase(i):
                impl.iterate(i)
    with spans.span("bench.runner.validate", item):
        validate_scale_groups(impl, tracer)
    with spans.span("cluster.simulator.simulate", item):
        report = Simulator(cluster, PLATFORM_PROFILES[impl.platform]).simulate(
            tracer, spec.scale_dict())
    with spans.span("bench.loc.count", item):
        loc = count_source_lines(factory.cls)
    result = CellResult(label=spec.label, machines=spec.machines,
                        report=report, paper=spec.paper, loc=loc)
    return result, tracer
