"""Registry smoke: every registered (platform, model, variant) cell must
instantiate through :mod:`repro.impls.registry` and survive one
``initialize()`` plus one ``iterate()`` under the benchmark runner —
including the runner's scale-group validation, so a drifted
``scale_groups()`` declaration fails here by name.
"""

import pytest

from repro.bench.runner import paper_scales, run_benchmark, validate_scale_groups
from repro.cluster import ClusterSpec, Tracer
from repro.impls import REGISTRY, registry
from repro.impls.base import Implementation
from repro.impls.registry import NO_BATCH_TWIN, cell, cells, data_factory
from repro.stats import make_rng
from repro.workloads import (
    censor_beta_coin,
    generate_gmm_data,
    generate_lasso_data,
    newsgroup_style_corpus,
)

SEED = 20140622
MACHINES = 3


@pytest.fixture(scope="module")
def tiny_data():
    rng = make_rng(SEED)
    gmm = generate_gmm_data(rng, 48, dim=3, clusters=2)
    lasso = generate_lasso_data(rng, 30, p=4)
    corpus = newsgroup_style_corpus(rng, 6, vocabulary=40)
    censored = censor_beta_coin(
        rng, generate_gmm_data(rng, 32, dim=3, clusters=2).points)
    return {
        "gmm": (gmm.points, 2),
        "lasso": (lasso.x, lasso.y),
        "hmm": (corpus.documents, 40, 3),
        "lda": (corpus.documents, 40, 3),
        "imputation": (censored.points, censored.mask, 2),
    }


def test_registry_covers_all_platforms_and_models():
    keys = cells()
    assert len(keys) == len(REGISTRY)
    assert {platform for platform, _, _ in keys} == {
        "spark", "simsql", "graphlab", "giraph"}
    assert {model for _, model, _ in keys} == {
        "gmm", "lasso", "hmm", "lda", "imputation"}


def test_cell_resolves_class_attributes():
    for platform, model, variant in cells():
        cls = cell(platform, model, variant)
        assert (cls.platform, cls.model, cls.variant) == (platform, model, variant)
        assert issubclass(cls, Implementation)


def test_cell_unknown_key_names_known_cells():
    with pytest.raises(KeyError, match="spark/gmm/initial"):
        cell("spark", "gmm", "no-such-variant")


def test_data_factory_builds_fresh_rng_per_call(tiny_data):
    factory = data_factory("spark", "gmm", "initial", *tiny_data["gmm"],
                           seed=SEED)
    spec = ClusterSpec(machines=MACHINES)
    first = factory(spec, Tracer())
    second = factory(spec, Tracer())
    assert first is not second
    # Same seed, fresh stream: both instances draw identically.
    assert first.rng.uniform() == second.rng.uniform()


@pytest.mark.parametrize("platform, model, variant", sorted(REGISTRY))
def test_cell_runs_one_iteration_through_runner(platform, model, variant,
                                                tiny_data):
    factory = data_factory(platform, model, variant, *tiny_data[model],
                           seed=SEED)
    scales = paper_scales(100, MACHINES, 32)
    report = run_benchmark(factory, MACHINES, 1, scales)
    assert report.total_seconds > 0.0


def test_validate_scale_groups_rejects_drifted_declaration(tiny_data):
    factory = data_factory("spark", "gmm", "initial", *tiny_data["gmm"],
                           seed=SEED)
    tracer = Tracer()
    impl = factory(ClusterSpec(machines=MACHINES), tracer)
    with tracer.init_phase():
        impl.initialize()
    with tracer.iteration_phase(0):
        impl.iterate(0)
    impl.scale_groups = lambda: ("data", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        validate_scale_groups(impl, tracer)
    impl.scale_groups = lambda: ()
    with pytest.raises(ValueError, match="undeclared"):
        validate_scale_groups(impl, tracer)


def test_no_batch_twin_names_registered_cells():
    assert NO_BATCH_TWIN <= set(cells())


def test_batch_coverage_reports_stale_and_missing_entries(monkeypatch):
    """The coverage contract is two-sided: a listed cell that fires a
    batch site and an unlisted cell that stays silent both fail."""
    batching = ("spark", "gmm", "initial")
    silent = ("graphlab", "lasso", "super-vertex")
    monkeypatch.setattr(registry, "NO_BATCH_TWIN",
                        (NO_BATCH_TWIN - {silent}) | {batching})
    coverage = registry.batch_coverage()
    missed = sorted(name for name, report in coverage["cells"].items()
                    if not report["covered"])
    assert missed == ["graphlab/lasso/super-vertex", "spark/gmm/initial"]
    assert coverage["cells"]["spark/gmm/initial"]["batch_sites"]
    assert coverage["covered"] == coverage["total"] - 2
