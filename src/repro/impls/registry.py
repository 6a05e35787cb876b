"""Benchmark-cell registry: (platform, model, variant) -> factory.

:data:`repro.impls.REGISTRY` maps every exported
:class:`~repro.impls.base.Implementation` subclass to its
``(platform, model, variant)`` key.  This module is the bench harness's
access path on top of that table: :func:`cell` resolves a key to its
class with a descriptive error, and :func:`data_factory` builds the
``factory(cluster_spec, tracer) -> Implementation`` callable that
``experiments``, ``wallclock`` and ``faultsweep`` consume.

Every implementation constructor follows the shared shape

    cls(*data_args, rng, cluster_spec, tracer, **kwargs)

so one generic factory serves all cells.  The RNG is constructed
*inside* the factory body — the wall-clock bench calls each factory
once per repeat, and every run must see the same fresh stream.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.impls import REGISTRY
from repro.impls.base import Implementation
from repro.stats import make_rng


#: Cells that run no batch twin: no batch site fires and no decline
#: guard records itself.  A batch twin that does not beat the scalar path
#: on the benchmark's cells is deleted, and a cell left without a site is
#: listed here; :func:`batch_coverage` fails a listed cell that fires a
#: site as well as an unlisted one that stays silent.
NO_BATCH_TWIN: frozenset[tuple[str, str, str]] = frozenset({
    ("graphlab", "gmm", "initial"),
    ("graphlab", "gmm", "super-vertex"),
    ("graphlab", "lasso", "super-vertex"),
    ("simsql", "gmm", "super-vertex"),
    ("simsql", "hmm", "document"),
    ("simsql", "hmm", "super-vertex"),
    ("simsql", "hmm", "word"),
    ("simsql", "lasso", "initial"),
    ("simsql", "lda", "document"),
    ("simsql", "lda", "super-vertex"),
    ("simsql", "lda", "word"),
})


def cells() -> list[tuple[str, str, str]]:
    """All registered (platform, model, variant) keys, sorted."""
    return sorted(REGISTRY)


def cell(platform: str, model: str, variant: str = "initial") -> type:
    """The implementation class registered for one benchmark cell."""
    try:
        return REGISTRY[(platform, model, variant)]
    except KeyError:
        known = ", ".join("/".join(key) for key in cells())
        raise KeyError(
            f"no implementation registered for cell "
            f"{platform}/{model}/{variant}; known cells: {known}"
        ) from None


class BoundFactory:
    """A cell's data bound onto a ``(cluster_spec, tracer)`` factory.

    Deliberately a class, not a closure: instances pickle (the class by
    qualified name, the data arrays by value), so a bound cell can cross
    a process boundary into a ``repro.bench.pool`` worker.  The resolved
    implementation class is exposed as ``.cls`` so callers can report
    source-line counts without re-resolving.
    """

    __slots__ = ("cls", "data", "seed", "rng_maker", "kwargs")

    def __init__(self, cls: type, data: tuple, seed: int,
                 rng_maker: Callable, kwargs: dict) -> None:
        self.cls = cls
        self.data = data
        self.seed = seed
        self.rng_maker = rng_maker
        self.kwargs = kwargs

    def __call__(self, cluster_spec: ClusterSpec, tracer: Tracer) -> Implementation:
        return self.cls(*self.data, self.rng_maker(self.seed),
                        cluster_spec, tracer, **self.kwargs)

    def __repr__(self) -> str:
        return (f"BoundFactory({self.cls.__name__}, seed={self.seed}, "
                f"{len(self.data)} data args)")


def data_factory(platform: str, model: str, variant: str, *data,
                 seed: int, rng_maker: Callable = make_rng,
                 **kwargs) -> BoundFactory:
    """Bind one cell's data onto a ``(cluster_spec, tracer)`` factory.

    ``data`` is passed through positionally (points/documents plus any
    model sizes); ``kwargs`` reach the constructor unchanged.
    """
    return BoundFactory(cell(platform, model, variant), data, seed,
                        rng_maker, kwargs)


def coverage_workloads(seed: int = 20140622) -> dict[str, tuple]:
    """Tiny per-model data args, just big enough that every engine's
    batch sites see multi-record populations."""
    from repro.workloads import (
        censor_beta_coin,
        generate_gmm_data,
        generate_lasso_data,
        newsgroup_style_corpus,
    )

    rng = make_rng(seed)
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


def batch_coverage(machines: int = 3, seed: int = 20140622,
                   iterations: int = 2) -> dict:
    """Execute every registered cell with the fast path on and report
    which batch/decline sites fired.

    The report is *computed*, never hand-counted: each cell runs on a
    tiny workload under ``fastpath.fast_path(True)`` and the per-site
    counters (:func:`repro.fastpath.counters`) are read back.  A cell is
    covered when a batch site fired or an explicit decline guard
    recorded itself exactly when it is not in :data:`NO_BATCH_TWIN` —
    silence from an unlisted cell means it never reached a fast path,
    and a site firing in a listed cell means the entry is stale.
    """
    from repro import fastpath

    data = coverage_workloads(seed)
    report: dict[str, dict] = {}
    for platform, model, variant in cells():
        factory = data_factory(platform, model, variant, *data[model],
                               seed=seed)
        fastpath.reset_counters()
        with fastpath.fast_path(True):
            tracer = Tracer()
            impl = factory(ClusterSpec(machines=machines), tracer)
            with tracer.phase("init"):
                impl.initialize()
            for i in range(iterations):
                with tracer.phase(f"iteration-{i}"):
                    impl.iterate(i)
        counts = fastpath.counters()
        listed = (platform, model, variant) in NO_BATCH_TWIN
        report["/".join((platform, model, variant))] = {
            "batch_sites": sorted(counts["batch"]),
            "decline_sites": sorted(counts["decline"]),
            "no_batch_twin": listed,
            "covered": bool(counts["batch"] or counts["decline"]) != listed,
        }
    return {
        "cells": report,
        "covered": sum(1 for r in report.values() if r["covered"]),
        "no_batch_twin": sum(1 for r in report.values()
                             if r["covered"] and r["no_batch_twin"]),
        "total": len(report),
    }


__all__ = ["NO_BATCH_TWIN", "BoundFactory", "batch_coverage", "cell", "cells",
           "coverage_workloads", "data_factory"]
