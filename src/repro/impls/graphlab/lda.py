"""GraphLab LDA, super-vertex based (paper Section 8, Figure 4(b)).

Identical structure to the GraphLab HMM, with topic vertices instead of
state vertices and a model five times larger — the per-super-vertex
statistics views are topic-by-vocabulary, and their fan-in
materialization is why the paper's GraphLab LDA only ran on five
machines (39:27 per iteration) and failed beyond.
"""

from __future__ import annotations

import numpy as np

from repro import fastpath
from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import GASProgram, GraphLabEngine, group_items
from repro.impls.base import Implementation, declare_scale_limit
from repro.kernels import lda


class _ResampleTopics(GASProgram):
    def __init__(self, impl: "GraphLabLDASuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        return [(nbr_id, nbr_value["phi"])]

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        impl = self.impl
        rows = sorted(total or [])
        phi = np.vstack([row for _, row in rows])
        totals = np.zeros((impl.topics, impl.vocabulary))
        total_words = 0
        values = list(zip(center_value["words"], center_value["thetas"]))
        if fastpath.enabled() and len(values) > 1:
            fastpath.record_batch("graphlab.apply:lda")
            resampled = lda.resample_documents_batch(impl.rng, values, phi,
                                                     impl.alpha)
        else:
            resampled = [
                lda.resample_document(impl.rng, words, theta, phi,
                                      impl.alpha)[:2]
                for words, theta in values
            ]
        for slot, ((words, _), (z, new_theta)) in enumerate(
                zip(values, resampled)):
            center_value["thetas"][slot] = new_theta
            np.add.at(totals, (z, words), 1.0)
            total_words += len(words)
        impl.engine.charge(records=float(total_words * 3),
                           flops=float(total_words * impl.topics * 4), scale=DATA,
                           label="topic-resample")
        center_value["counts"] = totals
        return center_value


class _UpdatePhi(GASProgram):
    def __init__(self, impl: "GraphLabLDASuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        counts = nbr_value.get("counts")
        if counts is None:
            return None
        return counts[center_id]

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        impl = self.impl
        if total is None:
            return center_value
        center_value["phi"] = lda.resample_phi_row(impl.rng, impl.beta, total)
        impl.engine.charge(flops=float(impl.vocabulary * 20), label="phi-update")
        return center_value


class GraphLabLDASuperVertex(Implementation):
    platform = "graphlab"
    model = "lda"
    variant = "super-vertex"

    def __init__(self, documents: list, vocabulary: int, topics: int,
                 rng: np.random.Generator, cluster_spec: ClusterSpec,
                 tracer: Tracer | None = None, alpha: float = lda.DEFAULT_ALPHA,
                 beta: float = lda.DEFAULT_BETA, docs_per_block: int = 16) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.topics = topics
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.docs_per_block = docs_per_block
        self.engine = GraphLabEngine(cluster_spec, tracer=tracer)
        self.phi: np.ndarray | None = None

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "sv")

    def initialize(self) -> None:
        engine, rng = self.engine, self.rng
        engine.add_vertex_kind("data", scale=DATA, edge_scale="sv")
        engine.add_vertex_kind("topic")
        thetas = lda.initial_thetas(rng, len(self.documents), self.topics, self.alpha)
        blocks = group_items(list(range(len(self.documents))),
                             max(1, len(self.documents) // self.docs_per_block))
        engine.add_vertices("data", {
            b: {"docs": block,
                "words": [self.documents[d] for d in block],
                "thetas": [thetas[d] for d in block],
                "counts": None}
            for b, block in enumerate(blocks)
        })
        self.phi = lda.initial_phi(rng, self.topics, self.vocabulary, self.beta)
        engine.add_vertices("topic", {
            t: {"phi": self.phi[t]} for t in range(self.topics)
        })
        engine.add_bipartite_edges("data", "topic")

    def iterate(self, iteration: int) -> None:
        # Like the GraphLab HMM but with a five-times-larger model: the
        # paper ran it only on five machines (Section 8.2).
        declare_scale_limit(self.engine.tracer, self.engine.cluster, 0.6,
                            "graphlab-lda-statistics-fan-in", fail_at=20)
        self.engine.gas(_ResampleTopics(self), center_kind="data")
        self.engine.gas(_UpdatePhi(self), center_kind="topic")
        for t in range(self.topics):
            self.phi[t] = self.engine.vertex_value("topic", t)["phi"]

    def thetas(self) -> np.ndarray:
        out: dict[int, np.ndarray] = {}
        for vertex in self.engine.kinds["data"].values.values():
            for doc_id, theta in zip(vertex["docs"], vertex["thetas"]):
                out[doc_id] = theta
        return np.vstack([out[d] for d in range(len(self.documents))])
