"""GraphLab HMM, super-vertex based (paper Section 7.3, Figure 3(b)).

Two vertex kinds: data super vertices (blocks of documents with their
state-assignment vectors) and one state vertex per hidden state holding
(Psi_s, delta_s); the graph is complete bipartite.  Each iteration:

* data vertices gather every state vertex's (Psi_s, delta_s) rows and
  resample their documents' states;
* state vertices gather the per-super-vertex count statistics f/g/h —
  the ~10 MB-per-super-vertex views whose fan-in materialization is
  what kills GraphLab's HMM beyond 5 machines (Section 7.6).

delta_0 is owned by state vertex 0 (a small asymmetry standing in for
GraphLab's global-value facilities).
"""

from __future__ import annotations

import numpy as np

from repro import fastpath
from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import GASProgram, GraphLabEngine, group_items
from repro.impls.base import Implementation, declare_scale_limit
from repro.kernels import hmm


class _ResampleStates(GASProgram):
    def __init__(self, impl: "GraphLabHMMSuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        return [(nbr_id, nbr_value["psi"], nbr_value["delta"],
                 nbr_value.get("delta0"))]

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        impl = self.impl
        rows = sorted(total or [])
        model = hmm.HMMState(
            delta0=next(r[3] for r in rows if r[3] is not None),
            delta=np.vstack([r[2] for r in rows]),
            psi=np.vstack([r[1] for r in rows]),
        )
        values = list(zip(center_value["words"], center_value["states"]))
        if fastpath.enabled() and len(values) > 1:
            fastpath.record_batch("graphlab.apply:hmm")
            updated_list = hmm.resample_documents_batch(impl.rng, values, model,
                                                        impl.iteration)
        else:
            updated_list = [
                hmm.resample_document_states(impl.rng, words, states, model,
                                             impl.iteration)
                for words, states in values
            ]
        counts = hmm.HMMCounts.zeros(impl.states, impl.vocabulary)
        total_words = 0
        for slot, (words, _) in enumerate(values):
            updated = updated_list[slot]
            center_value["states"][slot] = updated
            counts = counts.merge(
                hmm.document_counts(words, updated, impl.states, impl.vocabulary))
            total_words += len(words)
        impl.engine.charge(records=float(total_words * 2),
                           flops=float(total_words * impl.states * 4), scale=DATA,
                           label="state-resample")
        center_value["counts"] = counts
        return center_value


class _UpdateModel(GASProgram):
    def __init__(self, impl: "GraphLabHMMSuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        counts: hmm.HMMCounts = nbr_value.get("counts")
        if counts is None:
            return None
        # Each state vertex gathers its own slice of every super
        # vertex's ~(W + K + K)-float statistics view.
        return (counts.emissions[center_id], counts.transitions[center_id],
                counts.starts)

    def sum(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def apply(self, center_id, center_value, total):
        impl = self.impl
        if total is None:
            return center_value
        emissions, transitions, starts = total
        center_value["psi"] = hmm.resample_emission_row(impl.rng, impl.beta,
                                                        emissions)
        center_value["delta"] = hmm.resample_transition_row(impl.rng, impl.alpha,
                                                            transitions)
        if center_value.get("delta0") is not None:
            center_value["delta0"] = hmm.resample_delta0(impl.rng, impl.alpha,
                                                         starts)
        impl.engine.charge(flops=float(impl.vocabulary * 20), label="model-update")
        return center_value


class GraphLabHMMSuperVertex(Implementation):
    platform = "graphlab"
    model = "hmm"
    variant = "super-vertex"

    def __init__(self, documents: list, vocabulary: int, states: int,
                 rng: np.random.Generator, cluster_spec: ClusterSpec,
                 tracer: Tracer | None = None, alpha: float = hmm.DEFAULT_ALPHA,
                 beta: float = hmm.DEFAULT_BETA, docs_per_block: int = 16) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.states = states
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.docs_per_block = docs_per_block
        self.engine = GraphLabEngine(cluster_spec, tracer=tracer)
        self.model: hmm.HMMState | None = None
        self.iteration = 0

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "sv")

    def initialize(self) -> None:
        engine, rng = self.engine, self.rng
        engine.add_vertex_kind("data", scale=DATA, edge_scale="sv")
        engine.add_vertex_kind("state")
        blocks = group_items(list(range(len(self.documents))),
                             max(1, len(self.documents) // self.docs_per_block))
        # transform_vertices-style initialization of the assignments.
        engine.add_vertices("data", {
            b: {"docs": block,
                "words": [self.documents[d] for d in block],
                "states": [rng.integers(self.states, size=len(self.documents[d]))
                           for d in block],
                "counts": None}
            for b, block in enumerate(blocks)
        })
        self.model = hmm.initial_model(rng, self.states, self.vocabulary,
                                       self.alpha, self.beta)
        engine.add_vertices("state", {
            s: {"psi": self.model.psi[s], "delta": self.model.delta[s],
                "delta0": self.model.delta0 if s == 0 else None}
            for s in range(self.states)
        })
        engine.add_bipartite_edges("data", "state")

    def iterate(self, iteration: int) -> None:
        # Section 7.6: the ~10 MB-per-super-vertex statistics views
        # materializing at the state vertices kill this code beyond five
        # machines; the exact boundary is declared.
        declare_scale_limit(self.engine.tracer, self.engine.cluster, 0.6,
                            "graphlab-hmm-statistics-fan-in", fail_at=20)
        self.iteration = iteration
        self.engine.gas(_ResampleStates(self), center_kind="data")
        self.engine.gas(_UpdateModel(self), center_kind="state")
        self._refresh_model()

    def _refresh_model(self) -> None:
        assert self.model is not None
        for s in range(self.states):
            vertex = self.engine.vertex_value("state", s)
            self.model.psi[s] = vertex["psi"]
            self.model.delta[s] = vertex["delta"]
        self.model.delta0 = self.engine.vertex_value("state", 0)["delta0"]

    def assignments(self) -> list:
        out: dict[int, np.ndarray] = {}
        for vertex in self.engine.kinds["data"].values.values():
            for doc_id, states in zip(vertex["docs"], vertex["states"]):
                out[doc_id] = states
        return [out[d] for d in range(len(self.documents))]
