"""GraphLab-style gather-apply-scatter (GAS) engine.

The defining behaviours from the paper (Sections 4.3, 5.6, 7.6):

* C++ speed: vertex-program work is charged at C++ rates.
* **The engine owns data movement.**  During gather, every edge's
  contribution is materialized by the engine — "GraphLab seems to
  simultaneously materialize one 50KB copy of the model for each data
  point, which quickly exhausts the available memory and the computation
  fails."  The gather materialization here is a non-spillable memory
  event proportional to the number of gathered edges times the
  contribution size; on a complete bipartite data-model graph at paper
  scale this is exactly the OOM the paper reports, and the super-vertex
  construction fixes it by dividing the edge count by the grouping
  factor.
* ``map_reduce_vertices`` / ``transform_vertices`` for setup sweeps
  (used by the Bayesian Lasso code to build the Gram matrix).

Asynchrony: the paper's benchmark graphs are bipartite and effectively
synchronous (Section 10 notes none of the models "naturally map to a
graph"), so the engine runs round-based GAS; the pull-based semantics —
each center vertex reads its neighbors' exported views — are preserved.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.cluster.costmodel import combine_scales
from repro.cluster.events import FIXED, Kind as EventKind, Site
from repro.cluster.machine import ClusterSpec
from repro.cluster.sizes import estimate_bytes
from repro.cluster.tracer import Tracer
from repro.graph.graph import GraphEngine


class GASProgram:
    """A vertex program for one gather-apply-scatter round.

    ``gather`` is invoked once per (center, neighbor) edge and returns a
    contribution (or ``None`` to skip); ``sum`` folds contributions;
    ``apply`` consumes the folded total and returns the center vertex's
    new value.  The default scatter merely signals neighbors, as in the
    paper's GMM code.
    """

    def gather(self, center_id: Hashable, center_value, nbr_kind: str,
               nbr_id: Hashable, nbr_value):
        raise NotImplementedError

    def sum(self, a, b):
        raise NotImplementedError

    def apply(self, center_id: Hashable, center_value, total):
        raise NotImplementedError


class GraphLabEngine(GraphEngine):
    """Round-based GAS engine with per-edge gather materialization."""

    language = "cpp"

    def __init__(self, cluster: ClusterSpec, tracer: Tracer | None = None) -> None:
        super().__init__(cluster, tracer)
        self._bipartite: list[tuple[str, str]] = []
        self._explicit: dict[tuple[str, str], dict[Hashable, list[Hashable]]] = {}

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------

    def add_bipartite_edges(self, kind_a: str, kind_b: str) -> None:
        """Complete bipartite edges between two kinds (the paper's GMM
        graph: data vertices x cluster vertices)."""
        self._kind(kind_a)
        self._kind(kind_b)
        self._bipartite.append((kind_a, kind_b))

    def add_edges(self, kind_a: str, kind_b: str,
                  pairs: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Explicit edges between two kinds (sparse structures)."""
        self._kind(kind_a)
        self._kind(kind_b)
        forward = self._explicit.setdefault((kind_a, kind_b), {})
        backward = self._explicit.setdefault((kind_b, kind_a), {})
        for a, b in pairs:
            forward.setdefault(a, []).append(b)
            backward.setdefault(b, []).append(a)

    def neighbor_kinds(self, kind: str) -> list[str]:
        out = []
        for a, b in self._bipartite:
            if a == kind:
                out.append(b)
            elif b == kind:
                out.append(a)
        for (a, b) in self._explicit:
            if a == kind and b not in out:
                out.append(b)
        return out

    def neighbors(self, kind: str, vertex: Hashable, nbr_kind: str) -> Iterable[Hashable]:
        if (kind, nbr_kind) in self._explicit:
            return self._explicit[(kind, nbr_kind)].get(vertex, [])
        if (kind, nbr_kind) in self._bipartite or (nbr_kind, kind) in self._bipartite:
            return self._kind(nbr_kind).values.keys()
        return []

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def gas(self, program: GASProgram, center_kind: str) -> None:
        """Run one gather-apply-scatter round over ``center_kind``."""
        population = self._kind(center_kind)
        self.tracer.emit(EventKind.JOB, records=1, scale=FIXED, label="gas-round")

        gathered_edges = 0
        gathered_bytes = 0.0
        contribution_sample: float | None = None
        edge_scale = population.edge_scale
        new_values = {}
        for center, value in population.values.items():
            contributions = []
            for nbr_kind in self.neighbor_kinds(center_kind):
                nbr_population = self._kind(nbr_kind)
                edge_scale = combine_scales(population.edge_scale,
                                            nbr_population.edge_scale)
                for nbr in self.neighbors(center_kind, center, nbr_kind):
                    contribution = program.gather(
                        center, value, nbr_kind, nbr, nbr_population.values[nbr]
                    )
                    if contribution is None:
                        continue
                    gathered_edges += 1
                    if contribution_sample is None:
                        contribution_sample = estimate_bytes(contribution)
                    gathered_bytes += contribution_sample
                    contributions.append(contribution)
            total = contributions[0] if contributions else None
            for contribution in contributions[1:]:
                total = program.sum(total, contribution)
            new_values[center] = program.apply(center, value, total)

        self.tracer.emit(
            EventKind.COMPUTE, records=gathered_edges, language=self.language,
            scale=edge_scale, label=f"gather:{center_kind}",
        )
        # The engine materializes every edge's gather contribution — the
        # paper's GraphLab failure mechanism.  Not spillable.
        self.tracer.materialize(
            bytes=gathered_bytes, objects=gathered_edges, scale=edge_scale,
            site=Site.CLUSTER, label=f"gather-materialization:{center_kind}",
        )
        # Contributions that cross machine boundaries ride the network.
        remote_fraction = 1.0 - 1.0 / self.cluster.machines
        self.tracer.emit(
            EventKind.SHUFFLE, records=gathered_edges, bytes=gathered_bytes * remote_fraction,
            language=self.language, scale=edge_scale, label=f"gather-net:{center_kind}",
        )
        self.tracer.emit(
            EventKind.COMPUTE, records=len(population), language=self.language,
            scale=population.scale, label=f"apply:{center_kind}",
        )
        # Scatter: signal adjacent vertices that apply completed.
        self.tracer.emit(
            EventKind.MESSAGE, records=gathered_edges, bytes=gathered_edges * 16.0,
            language=self.language, scale=edge_scale, label=f"scatter:{center_kind}",
        )
        population.values = new_values

    def charge(self, records: float = 0.0, flops: float = 0.0,
               scale: str = FIXED, label: str = "") -> None:
        """Report bulk work done inside a vertex program (vectorized
        math in a super vertex, hand-coded C++ loops)."""
        self.tracer.emit(EventKind.COMPUTE, records=records, flops=flops,
                         language=self.language, scale=scale, label=label or "program-bulk")

    def transform(self, kind: str, fn: Callable, flops_per_vertex: float = 0.0,
                  label: str = "") -> None:
        """GraphLab's ``transform_vertices`` at C++ rates."""
        self.transform_vertices(kind, fn, self.language, flops_per_vertex, label)

    def map_reduce(self, kind: str, map_fn: Callable, reduce_fn: Callable,
                   flops_per_vertex: float = 0.0, label: str = ""):
        """GraphLab's ``map_reduce_vertices`` at C++ rates."""
        return self.map_reduce_vertices(kind, map_fn, reduce_fn, self.language,
                                        flops_per_vertex, label)
