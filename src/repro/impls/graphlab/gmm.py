"""GraphLab GMM (paper Sections 5.3 and 5.6, Figure 1).

``GraphLabGMM`` is the paper's "pure" implementation: one data vertex
per point in a complete bipartite graph with the cluster vertices (plus
the mixture-proportion vertex connected to every data vertex).  Each
Gibbs iteration is two gather-apply-scatter rounds:

* data vertices gather the model — the engine materializes one model
  view per (data vertex, model vertex) edge, which at paper scale is
  one ~50 KB copy per data point and the reason this code **Fails** at
  every scale the paper tried;
* model vertices gather the data triples and resample.

``GraphLabGMMSuperVertex`` is the Section 5.6 fix: hundreds of
thousands of points per vertex (the paper used 8,000 super vertices at
100 machines), one model copy per super vertex, and the heavy
aggregation pushed down into the super vertices.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import GASProgram, GraphLabEngine, group_rows
from repro.impls.base import Implementation
from repro.kernels import gmm
from repro.stats import Categorical, MultivariateNormal, sample_categorical_rows


class _GatherModel(GASProgram):
    """Round 1: data vertices pull the model and resample memberships."""

    def __init__(self, impl: "GraphLabGMM") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        if nbr_kind == "cluster":
            return [(nbr_id, nbr_value["pi"], nbr_value["mu"], nbr_value["dist"])]
        return []  # the mixture vertex's pi rides with the cluster views

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        return self.impl.apply_data(center_value, total)


class _GatherTriples(GASProgram):
    """Round 2: cluster vertices pull <c, x, scatter> views, resample."""

    def __init__(self, impl: "GraphLabGMM") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        return self.impl.data_view(center_id, nbr_value)

    def sum(self, a, b):
        return gmm.add_triples(a, b)

    def apply(self, center_id, center_value, total):
        return self.impl.apply_cluster(center_id, center_value, total)


class _GatherCounts(GASProgram):
    """Round 3: the mixture-proportion vertex pulls membership counts."""

    def __init__(self, impl: "GraphLabGMM") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        return self.impl.count_view(nbr_value)

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        counts = total if total is not None else np.zeros(self.impl.clusters)
        pi = gmm.sample_pi(self.impl.rng, self.impl.prior, counts)
        for k in range(self.impl.clusters):
            self.impl.engine.vertex_value("cluster", k)["pi"] = float(pi[k])
        return {"pi": pi}


class GraphLabGMM(Implementation):
    platform = "graphlab"
    model = "gmm"
    variant = "initial"

    def __init__(self, points: np.ndarray, clusters: int, rng: np.random.Generator,
                 cluster_spec: ClusterSpec, tracer: Tracer | None = None) -> None:
        self.points = np.asarray(points, dtype=float)
        self.clusters = clusters
        self.rng = rng
        self.engine = GraphLabEngine(cluster_spec, tracer=tracer)
        self.prior: gmm.GMMPrior | None = None
        self.state: gmm.GMMState | None = None

    def initialize(self) -> None:
        engine, rng = self.engine, self.rng
        n, d = self.points.shape
        engine.add_vertex_kind("data", scale=DATA)
        engine.add_vertex_kind("cluster")
        engine.add_vertex_kind("mixture")
        self._load_data()
        engine.add_bipartite_edges("data", "cluster")
        engine.add_bipartite_edges("data", "mixture")

        total = engine.map_reduce(
            "data", self._sum_map, lambda a, b: (a[0] + b[0], a[1] + b[1]),
            flops_per_vertex=float(d), label="hyper-mean",
        )
        hyper_mean = total[0] / total[1]
        self._hyper_mean = hyper_mean
        sq = engine.map_reduce(
            "data", self._sq_map, lambda a, b: a + b,
            flops_per_vertex=2.0 * d, label="hyper-var",
        )
        variances = sq / n
        self.prior = gmm.GMMPrior(
            mu0=hyper_mean, lambda0=np.diag(1.0 / variances), psi=np.diag(variances),
            v=gmm.df_prior(d), alpha=np.full(self.clusters, gmm.DEFAULT_ALPHA),
        )
        self.state = gmm.initial_state(rng, self.prior)
        engine.add_vertices("cluster", {
            k: {"mu": self.state.means[k], "sigma": self.state.covariances[k],
                "pi": float(self.state.pi[k]),
                "dist": MultivariateNormal(self.state.means[k],
                                           self.state.covariances[k])}
            for k in range(self.clusters)
        })
        engine.add_vertices("mixture", {0: {"pi": self.state.pi.copy()}})

    def iterate(self, iteration: int) -> None:
        self.engine.gas(_GatherModel(self), center_kind="data")
        self.engine.gas(_GatherTriples(self), center_kind="cluster")
        self.engine.gas(_GatherCounts(self), center_kind="mixture")
        self._refresh_state()

    # -- per-granularity hooks ----------------------------------------------

    def _load_data(self) -> None:
        self.engine.add_vertices("data", {
            j: {"x": self.points[j], "c": 0, "triple": None}
            for j in range(self.points.shape[0])
        })

    @staticmethod
    def _sum_map(vid, value):
        return (value["x"], 1)

    def _sq_map(self, vid, value):
        return (value["x"] - self._hyper_mean) ** 2

    def apply_data(self, value, views):
        """Resample one data vertex's membership from the gathered model."""
        views = sorted(views or [])
        x = value["x"]
        weights = gmm.scalar_membership_weights(
            x, [np.log(max(pi, 1e-300)) for _, pi, _, _ in views],
            [dist for _, _, _, dist in views],
        )
        k = int(Categorical(weights).sample(self.rng))
        d = x.size
        self.engine.charge(flops=self.clusters * (3.0 * d * d + 4.0 * d) + d * d,
                           scale=DATA, label="membership")
        return {"x": x, "c": k, "triple": gmm.membership_triple(x, views[k][2])}

    def data_view(self, cluster_id, data_value):
        """The triple a cluster vertex gathers from one data vertex."""
        if data_value["c"] != cluster_id or data_value["triple"] is None:
            return None
        return data_value["triple"]

    def count_view(self, data_value):
        counts = np.zeros(self.clusters)
        counts[data_value["c"]] = 1.0
        return counts

    def apply_cluster(self, cluster_id, value, total):
        d = self.prior.dim
        count, sum_x, scatter = total if total is not None else (
            0.0, np.zeros(d), np.zeros((d, d)))
        mu, sigma = gmm.update_cluster(self.rng, self.prior, value["sigma"],
                                       count, sum_x, scatter)
        self.engine.charge(flops=6.0 * d**3, label="cluster-update")
        return {"mu": mu, "sigma": sigma, "pi": value["pi"],
                "dist": MultivariateNormal(mu, sigma)}

    def _refresh_state(self) -> None:
        assert self.state is not None
        for k in range(self.clusters):
            vertex = self.engine.vertex_value("cluster", k)
            self.state.means[k] = vertex["mu"]
            self.state.covariances[k] = vertex["sigma"]
        self.state.pi = self.engine.vertex_value("mixture", 0)["pi"].copy()


class GraphLabGMMSuperVertex(GraphLabGMM):
    """Section 5.6: blocks of points per vertex, one model copy each."""

    variant = "super-vertex"

    def __init__(self, points, clusters, rng, cluster_spec, tracer=None,
                 block_points: int = 64) -> None:
        super().__init__(points, clusters, rng, cluster_spec, tracer)
        self.block_points = block_points

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "sv")

    def _load_data(self) -> None:
        n = self.points.shape[0]
        blocks = group_rows(self.points, max(1, n // self.block_points))
        self.engine.kinds["data"].edge_scale = "sv"
        self.engine.add_vertices("data", {
            b: {"block": block, "labels": None, "stats": None}
            for b, block in enumerate(blocks)
        })

    @staticmethod
    def _sum_map(vid, value):
        return (value["block"].sum(axis=0), len(value["block"]))

    def _sq_map(self, vid, value):
        return ((value["block"] - self._hyper_mean) ** 2).sum(axis=0)

    def apply_data(self, value, views):
        views = sorted(views or [])
        block = value["block"]
        state = gmm.GMMState(
            pi=np.array([v[1] for v in views]),
            means=np.vstack([v[2] for v in views]),
            covariances=np.stack([v[3].cov for v in views]),
        )
        labels = sample_categorical_rows(self.rng,
                                         gmm.membership_weights(block, state))
        stats = gmm.sufficient_statistics(block, labels, state)
        d = block.shape[1]
        self.engine.charge(
            records=len(block) * self.clusters * 3.0,
            flops=len(block) * (self.clusters * (3.0 * d * d + 4.0 * d) + d * d),
            scale=DATA, label="block-membership",
        )
        return {"block": block, "labels": labels, "stats": stats}

    def data_view(self, cluster_id, data_value):
        stats = data_value["stats"]
        if stats is None or stats.counts[cluster_id] == 0:
            return None
        return (stats.counts[cluster_id], stats.sums[cluster_id],
                stats.scatters[cluster_id])

    def count_view(self, data_value):
        stats = data_value["stats"]
        return stats.counts.copy() if stats is not None else np.zeros(self.clusters)
