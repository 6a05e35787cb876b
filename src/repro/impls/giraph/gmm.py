"""Giraph GMM (paper Section 5.4, Figure 1).

The message dance follows the paper exactly, three supersteps per Gibbs
iteration:

1. the cluster-membership (mixture) vertex updates pi from last
   iteration's counts and sends pi_k to the kth cluster vertex;
2. each cluster vertex broadcasts its triple <mu_k, Sigma_k, pi_k> to
   the whole system (no explicit edges — the paper's naming scheme);
3. each data vertex samples its membership from the K received triples
   and sends <1, x_j, (x_j - mu_k)(x_j - mu_k)^T> to the cluster vertex
   it chose; Giraph's combiner aggregates these per machine, and the
   cluster vertices resample their parameters and report counts.

All sampler math comes from :mod:`repro.kernels.gmm`; this module only
maps the kernels onto BSP vertex programs.
"""

from __future__ import annotations

import numpy as np

from repro import fastpath
from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import GiraphEngine
from repro.impls.base import Implementation, declare_scale_limit
from repro.kernels import gmm
from repro.stats import Categorical, MultivariateNormal, sample_categorical_rows
from repro.stats.mvn import ROW_STABLE_MAX_DIM


class GiraphGMM(Implementation):
    platform = "giraph"
    model = "gmm"
    variant = "initial"

    #: Supersteps per Gibbs iteration.
    SUPERSTEPS = 3

    def __init__(self, points: np.ndarray, clusters: int, rng: np.random.Generator,
                 cluster_spec: ClusterSpec, tracer: Tracer | None = None) -> None:
        self.points = np.asarray(points, dtype=float)
        self.clusters = clusters
        self.rng = rng
        self.engine = GiraphEngine(cluster_spec, tracer=tracer)
        self.prior: gmm.GMMPrior | None = None
        self.state: gmm.GMMState | None = None

    def initialize(self) -> None:
        engine, rng = self.engine, self.rng
        n, d = self.points.shape
        engine.add_vertex_kind("data", scale=DATA)
        engine.add_vertex_kind("cluster")
        engine.add_vertex_kind("mixture")
        engine.add_vertices("data", {j: self.points[j] for j in range(n)})

        # Hyperparameters by in-graph aggregation (mean, then variance).
        total = engine.map_reduce_vertices(
            "data", lambda vid, x: (x, 1), lambda a, b: (a[0] + b[0], a[1] + b[1]),
            language=engine.language, flops_per_vertex=float(d), label="hyper-mean",
        )
        hyper_mean = total[0] / total[1]
        sq = engine.map_reduce_vertices(
            "data", lambda vid, x: (x - hyper_mean) ** 2, lambda a, b: a + b,
            language=engine.language, flops_per_vertex=2.0 * d, label="hyper-var",
        )
        variances = sq / n
        self.prior = gmm.GMMPrior(
            mu0=hyper_mean, lambda0=np.diag(1.0 / variances), psi=np.diag(variances),
            v=gmm.df_prior(d), alpha=np.full(self.clusters, gmm.DEFAULT_ALPHA),
        )
        self.state = gmm.initial_state(rng, self.prior)
        engine.add_vertices("cluster", {
            k: {"mu": self.state.means[k], "sigma": self.state.covariances[k],
                "pi": self.state.pi[k], "stats": None, "count": 0.0}
            for k in range(self.clusters)
        })
        engine.add_vertices("mixture", {0: {"pi": self.state.pi.copy(),
                                            "counts": np.zeros(self.clusters)}})
        engine.set_combiner("cluster", gmm.add_triples, batch_fn=gmm.add_triples_batch)
        engine.set_compute("data", self._data_compute,
                           batch_fn=self._data_compute_batch)
        engine.set_compute("cluster", self._cluster_compute)
        engine.set_compute("mixture", self._mixture_compute)

    def iterate(self, iteration: int) -> None:
        if self.variant == "initial":
            # Section 5.5: the point-granularity Giraph codes could not
            # be run at 100 machines; no mechanism is named, so the
            # limit is declared (the super-vertex variants are exempt).
            declare_scale_limit(self.engine.tracer, self.engine.cluster, 0.7,
                                "giraph-point-granularity")
        for _ in range(self.SUPERSTEPS):
            self.engine.superstep()
        self._refresh_state()

    # -- vertex programs ---------------------------------------------------

    def _phase(self, superstep: int) -> int:
        return superstep % self.SUPERSTEPS

    def _mixture_compute(self, ctx, vid, value, messages):
        if self._phase(ctx.superstep) != 0:
            return
        counts = np.zeros(self.clusters)
        for k, count in messages:
            counts[k] = count
        value["counts"] = counts
        value["pi"] = gmm.sample_pi(self.rng, self.prior, counts)
        ctx.charge_flops(self.clusters * 20.0)
        for k in range(self.clusters):
            ctx.send("cluster", k, ("pi", float(value["pi"][k])))

    def _cluster_compute(self, ctx, vid, value, messages):
        phase = self._phase(ctx.superstep)
        if phase == 1:
            for message in messages:
                if isinstance(message, tuple) and message[0] == "pi":
                    value["pi"] = message[1]
            dist = MultivariateNormal(value["mu"], value["sigma"])
            ctx.send_to_kind("data", (vid, value["pi"], value["mu"], dist))
            ctx.charge_flops(float(len(value["mu"]) ** 3))
        elif phase == 0 and ctx.superstep >= self.SUPERSTEPS:
            d = len(value["mu"])
            stats = (0.0, np.zeros(d), np.zeros((d, d)))
            for message in messages:
                if isinstance(message, tuple) and len(message) == 3:
                    stats = gmm.add_triples(stats, message)
            count, sum_x, scatter = stats
            value["count"] = count
            value["mu"], value["sigma"] = gmm.update_cluster(
                self.rng, self.prior, value["sigma"], count, sum_x, scatter,
            )
            ctx.charge_flops(6.0 * d**3)
            ctx.send("mixture", 0, (vid, count))

    def _data_compute(self, ctx, vid, x, messages):
        if self._phase(ctx.superstep) != 2:
            return
        triples = sorted(m for m in messages if isinstance(m, tuple) and len(m) == 4)
        if not triples:
            return
        weights = gmm.scalar_membership_weights(
            x, [np.log(max(pi, 1e-300)) for _, pi, _, _ in triples],
            [dist for _, _, _, dist in triples],
        )
        choice = int(Categorical(weights).sample(self.rng))
        k, _, mu, _ = triples[choice]
        d = x.size
        ctx.charge_flops(self.clusters * (3.0 * d * d + 4.0 * d) + d * d)
        ctx.send("cluster", k, gmm.membership_triple(x, mu))

    def _data_compute_batch(self, ctx, items):
        """All points' membership densities in one stacked evaluation
        and one merged categorical draw.  The broadcast triples are the
        same objects at every vertex, so the weight rows match the
        per-vertex scalar calls bitwise — except past the row-stability
        bound, where the stacked solve reorders and the batch declines."""
        if self._phase(ctx.superstep) != 2:
            return
        live = []
        for vid, x, messages in items:
            triples = sorted(m for m in messages
                             if isinstance(m, tuple) and len(m) == 4)
            if triples:
                live.append((vid, x, triples))
        if not live:
            return
        d = live[0][1].size
        if d > ROW_STABLE_MAX_DIM:
            fastpath.record_decline("giraph.gmm:membership-weights")
            for vid, x, messages in items:
                ctx._current_vertex = vid
                self._data_compute(ctx, vid, x, messages)
            return
        triples = live[0][2]
        log_pis = [np.log(max(t[1], 1e-300)) for t in triples]
        dists = [t[3] for t in triples]
        xs = np.vstack([x for _, x, _ in live])
        choices = sample_categorical_rows(
            self.rng, gmm.batch_membership_weights(xs, log_pis, dists))
        flops = self.clusters * (3.0 * d * d + 4.0 * d) + d * d
        for (vid, x, triples), choice in zip(live, choices):
            ctx._current_vertex = vid
            k, _, mu, _ = triples[int(choice)]
            ctx.charge_flops(flops)
            ctx.send("cluster", k, gmm.membership_triple(x, mu))

    # -- bookkeeping --------------------------------------------------------

    def _refresh_state(self) -> None:
        assert self.state is not None
        for k in range(self.clusters):
            vertex = self.engine.vertex_value("cluster", k)
            self.state.means[k] = vertex["mu"]
            self.state.covariances[k] = vertex["sigma"]
        self.state.pi = self.engine.vertex_value("mixture", 0)["pi"].copy()


class GiraphGMMSuperVertex(GiraphGMM):
    """Figure 1(c): blocks of points per data vertex; one combined
    statistics message per (super vertex, cluster)."""

    variant = "super-vertex"

    def __init__(self, points, clusters, rng, cluster_spec, tracer=None,
                 block_points: int = 64) -> None:
        super().__init__(points, clusters, rng, cluster_spec, tracer)
        self.block_points = block_points

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "sv")

    def initialize(self) -> None:
        from repro.kernels.grouping import group_rows

        # Same wiring as the parent, but data vertices hold blocks.
        engine, rng = self.engine, self.rng
        n, d = self.points.shape
        blocks = group_rows(self.points, max(1, n // self.block_points))
        # Blob payloads and FLOPs scale with the data; message/edge
        # cardinality scales with the super-vertex count.
        engine.add_vertex_kind("data", scale=DATA, edge_scale="sv")
        engine.add_vertex_kind("cluster")
        engine.add_vertex_kind("mixture")
        engine.add_vertices("data", dict(enumerate(blocks)))

        total = engine.map_reduce_vertices(
            "data", lambda vid, block: (block.sum(axis=0), len(block)),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            language="java", flops_per_vertex=float(self.block_points * d),
            label="hyper-mean",
        )
        hyper_mean = total[0] / total[1]
        sq = engine.map_reduce_vertices(
            "data", lambda vid, block: ((block - hyper_mean) ** 2).sum(axis=0),
            lambda a, b: a + b, language="java",
            flops_per_vertex=2.0 * self.block_points * d, label="hyper-var",
        )
        variances = sq / n
        self.prior = gmm.GMMPrior(
            mu0=hyper_mean, lambda0=np.diag(1.0 / variances), psi=np.diag(variances),
            v=gmm.df_prior(d), alpha=np.full(self.clusters, gmm.DEFAULT_ALPHA),
        )
        self.state = gmm.initial_state(rng, self.prior)
        engine.add_vertices("cluster", {
            k: {"mu": self.state.means[k], "sigma": self.state.covariances[k],
                "pi": self.state.pi[k], "stats": None, "count": 0.0}
            for k in range(self.clusters)
        })
        engine.add_vertices("mixture", {0: {"pi": self.state.pi.copy(),
                                            "counts": np.zeros(self.clusters)}})
        engine.set_combiner("cluster", gmm.add_triples, batch_fn=gmm.add_triples_batch)
        engine.set_compute("data", self._data_compute,
                           batch_fn=self._data_compute_batch)
        engine.set_compute("cluster", self._cluster_compute)
        engine.set_compute("mixture", self._mixture_compute)

    def _data_compute(self, ctx, vid, block, messages):
        if self._phase(ctx.superstep) != 2:
            return
        triples = sorted(m for m in messages if isinstance(m, tuple) and len(m) == 4)
        if not triples:
            return
        state = gmm.GMMState(
            pi=np.array([t[1] for t in triples]),
            means=np.vstack([t[2] for t in triples]),
            covariances=np.stack([t[3].cov for t in triples]),
        )
        labels = sample_categorical_rows(
            self.rng, gmm.membership_weights(block, state)
        )
        stats = gmm.sufficient_statistics(block, labels, state)
        d = block.shape[1]
        ctx.charge_flops(len(block) * (self.clusters * (3.0 * d * d + 4.0 * d) + d * d))
        for k in range(self.clusters):
            if stats.counts[k] > 0:
                ctx.send("cluster", k,
                         (stats.counts[k], stats.sums[k], stats.scatters[k]))

    def _data_compute_batch(self, ctx, items):
        """All blocks vstack into one membership evaluation and one
        merged draw; the per-block draw sequence is the merged rows in
        block order, so slicing the labels back out is bitwise."""
        if self._phase(ctx.superstep) != 2:
            return
        live = []
        for vid, block, messages in items:
            triples = sorted(m for m in messages
                             if isinstance(m, tuple) and len(m) == 4)
            if triples:
                live.append((vid, block, triples))
        if not live:
            return
        d = live[0][1].shape[1]
        if d > ROW_STABLE_MAX_DIM:
            fastpath.record_decline("giraph.gmm:membership-weights")
            for vid, block, messages in items:
                ctx._current_vertex = vid
                self._data_compute(ctx, vid, block, messages)
            return
        triples = live[0][2]
        state = gmm.GMMState(
            pi=np.array([t[1] for t in triples]),
            means=np.vstack([t[2] for t in triples]),
            covariances=np.stack([t[3].cov for t in triples]),
        )
        stacked = np.vstack([block for _, block, _ in live])
        labels = sample_categorical_rows(
            self.rng, gmm.membership_weights(stacked, state))
        offset = 0
        for vid, block, _ in live:
            ctx._current_vertex = vid
            block_labels = labels[offset:offset + len(block)]
            offset += len(block)
            stats = gmm.sufficient_statistics(block, block_labels, state)
            ctx.charge_flops(
                len(block) * (self.clusters * (3.0 * d * d + 4.0 * d) + d * d))
            for k in range(self.clusters):
                if stats.counts[k] > 0:
                    ctx.send("cluster", k,
                             (stats.counts[k], stats.sums[k], stats.scatters[k]))
