"""GraphLab Bayesian Lasso (paper Section 6.3, Figure 2).

Super-vertex based, as the paper's: data vertices hold (X_i, y_i)
blocks, model vertices hold the 1/tau_j^2 auxiliaries, and a center
vertex holds (beta, sigma^2).  Setup uses ``map_reduce_vertices`` twice
(Gram matrix, then X^T y over the centered response) — the paper notes
this is "a nice way to collect statistics before the simulation begins"
and it is why GraphLab's initialization takes under a minute where
Spark/SimSQL take hours.  Each iteration is two GAS rounds.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import GASProgram, GraphLabEngine, group_rows
from repro.impls.base import Implementation
from repro.kernels import lasso


class _CenterRound(GASProgram):
    """The center vertex gathers tau from the model vertices and the
    residual sum from the data vertices, then resamples beta/sigma."""

    def __init__(self, impl: "GraphLabLassoSuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        if nbr_kind == "model":
            out = np.zeros(self.impl.p + 1)
            out[nbr_id] = nbr_value["tau2_inv"]
            return out
        beta = center_value["state"].beta
        bx, by = nbr_value["x"], nbr_value["yc"]
        residuals = by - bx @ beta
        self.impl.engine.charge(flops=2.0 * bx.size, scale=DATA, label="rss")
        out = np.zeros(self.impl.p + 1)
        out[-1] = float(residuals @ residuals)
        return out

    def sum(self, a, b):
        return a + b

    def apply(self, center_id, center_value, total):
        impl = self.impl
        state: lasso.LassoState = center_value["state"]
        state.tau2_inv = total[: impl.p]
        rss = float(total[-1])
        state.sigma2 = lasso.sample_sigma2(impl.rng, impl.pre.n, state, rss)
        state.beta = lasso.sample_beta(impl.rng, impl.pre, state.tau2_inv,
                                       state.sigma2)
        impl.engine.charge(flops=float(impl.p**3), label="beta-solve")
        return {"state": state}


class _ModelRound(GASProgram):
    """Model vertices gather (beta_j, sigma^2) and resample 1/tau_j^2."""

    def __init__(self, impl: "GraphLabLassoSuperVertex") -> None:
        self.impl = impl

    def gather(self, center_id, center_value, nbr_kind, nbr_id, nbr_value):
        if nbr_kind != "center":
            return None
        state: lasso.LassoState = nbr_value["state"]
        return (float(state.beta[center_id]), state.sigma2)

    def sum(self, a, b):
        return a

    def apply(self, center_id, center_value, total):
        if total is None:
            return center_value
        beta_j, sigma2 = total
        return {"tau2_inv": lasso.sample_tau2_inv_element(
            self.impl.rng, beta_j, sigma2, self.impl.lam)}


class GraphLabLassoSuperVertex(Implementation):
    platform = "graphlab"
    model = "lasso"
    variant = "super-vertex"

    def __init__(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                 cluster_spec: ClusterSpec, tracer: Tracer | None = None,
                 lam: float = lasso.DEFAULT_LAM, block_points: int = 64) -> None:
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.p = self.x.shape[1]
        self.rng = rng
        self.lam = lam
        self.block_points = block_points
        self.engine = GraphLabEngine(cluster_spec, tracer=tracer)
        self.pre: lasso.LassoPrecomputed | None = None
        self.state: lasso.LassoState | None = None

    def initialize(self) -> None:
        engine = self.engine
        n, p = self.x.shape
        blocks_x = group_rows(self.x, max(1, n // self.block_points))
        blocks_y = group_rows(self.y.reshape(-1, 1), max(1, n // self.block_points))
        engine.add_vertex_kind("data", scale=DATA, edge_scale="sv")
        engine.add_vertex_kind("model")
        engine.add_vertex_kind("center")
        y_mean = float(self.y.mean())
        engine.add_vertices("data", {
            b: {"x": bx, "yc": by.ravel() - y_mean}
            for b, (bx, by) in enumerate(zip(blocks_x, blocks_y))
        })
        engine.add_vertices("model", {j: {"tau2_inv": 1.0} for j in range(p)})
        engine.add_vertices("center", {0: {"state": lasso.initial_state(self.rng, p)}})
        engine.add_bipartite_edges("data", "center")
        engine.add_bipartite_edges("model", "center")

        # map_reduce_vertices: local X_i^T X_i per super vertex, summed.
        # The local Gram products are BLAS matrix multiplies; the
        # effective per-FLOP rate is far below scalar C++ steps, so the
        # hint is scaled down accordingly.
        gram = engine.map_reduce(
            "data", lambda vid, v: v["x"].T @ v["x"], lambda a, b: a + b,
            flops_per_vertex=float(self.block_points * p * p) / 8.0, label="gram",
        )
        xty = engine.map_reduce(
            "data", lambda vid, v: v["x"].T @ v["yc"], lambda a, b: a + b,
            flops_per_vertex=float(self.block_points * p), label="xty",
        )
        self.pre = lasso.LassoPrecomputed(xtx=gram, xty=xty, y_mean=y_mean, n=n)
        self.state = self.engine.vertex_value("center", 0)["state"]

    def iterate(self, iteration: int) -> None:
        self.engine.gas(_ModelRound(self), center_kind="model")
        self.engine.gas(_CenterRound(self), center_kind="center")
        self.state = self.engine.vertex_value("center", 0)["state"]
