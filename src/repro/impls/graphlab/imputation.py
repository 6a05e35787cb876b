"""GraphLab Gaussian imputation, super-vertex based (paper Section 9,
Figure 5): the GraphLab GMM rounds with the conditional-normal
imputation performed inside the super vertices' apply phase.
"""

from __future__ import annotations

import numpy as np

from repro import fastpath
from repro.cluster.events import DATA
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.graph import group_rows
from repro.impls.graphlab.gmm import GraphLabGMMSuperVertex
from repro.kernels import gmm
from repro.kernels.imputation import (
    impute_points,
    impute_points_batch,
    sample_marginal_memberships,
)


def _impute_batch(rng, block, mask, labels, state):
    # Module-level so the host-only site record stays out of the
    # class whose lines the paper's LoC column counts.
    fastpath.record_batch("graphlab.apply:imputation")
    return impute_points_batch(rng, block, mask, labels, state)


class GraphLabImputationSuperVertex(GraphLabGMMSuperVertex):
    platform = "graphlab"
    model = "imputation"
    variant = "super-vertex"

    def __init__(self, censored_points: np.ndarray, mask: np.ndarray, clusters: int,
                 rng: np.random.Generator, cluster_spec: ClusterSpec,
                 tracer: Tracer | None = None, block_points: int = 64) -> None:
        censored_points = np.asarray(censored_points, dtype=float)
        self.mask = np.asarray(mask, dtype=bool)
        column_means = np.nanmean(censored_points, axis=0)
        completed = censored_points.copy()
        fill = np.broadcast_to(column_means, completed.shape)
        completed[self.mask] = fill[self.mask]
        super().__init__(completed, clusters, rng, cluster_spec, tracer,
                         block_points=block_points)

    def _load_data(self) -> None:
        n = self.points.shape[0]
        groups = max(1, n // self.block_points)
        blocks = group_rows(self.points, groups)
        masks = group_rows(self.mask, groups)
        self.engine.kinds["data"].edge_scale = "sv"
        self.engine.add_vertices("data", {
            b: {"block": block, "mask": mask, "labels": None, "stats": None}
            for b, (block, mask) in enumerate(zip(blocks, masks))
        })

    def apply_data(self, value, views):
        views = sorted(views or [])
        block, mask = value["block"], value["mask"]
        state = gmm.GMMState(
            pi=np.array([v[1] for v in views]),
            means=np.vstack([v[2] for v in views]),
            covariances=np.stack([v[3].cov for v in views]),
        )
        labels = sample_marginal_memberships(self.rng, block, mask, state)
        impute = _impute_batch if fastpath.enabled() else impute_points
        completed = impute(self.rng, block, mask, labels, state)
        stats = gmm.sufficient_statistics(completed, labels, state)
        d = block.shape[1]
        self.engine.charge(
            records=len(block) * self.clusters * 3.0,
            flops=len(block) * self.clusters * (6.0 * d**3 / 8.0 + 3.0 * d * d),
            scale=DATA, label="block-impute",
        )
        return {"block": completed, "mask": mask, "labels": labels, "stats": stats}

    def completed_points(self) -> np.ndarray:
        data = self.engine.kinds["data"]
        return np.vstack([data.values[b]["block"] for b in sorted(data.values)])
