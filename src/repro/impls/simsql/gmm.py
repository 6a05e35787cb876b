"""SimSQL GMM implementations (paper Section 5.2, Figure 1).

The database schema follows the paper exactly:

    clus_means[i](clus_id, dim_id, dim_value)
    clus_covas[i](clus_id, dim_id1, dim_id2, dim_value)
    clus_prob[i](clus_id, prob)
    membership[i](data_id, clus_id)
    data(data_id, dim_id, data_val)          -- one tuple per coordinate
    cluster(clus_id, pi_prior)

so a d-dimensional point is d tuples and a covariance is d^2 tuples —
the tuple-orientation whose cost the paper measures.  The per-iteration
scatter aggregation joins ``data`` with itself per point and GROUP-BYs
(clus, d1, d2), the "costly GROUP BY" of Section 5.6.

``SimSQLGMMSuperVertex`` replaces the per-point pipeline with one VG
invocation per block of points that outputs *pre-aggregated* statistics
tuples — the Section 5.6 trick that made SimSQL the fastest platform on
this task.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.impls.base import Implementation
from repro.impls.simsql.common import counts_with_zeros, cross, padded_sum, project
from repro.impls.simsql.vgs import GMMSuperVertexVG, MultinomialMembershipVG, PosteriorMeanVG
from repro.kernels import gmm
from repro.kernels.grouping import group_rows
from repro.relational import (
    Alias,
    Database,
    DirichletVG,
    GroupBy,
    InvWishartVG,
    Join,
    MarkovChain,
    Project,
    RandomTable,
    Scan,
    VGOp,
    col,
    lit,
    versioned,
)


class SimSQLGMM(Implementation):
    platform = "simsql"
    model = "gmm"
    variant = "initial"

    def __init__(self, points: np.ndarray, clusters: int, rng: np.random.Generator,
                 cluster_spec: ClusterSpec, tracer: Tracer | None = None,
                 alpha: float = gmm.DEFAULT_ALPHA) -> None:
        self.points = np.asarray(points, dtype=float)
        self.clusters = clusters
        self.rng = rng
        self.alpha = alpha
        self.db = Database(cluster_spec, tracer=tracer, rng=rng)
        self.chain: MarkovChain | None = None

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "d", "d2")

    # ------------------------------------------------------------------

    def initialize(self) -> None:
        n, d = self.points.shape
        db = self.db
        db.create_table(
            "data", ["data_id", "dim_id", "data_val"],
            [(j, i, float(self.points[j, i])) for j in range(n) for i in range(d)],
            scale="data",
        )
        db.create_table("cluster", ["clus_id", "pi_prior"],
                        [(k, self.alpha) for k in range(self.clusters)])
        db.create_table("dims", ["dim_id"], [(i,) for i in range(d)])
        db.create_table("df_prior", ["v"], [(gmm.df_prior(d),)])

        # create view mean_prior(dim_id, dim_val) as
        #   select dim_id, avg(data_val) from data group by dim_id;
        db.create_view("mean_prior", GroupBy(
            Scan("data"), keys=["dim_id"], aggs=[("dim_val", "avg", col("data_val"))],
        ), materialized=True)

        # Per-dimension variance, then the diagonal Psi / Lambda0 frames.
        db.create_view("dim_var", Project(GroupBy(
            Scan("data"), keys=["dim_id"],
            aggs=[("s", "sum", col("data_val")),
                  ("s2", "sum", col("data_val") * col("data_val")),
                  ("n", "count", None)],
        ), [("dim_id", col("dim_id")),
            ("variance", col("s2") / col("n") - (col("s") / col("n")) * (col("s") / col("n")))]),
            materialized=True)

        zero_frame = project(cross(Alias(Scan("dims"), "a"), Alias(Scan("dims"), "b")),
                             ("dim_id1", "a.dim_id"), ("dim_id2", "b.dim_id"))
        diag = project(Scan("dim_var"), ("dim_id1", "dim_id"), ("dim_id2", "dim_id"),
                       ("value", "variance"))
        cov_prior = padded_sum(diag, ["dim_id1", "dim_id2"], "value", zero_frame)
        db.create_view("cov_prior", project(
            cov_prior, ("dim_id1", "k0"), ("dim_id2", "k1"), ("value", "value"),
        ), materialized=True)

        prec_diag = project(Scan("dim_var"), ("dim_id1", "dim_id"),
                            ("dim_id2", "dim_id"),
                            ("value", lit(1.0) / col("variance")))
        prec_prior = padded_sum(prec_diag, ["dim_id1", "dim_id2"], "value", zero_frame)
        db.create_view("prec_prior", project(
            prec_prior, ("dim_id1", "k0"), ("dim_id2", "k1"), ("value", "value"),
        ), materialized=True)

        self.chain = MarkovChain(db, [
            self._clus_prob(), self._clus_means(), self._clus_covas(),
            self._membership(),
        ])
        self.chain.initialize()

    def iterate(self, iteration: int) -> None:
        assert self.chain is not None
        self.chain.step()

    # ------------------------------------------------------------------
    # plan sources (the imputation subclass redirects these to the
    # per-iteration completed data)
    # ------------------------------------------------------------------

    def _member_plan(self, i: int):
        """Membership rows (data_id, clus_id) feeding iteration ``i``."""
        return Scan(versioned("membership", i - 1))

    def _values_plan(self, i: int):
        """Data rows (data_id, dim_id, data_val) feeding iteration ``i``."""
        return Scan("data")

    # ------------------------------------------------------------------
    # random-table definitions
    # ------------------------------------------------------------------

    def _clus_prob(self) -> RandomTable:
        def init(db):
            # create table clus_prob[0] as with diri_res as Dirichlet(
            #   select clus_id, pi_prior from cluster) select ...;
            alpha = project(Scan("cluster"), ("id", "clus_id"), ("a", "pi_prior"))
            return project(VGOp(DirichletVG(), {"alpha": alpha}),
                           ("clus_id", "out_id"), ("prob", "prob"))

        def update(db, i):
            # Dirichlet over alpha + per-cluster membership counts
            # (zero-padded so empty clusters stay in the simplex).
            alpha = counts_with_zeros(
                self._member_plan(i), "clus_id",
                Scan("cluster"), "clus_id", base_expr=col("pi_prior"),
            )
            return project(VGOp(DirichletVG(), {"alpha": project(
                alpha, ("id", "key"), ("a", "value"))}),
                ("clus_id", "out_id"), ("prob", "prob"))

        return RandomTable("clus_prob", init, update)

    def _clus_means(self) -> RandomTable:
        def init(db):
            vg = VGOp(
                self._normal_vg(), {
                    "clusters": Scan("cluster"),
                    "mean": Scan("mean_prior"),
                    "cov": Scan("cov_prior"),
                }, group_key="clus_id",
            )
            return project(vg, ("clus_id", "clus_id"), ("dim_id", "dim_id"),
                           ("dim_value", "value"))

        def update(db, i):
            # Per-(cluster, dim) coordinate sums, zero-padded.
            sums_raw = GroupBy(
                Join(self._member_plan(i), self._values_plan(i),
                     predicate=col("data_id") == col("data_id"),
                     out_scale="data*d"),
                keys=["clus_id", "dim_id"],
                aggs=[("s", "sum", col("data_val"))],
            )
            zeros = project(cross(Scan("cluster"), Scan("dims")),
                            ("clus_id", "clus_id"), ("dim_id", "dim_id"))
            sums = project(
                padded_sum(sums_raw, ["clus_id", "dim_id"], "s", zeros),
                ("clus_id", "k0"), ("dim_id", "k1"), ("value", "value"),
            )
            counts = project(counts_with_zeros(
                self._member_plan(i), "clus_id", Scan("cluster"), "clus_id",
            ), ("clus_id", "key"), ("n", "value"))
            vg = VGOp(
                PosteriorMeanVG(self.rng), {
                    "sums": sums,
                    "count": counts,
                    "cov": Scan(versioned("clus_covas", i - 1)),
                    "prior_mean": Scan("mean_prior"),
                    "prior_prec": Scan("prec_prior"),
                }, group_key="clus_id",
            )
            return project(vg, ("clus_id", "clus_id"), ("dim_id", "dim_id"),
                           ("dim_value", "value"))

        return RandomTable("clus_means", init, update)

    def _clus_covas(self) -> RandomTable:
        def init(db):
            vg = VGOp(
                InvWishartVG(), {
                    "clusters": Scan("cluster"),
                    "scale": Scan("cov_prior"),
                    "df": Scan("df_prior"),
                }, group_key="clus_id",
            )
            return project(vg, ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                           ("dim_id2", "dim_id2"), ("dim_value", "value"))

        def update(db, i):
            means = versioned("clus_means", i - 1)
            # The Section 5.6 "costly GROUP BY": one (x - mu)(x - mu)^T
            # entry per (point, d1, d2), aggregated per cluster.
            m = Alias(self._member_plan(i), "m")
            x1 = Alias(self._values_plan(i), "x1")
            x2 = Alias(self._values_plan(i), "x2")
            mu1 = Alias(Scan(means), "mu1")
            mu2 = Alias(Scan(means), "mu2")
            joined = Join(
                Join(
                    Join(m, x1, predicate=col("m.data_id") == col("x1.data_id"),
                         out_scale="data*d"),
                    x2, predicate=col("m.data_id") == col("x2.data_id"),
                    out_scale="data*d2",
                ),
                cross(mu1, mu2),
                predicate=(col("m.clus_id") == col("mu1.clus_id"))
                & (col("m.clus_id") == col("mu2.clus_id"))
                & (col("x1.dim_id") == col("mu1.dim_id"))
                & (col("x2.dim_id") == col("mu2.dim_id")),
                out_scale="data*d2",
            )
            scatter = GroupBy(
                project(
                    joined, ("clus_id", "m.clus_id"),
                    ("dim_id1", "x1.dim_id"), ("dim_id2", "x2.dim_id"),
                    ("value", (col("x1.data_val") - col("mu1.dim_value"))
                     * (col("x2.data_val") - col("mu2.dim_value"))),
                ),
                keys=["clus_id", "dim_id1", "dim_id2"],
                aggs=[("value", "sum", col("value"))],
            )
            psi_frame = project(
                cross(Scan("cluster"), Scan("cov_prior")),
                ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                ("dim_id2", "dim_id2"), ("value", "value"),
            )
            # scale = Psi + scatter: the Psi frame is the pad, carrying
            # its own values.
            scale = project(
                padded_sum(scatter, ["clus_id", "dim_id1", "dim_id2"], "value",
                           psi_frame, pad_value_col="value"),
                ("clus_id", "k0"), ("dim_id1", "k1"), ("dim_id2", "k2"),
                ("value", "value"),
            )
            df = project(counts_with_zeros(
                self._member_plan(i), "clus_id",
                project(cross(Scan("cluster"), Scan("df_prior")),
                        ("clus_id", "clus_id"), ("pi_prior", "v")),
                "clus_id", base_expr=col("pi_prior"),
            ), ("clus_id", "key"), ("df", "value"))
            vg = VGOp(
                InvWishartVG(), {"scale": scale, "df": df}, group_key="clus_id",
            )
            return project(vg, ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                           ("dim_id2", "dim_id2"), ("dim_value", "value"))

        return RandomTable("clus_covas", init, update)

    def _membership(self) -> RandomTable:
        def plan(db, i):
            vg = VGOp(
                MultinomialMembershipVG(self.rng), {
                    "point": Scan("data"),
                    "means": Scan(versioned("clus_means", i)),
                    "covas": Scan(versioned("clus_covas", i)),
                    "probs": Scan(versioned("clus_prob", i)),
                }, group_key="data_id", out_scale="data",
            )
            return vg  # schema (data_id, clus_id) already

        return RandomTable("membership", lambda db: plan(db, 0),
                           lambda db, i: plan(db, i))

    def _normal_vg(self):
        from repro.relational import NormalVG

        return NormalVG()

    # ------------------------------------------------------------------

    def state(self) -> gmm.GMMState:
        """The current model as arrays (for validation)."""
        assert self.chain is not None
        from repro.impls.simsql.vgs import parse_gmm_model

        means = self.chain.current("clus_means").rows
        covas = self.chain.current("clus_covas").rows
        probs = self.chain.current("clus_prob").rows
        return parse_gmm_model(means, covas, probs)

    def labels(self) -> np.ndarray:
        assert self.chain is not None
        rows = sorted(self.chain.current("membership").rows)
        return np.array([clus for _, clus in rows], dtype=int)


class SimSQLGMMSuperVertex(SimSQLGMM):
    """Figure 1(c): block-of-points VG with in-function pre-aggregation."""

    variant = "super-vertex"

    def __init__(self, points, clusters, rng, cluster_spec, tracer=None,
                 alpha=gmm.DEFAULT_ALPHA, block_points: int = 64) -> None:
        super().__init__(points, clusters, rng, cluster_spec, tracer, alpha)
        self.block_points = block_points

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "sv")

    def initialize(self) -> None:
        n, d = self.points.shape
        db = self.db
        blocks = group_rows(self.points, max(1, n // self.block_points))
        # Cardinality scales with the super-vertex count, not the data
        # (the per-row blob payloads do, which the scan byte estimate
        # under-counts — an accepted, documented approximation).
        db.create_table(
            "data_sv", ["sv_id", "row_id", "block"],
            [(b, 0, block) for b, block in enumerate(blocks)],
            scale="sv",
        )
        # The tuple-per-coordinate table still exists for the priors.
        db.create_table(
            "data", ["data_id", "dim_id", "data_val"],
            [(j, i, float(self.points[j, i])) for j in range(n) for i in range(d)],
            scale="data",
        )
        db.create_table("cluster", ["clus_id", "pi_prior"],
                        [(k, self.alpha) for k in range(self.clusters)])
        db.create_table("dims", ["dim_id"], [(i,) for i in range(d)])
        db.create_table("df_prior", ["v"], [(gmm.df_prior(d),)])
        db.create_view("mean_prior", GroupBy(
            Scan("data"), keys=["dim_id"], aggs=[("dim_val", "avg", col("data_val"))],
        ), materialized=True)
        db.create_view("dim_var", Project(GroupBy(
            Scan("data"), keys=["dim_id"],
            aggs=[("s", "sum", col("data_val")),
                  ("s2", "sum", col("data_val") * col("data_val")),
                  ("n", "count", None)],
        ), [("dim_id", col("dim_id")),
            ("variance", col("s2") / col("n") - (col("s") / col("n")) * (col("s") / col("n")))]),
            materialized=True)
        zero_frame = project(cross(Alias(Scan("dims"), "a"), Alias(Scan("dims"), "b")),
                             ("dim_id1", "a.dim_id"), ("dim_id2", "b.dim_id"))
        diag = project(Scan("dim_var"), ("dim_id1", "dim_id"), ("dim_id2", "dim_id"),
                       ("value", "variance"))
        db.create_view("cov_prior", project(
            padded_sum(diag, ["dim_id1", "dim_id2"], "value", zero_frame),
            ("dim_id1", "k0"), ("dim_id2", "k1"), ("value", "value"),
        ), materialized=True)
        prec_diag = project(Scan("dim_var"), ("dim_id1", "dim_id"),
                            ("dim_id2", "dim_id"),
                            ("value", lit(1.0) / col("variance")))
        db.create_view("prec_prior", project(
            padded_sum(prec_diag, ["dim_id1", "dim_id2"], "value", zero_frame),
            ("dim_id1", "k0"), ("dim_id2", "k1"), ("value", "value"),
        ), materialized=True)

        self.chain = MarkovChain(db, [
            self._clus_prob_sv(), self._clus_means_sv(), self._clus_covas_sv(),
            self._sv_stats(),
        ])
        self.chain.initialize()

    # The super-vertex chain's statistics table replaces membership.

    def _sv_stats(self) -> RandomTable:
        def plan(db, i):
            return VGOp(
                GMMSuperVertexVG(self.rng), {
                    "block": Scan("data_sv"),
                    "means": Scan(versioned("clus_means", i)),
                    "covas": Scan(versioned("clus_covas", i)),
                    "probs": Scan(versioned("clus_prob", i)),
                }, group_key="sv_id", out_scale="sv", flops_scale="data",
            )

        return RandomTable("sv_stats", lambda db: plan(db, 0),
                           lambda db, i: plan(db, i))

    def _clus_prob_sv(self) -> RandomTable:
        def init(db):
            alpha = project(Scan("cluster"), ("id", "clus_id"), ("a", "pi_prior"))
            return project(VGOp(DirichletVG(), {"alpha": alpha}),
                           ("clus_id", "out_id"), ("prob", "prob"))

        def update(db, i):
            stats = versioned("sv_stats", i - 1)
            member_counts = GroupBy(
                project(_select_stat(Scan(stats), "n"),
                        ("clus_id", "clus_id"), ("value", "value")),
                keys=["clus_id"], aggs=[("n", "sum", col("value"))],
            )
            padded = padded_sum(
                project(member_counts, ("clus_id", "clus_id"), ("value", "n")),
                ["clus_id"], "value",
                project(Scan("cluster"), ("clus_id", "clus_id")),
            )
            combined = project(
                Join(padded, Scan("cluster"), predicate=col("k0") == col("clus_id")),
                ("id", "k0"), ("a", col("value") + col("pi_prior")),
            )
            return project(VGOp(DirichletVG(), {"alpha": combined}),
                           ("clus_id", "out_id"), ("prob", "prob"))

        return RandomTable("clus_prob", init, update)

    def _clus_means_sv(self) -> RandomTable:
        def init(db):
            vg = VGOp(self._normal_vg(), {
                "clusters": Scan("cluster"), "mean": Scan("mean_prior"),
                "cov": Scan("cov_prior"),
            }, group_key="clus_id")
            return project(vg, ("clus_id", "clus_id"), ("dim_id", "dim_id"),
                           ("dim_value", "value"))

        def update(db, i):
            stats = versioned("sv_stats", i - 1)
            sums_raw = GroupBy(
                project(_select_stat(Scan(stats), "sum"),
                        ("clus_id", "clus_id"), ("dim_id", "i"), ("value", "value")),
                keys=["clus_id", "dim_id"], aggs=[("s", "sum", col("value"))],
            )
            zeros = project(cross(Scan("cluster"), Scan("dims")),
                            ("clus_id", "clus_id"), ("dim_id", "dim_id"))
            sums = project(padded_sum(sums_raw, ["clus_id", "dim_id"], "s", zeros),
                           ("clus_id", "k0"), ("dim_id", "k1"), ("value", "value"))
            counts_raw = GroupBy(
                project(_select_stat(Scan(stats), "n"),
                        ("clus_id", "clus_id"), ("value", "value")),
                keys=["clus_id"], aggs=[("n", "sum", col("value"))],
            )
            counts = project(padded_sum(
                project(counts_raw, ("clus_id", "clus_id"), ("value", "n")),
                ["clus_id"], "value",
                project(Scan("cluster"), ("clus_id", "clus_id"))),
                ("clus_id", "k0"), ("n", "value"))
            vg = VGOp(PosteriorMeanVG(self.rng), {
                "sums": sums, "count": counts,
                "cov": Scan(versioned("clus_covas", i - 1)),
                "prior_mean": Scan("mean_prior"), "prior_prec": Scan("prec_prior"),
            }, group_key="clus_id")
            return project(vg, ("clus_id", "clus_id"), ("dim_id", "dim_id"),
                           ("dim_value", "value"))

        return RandomTable("clus_means", init, update)

    def _clus_covas_sv(self) -> RandomTable:
        def init(db):
            vg = VGOp(InvWishartVG(), {
                "clusters": Scan("cluster"), "scale": Scan("cov_prior"),
                "df": Scan("df_prior"),
            }, group_key="clus_id")
            return project(vg, ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                           ("dim_id2", "dim_id2"), ("dim_value", "value"))

        def update(db, i):
            stats = versioned("sv_stats", i - 1)
            scatter_raw = GroupBy(
                project(_select_stat(Scan(stats), "scatter"),
                        ("clus_id", "clus_id"), ("dim_id1", "i"),
                        ("dim_id2", "j"), ("value", "value")),
                keys=["clus_id", "dim_id1", "dim_id2"],
                aggs=[("value", "sum", col("value"))],
            )
            psi_frame = project(cross(Scan("cluster"), Scan("cov_prior")),
                                ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                                ("dim_id2", "dim_id2"), ("value", "value"))
            scale = project(
                padded_sum(scatter_raw, ["clus_id", "dim_id1", "dim_id2"],
                           "value", psi_frame, pad_value_col="value"),
                ("clus_id", "k0"), ("dim_id1", "k1"), ("dim_id2", "k2"),
                ("value", "value"),
            )
            counts_raw = GroupBy(
                project(_select_stat(Scan(stats), "n"),
                        ("clus_id", "clus_id"), ("value", "value")),
                keys=["clus_id"], aggs=[("n", "sum", col("value"))],
            )
            df_base = project(cross(Scan("cluster"), Scan("df_prior")),
                              ("clus_id", "clus_id"), ("value", "v"))
            df = project(padded_sum(
                project(counts_raw, ("clus_id", "clus_id"), ("value", "n")),
                ["clus_id"], "value", project(df_base, ("clus_id", "clus_id"))),
                ("clus_id", "k0"), ("partial", "value"))
            df_full = project(
                Join(df, df_base, predicate=col("clus_id") == col("clus_id")),
                ("clus_id", "clus_id"), ("df", col("partial") + col("value")),
            )
            vg = VGOp(InvWishartVG(), {"scale": scale, "df": df_full},
                      group_key="clus_id")
            return project(vg, ("clus_id", "clus_id"), ("dim_id1", "dim_id1"),
                           ("dim_id2", "dim_id2"), ("dim_value", "value"))

        return RandomTable("clus_covas", init, update)

    def labels(self) -> np.ndarray:
        raise NotImplementedError(
            "the super-vertex chain aggregates memberships inside the VG"
        )


def _select_stat(plan, stat: str):
    """Filter the flattened super-vertex statistics rows by kind."""
    from repro.relational import Select

    return Select(plan, col("stat") == lit(stat))
