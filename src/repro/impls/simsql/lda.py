"""SimSQL LDA implementations (paper Section 8, Figure 4).

``SimSQLLDAWord`` is the pure word-based sampler only SimSQL could run
(16.5 hours per iteration at scale): one Categorical VG invocation per
word, parameterized by a join that fans the document's theta out to
every word cell.  ``SimSQLLDADocument`` resamples per document;
``SimSQLLDASuperVertex`` per block of documents.  In every variant the
z values exit the VG as tuples and theta/phi are rebuilt by SQL
aggregation + Dirichlet VGs.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.impls.base import Implementation
from repro.impls.simsql.common import cross, padded_sum, project
from repro.impls.simsql.vgs import LDADocumentVG, LDAWordVG
from repro.kernels import lda
from repro.kernels.grouping import group_items
from repro.relational import (
    Alias,
    Database,
    DirichletVG,
    GroupBy,
    Join,
    MarkovChain,
    RandomTable,
    Scan,
    Select,
    VGOp,
    col,
    lit,
    versioned,
)


class _SimSQLLDABase(Implementation):
    platform = "simsql"
    model = "lda"

    def __init__(self, documents: list, vocabulary: int, topics: int,
                 rng: np.random.Generator, cluster_spec: ClusterSpec,
                 tracer: Tracer | None = None, alpha: float = lda.DEFAULT_ALPHA,
                 beta: float = lda.DEFAULT_BETA) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.topics = topics
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.db = Database(cluster_spec, tracer=tracer, rng=rng)
        self.chain: MarkovChain | None = None

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "vocab")

    def _create_frames(self) -> None:
        self.db.create_table("topic_frame", ["topic"],
                             [(t,) for t in range(self.topics)])
        self.db.create_table("vocab", ["word"], [(w,) for w in range(self.vocabulary)])
        self.db.create_table("doc_frame", ["doc_id"],
                             [(j,) for j in range(len(self.documents))])
        self.db.create_table("hyper", ["alpha", "beta"], [(self.alpha, self.beta)])
        rows = [
            (doc_id, pos, int(word))
            for doc_id, words in enumerate(self.documents)
            for pos, word in enumerate(words)
        ]
        self.db.create_table("docs", ["doc_id", "pos", "word"], rows, scale="data")

    def iterate(self, iteration: int) -> None:
        assert self.chain is not None
        self.chain.step()

    # -- model tables shared across granularities ------------------------

    def _z_word_topic(self, i: int):
        """Plan producing (topic, word) rows from the current z."""
        raise NotImplementedError

    def _z_doc_topic(self, i: int):
        """Plan producing (doc_id, topic) rows from the current z."""
        raise NotImplementedError

    def _phi(self) -> RandomTable:
        def init(db):
            alpha_rows = project(
                cross(Scan("topic_frame"), cross(Scan("vocab"), Scan("hyper"))),
                ("topic", "topic"), ("id", "word"), ("a", "beta"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="topic")
            return project(vg, ("topic", "topic"), ("word", "out_id"),
                           ("prob", "prob"))

        def update(db, i):
            counts = GroupBy(self._z_word_topic(i), keys=["topic", "word"],
                             aggs=[("n", "count", None)], out_scale="vocab")
            frame = project(
                cross(Scan("topic_frame"), cross(Scan("vocab"), Scan("hyper"))),
                ("topic", "topic"), ("word", "word"), ("value", "beta"),
            )
            alpha_rows = project(
                padded_sum(project(counts, ("topic", "topic"), ("word", "word"),
                                   ("value", "n")),
                           ["topic", "word"], "value", frame, pad_value_col="value"),
                ("topic", "k0"), ("id", "k1"), ("a", "value"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="topic")
            return project(vg, ("topic", "topic"), ("word", "out_id"),
                           ("prob", "prob"))

        return RandomTable("phi", init, update)

    def _theta(self) -> RandomTable:
        def init(db):
            alpha_rows = project(
                cross(Scan("doc_frame"), cross(Scan("topic_frame"), Scan("hyper"))),
                ("doc_id", "doc_id"), ("id", "topic"), ("a", "alpha"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="doc_id",
                      out_scale="data")
            return project(vg, ("doc_id", "doc_id"), ("topic", "out_id"),
                           ("prob", "prob"))

        def update(db, i):
            counts = GroupBy(self._z_doc_topic(i), keys=["doc_id", "topic"],
                             aggs=[("n", "count", None)], out_scale="data")
            frame = project(
                cross(Scan("doc_frame"), cross(Scan("topic_frame"), Scan("hyper"))),
                ("doc_id", "doc_id"), ("topic", "topic"), ("value", "alpha"),
            )
            alpha_rows = project(
                padded_sum(project(counts, ("doc_id", "doc_id"), ("topic", "topic"),
                                   ("value", "n")),
                           ["doc_id", "topic"], "value", frame,
                           pad_value_col="value"),
                ("doc_id", "k0"), ("id", "k1"), ("a", "value"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="doc_id",
                      out_scale="data")
            return project(vg, ("doc_id", "doc_id"), ("topic", "out_id"),
                           ("prob", "prob"))

        return RandomTable("theta", init, update)

    # -- validation helpers ----------------------------------------------

    def current_phi(self) -> np.ndarray:
        assert self.chain is not None
        phi = np.zeros((self.topics, self.vocabulary))
        for t, w, p in self.chain.current("phi").rows:
            phi[int(t), int(w)] = p
        return phi

    def current_thetas(self) -> np.ndarray:
        assert self.chain is not None
        thetas = np.zeros((len(self.documents), self.topics))
        for j, t, p in self.chain.current("theta").rows:
            thetas[int(j), int(t)] = p
        return thetas


class SimSQLLDADocument(_SimSQLLDABase):
    variant = "document"

    def initialize(self) -> None:
        self._create_frames()
        # Chain order: z from (theta, phi) of the previous iteration,
        # then theta and phi from the fresh z.
        self.chain = MarkovChain(self.db, [
            self._doc_state(), self._theta(), self._phi(),
        ])
        self.chain.initialize()

    def _doc_state(self) -> RandomTable:
        rng = self.rng

        def init(db):
            rows = []
            for doc_id, words in enumerate(self.documents):
                for pos, word in enumerate(words):
                    rows.append((doc_id, "z", pos, int(word),
                                 float(rng.integers(self.topics))))
                theta = rng.dirichlet(np.full(self.topics, self.alpha))
                rows.extend((doc_id, "theta", t, 0, float(p))
                            for t, p in enumerate(theta))
            db.create_table("doc_state_init", ["doc_id", "kind", "a", "b", "value"],
                            rows, scale="data")
            return Scan("doc_state_init")

        def update(db, i):
            theta_rows = project(
                Scan(versioned("theta", i - 1)),
                ("doc_id", "doc_id"), ("topic", "topic"), ("p", "prob"),
            )
            vg = VGOp(
                LDADocumentVG(rng, self.topics, self.vocabulary, self.alpha), {
                    "doc": Scan("docs"),
                    "theta": theta_rows,
                    "phi": Scan(versioned("phi", i - 1)),
                }, group_key="doc_id", out_scale="data",
            )
            return vg  # (doc_id, kind, a, b, value)

        return RandomTable("doc_state", init, update)

    def _theta(self) -> RandomTable:
        # The document VG already drew each document's theta; the theta
        # table is just a selection of those rows (no extra VG query —
        # the whole point of the document granularity).
        def pick(db, i):
            rows = Select(Scan(versioned("doc_state", i)),
                          col("kind") == lit("theta"))
            return project(rows, ("doc_id", "doc_id"), ("topic", "a"),
                           ("prob", "value"))

        return RandomTable("theta", lambda db: pick(db, 0),
                           lambda db, i: pick(db, i))

    def _z_word_topic(self, i: int):
        z = Select(Scan(versioned("doc_state", i)), col("kind") == lit("z"))
        return project(z, ("topic", "value"), ("word", "b"))

    def _z_doc_topic(self, i: int):
        z = Select(Scan(versioned("doc_state", i)), col("kind") == lit("z"))
        return project(z, ("doc_id", "doc_id"), ("topic", "value"))


class SimSQLLDASuperVertex(SimSQLLDADocument):
    """Documents grouped into blocks; one VG invocation per block."""

    variant = "super-vertex"

    def __init__(self, documents, vocabulary, topics, rng, cluster_spec,
                 tracer=None, alpha=lda.DEFAULT_ALPHA, beta=lda.DEFAULT_BETA,
                 docs_per_block: int = 16) -> None:
        super().__init__(documents, vocabulary, topics, rng, cluster_spec,
                         tracer, alpha, beta)
        self.docs_per_block = docs_per_block

    def initialize(self) -> None:
        self._create_frames()
        blocks = group_items(list(range(len(self.documents))),
                             max(1, len(self.documents) // self.docs_per_block))
        self.db.create_table(
            "doc_blocks", ["doc_id", "sv_id"],
            [(d, b) for b, block in enumerate(blocks) for d in block],
            scale="data",
        )
        self.chain = MarkovChain(self.db, [
            self._doc_state(), self._theta(), self._phi(),
        ])
        self.chain.initialize()

    def _doc_state(self) -> RandomTable:
        base = super()._doc_state()

        def update(db, i):
            # Group by super vertex: the VG sees a whole block's docs
            # via a surrogate sv key joined onto the document rows.
            theta_rows = project(
                Join(Scan(versioned("theta", i - 1)), Scan("doc_blocks"),
                     predicate=col("doc_id") == col("doc_id"), out_scale="data"),
                ("sv_id", "sv_id"), ("doc_id", "doc_id"), ("topic", "topic"),
                ("p", "prob"),
            )
            doc_rows = project(
                Join(Scan("docs"), Scan("doc_blocks"),
                     predicate=col("doc_id") == col("doc_id"), out_scale="data"),
                ("sv_id", "sv_id"), ("doc_id", "doc_id"), ("pos", "pos"),
                ("word", "word"),
            )
            vg = VGOp(
                _LDABlockVG(self.rng, self.topics, self.vocabulary, self.alpha), {
                    "doc": doc_rows,
                    "theta": theta_rows,
                    "phi": Scan(versioned("phi", i - 1)),
                }, group_key="sv_id", out_scale="data",
            )
            return project(vg, ("doc_id", "doc_id"), ("kind", "kind"),
                           ("a", "a"), ("b", "b"), ("value", "value"))

        return RandomTable("doc_state", base.init, update)


class SimSQLLDAWord(_SimSQLLDABase):
    """The pure word-based LDA only SimSQL could run (Figure 4(a))."""

    variant = "word"

    def initialize(self) -> None:
        self._create_frames()
        self.chain = MarkovChain(self.db, [
            self._z(), self._theta(), self._phi(),
        ])
        self.chain.initialize()

    def _z(self) -> RandomTable:
        rng = self.rng

        def init(db):
            rows = []
            cell = 0
            for doc_id, words in enumerate(self.documents):
                for pos, word in enumerate(words):
                    rows.append((cell, doc_id, int(word), int(rng.integers(self.topics))))
                    cell += 1
            db.create_table("z_init", ["cell_id", "doc_id", "word", "topic"],
                            rows, scale="data")
            return Scan("z_init")

        def update(db, i):
            prev = Scan(versioned("z", i - 1))
            cell = project(prev, ("cell_id", "cell_id"), ("word", "word"))
            # The data-sized fan-out: theta joined to every word cell.
            theta_rows = project(
                Join(prev, Scan(versioned("theta", i - 1)),
                     predicate=col("doc_id") == col("doc_id"), out_scale="data"),
                ("cell_id", "cell_id"), ("topic", "topic"), ("p", "prob"),
            )
            vg = VGOp(
                LDAWordVG(rng, self.topics, self.vocabulary), {
                    "cell": cell, "theta": theta_rows,
                    "phi": Scan(versioned("phi", i - 1)),
                }, group_key="cell_id", out_scale="data",
            )
            # Re-attach doc/word metadata to the fresh topic draws.
            return project(
                Join(project(vg, ("cell_id", "cell_id"), ("topic", "topic")),
                     Alias(prev, "old"),
                     predicate=col("cell_id") == col("old.cell_id"),
                     out_scale="data"),
                ("cell_id", "cell_id"), ("doc_id", "old.doc_id"),
                ("word", "old.word"), ("topic", "topic"),
            )

        return RandomTable("z", init, update)

    def _z_word_topic(self, i: int):
        return project(Scan(versioned("z", i)), ("topic", "topic"), ("word", "word"))

    def _z_doc_topic(self, i: int):
        return project(Scan(versioned("z", i)), ("doc_id", "doc_id"),
                       ("topic", "topic"))


class _LDABlockVG(LDADocumentVG):
    """Block-of-documents variant of the LDA document VG."""

    name = "lda_super_vertex"
    output_columns = ("doc_id", "kind", "a", "b", "value")

    def invoke(self, rng, params):
        phi = self._cache.get(params["phi"], lambda: self._parse_phi(params["phi"]))
        docs: dict[int, list[tuple]] = {}
        for doc_id, pos, word in self._require(params, "doc"):
            docs.setdefault(int(doc_id), []).append((int(pos), int(word)))
        thetas: dict[int, list[tuple]] = {}
        for doc_id, topic, p in self._require(params, "theta"):
            thetas.setdefault(int(doc_id), []).append((int(topic), float(p)))
        out = []
        for doc_id in sorted(docs):
            rows = sorted(docs[doc_id])
            words = np.array([w for _, w in rows])
            theta = np.empty(self.topics)
            for topic, p in thetas[doc_id]:
                theta[topic] = p
            z, new_theta, _ = lda.resample_document(self.rng, words, theta, phi,
                                                    self.alpha)
            out.extend((doc_id, "z", pos, int(w), float(t))
                       for pos, (w, t) in enumerate(zip(words, z)))
            out.extend((doc_id, "theta", t, 0, float(p))
                       for t, p in enumerate(new_theta))
        return out

    def flops_per_invocation(self, params):
        return float(len(params.get("doc", ())) * self.topics * 4)
