"""SimSQL HMM implementations (paper Section 7.2, Figure 3).

``SimSQLHMMWord`` is the paper's featured word-based code — the only
word-based HMM any platform could run.  Its ``words`` table stores, with
every position, its *predecessor and successor cell ids* explicitly:
this is the paper's ``nextPos`` workaround for the SimSQL optimizer
quirk, which turns ``t1.curPos = t2.curPos + 1`` into a cross product
but handles ``t1.prev_cell = t2.cell_id`` as an equi-join.  The state
update is a multi-way join parameterizing one Categorical VG invocation
per word of the active parity.

``SimSQLHMMDocument`` resamples a document per VG invocation (the y
values still exit as tuples to be aggregated in SQL — Section 7.6);
``SimSQLHMMSuperVertex`` batches many documents per invocation but the
per-word tuple output and SQL aggregation remain, which is why the
paper's SV SimSQL HMM still needs two hours per iteration while Giraph
needs 2.5 minutes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import Tracer
from repro.impls.base import Implementation
from repro.impls.simsql.common import cross, padded_sum, project
from repro.impls.simsql.vgs import HMMDocumentVG, HMMSuperVertexVG, HMMWordVG
from repro.kernels import hmm
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
    Union,
    VGOp,
    col,
    lit,
    mod,
    versioned,
)


class _SimSQLHMMBase(Implementation):
    """Shared setup: model tables, frames, Dirichlet model updates."""

    platform = "simsql"
    model = "hmm"

    def __init__(self, documents: list, vocabulary: int, states: int,
                 rng: np.random.Generator, cluster_spec: ClusterSpec,
                 tracer: Tracer | None = None, alpha: float = hmm.DEFAULT_ALPHA,
                 beta: float = hmm.DEFAULT_BETA) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.states = states
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.db = Database(cluster_spec, tracer=tracer, rng=rng)
        self.chain: MarkovChain | None = None
        self._iteration = 0

    def scale_groups(self) -> tuple[str, ...]:
        return ("data", "vocab")

    def _create_frames(self) -> None:
        self.db.create_table("state_frame", ["state"],
                             [(s,) for s in range(self.states)])
        self.db.create_table("vocab", ["word"], [(w,) for w in range(self.vocabulary)])
        self.db.create_table("hyper", ["alpha", "beta"], [(self.alpha, self.beta)])

    def iterate(self, iteration: int) -> None:
        assert self.chain is not None
        self._iteration = iteration
        self.chain.step()

    # -- model random tables (shared by all three granularities) --------

    def _state_word_counts(self, i: int):
        """Plan producing (state, word) occurrence rows for iteration i."""
        raise NotImplementedError

    def _transition_counts(self, i: int):
        """Plan producing (state, next_state) occurrence rows."""
        raise NotImplementedError

    def _start_counts(self, i: int):
        """Plan producing (state,) start-occurrence rows."""
        raise NotImplementedError

    def _emits(self) -> RandomTable:
        def init(db):
            alpha_rows = project(
                cross(Scan("state_frame"), cross(Scan("vocab"), Scan("hyper"))),
                ("state", "state"), ("id", "word"), ("a", "beta"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="state")
            return project(vg, ("state", "state"), ("word", "out_id"),
                           ("prob", "prob"))

        def update(db, i):
            counts = GroupBy(self._state_word_counts(i),
                             keys=["state", "word"],
                             aggs=[("n", "count", None)], out_scale="vocab")
            frame = project(
                cross(Scan("state_frame"), cross(Scan("vocab"), Scan("hyper"))),
                ("state", "state"), ("word", "word"), ("value", "beta"),
            )
            alpha_rows = project(
                padded_sum(project(counts, ("state", "state"), ("word", "word"),
                                   ("value", "n")),
                           ["state", "word"], "value", frame, pad_value_col="value"),
                ("state", "k0"), ("id", "k1"), ("a", "value"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="state")
            return project(vg, ("state", "state"), ("word", "out_id"),
                           ("prob", "prob"))

        return RandomTable("emits", init, update)

    def _trans(self) -> RandomTable:
        def init(db):
            alpha_rows = project(
                cross(Alias(Scan("state_frame"), "s1"),
                      cross(Alias(Scan("state_frame"), "s2"), Scan("hyper"))),
                ("state", "s1.state"), ("id", "s2.state"), ("a", "alpha"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="state")
            return project(vg, ("state", "state"), ("next_state", "out_id"),
                           ("prob", "prob"))

        def update(db, i):
            counts = GroupBy(self._transition_counts(i),
                             keys=["state", "next_state"],
                             aggs=[("n", "count", None)])
            frame = project(
                cross(Alias(Scan("state_frame"), "s1"),
                      cross(Alias(Scan("state_frame"), "s2"), Scan("hyper"))),
                ("state", "s1.state"), ("next_state", "s2.state"), ("value", "alpha"),
            )
            alpha_rows = project(
                padded_sum(project(counts, ("state", "state"),
                                   ("next_state", "next_state"), ("value", "n")),
                           ["state", "next_state"], "value", frame,
                           pad_value_col="value"),
                ("state", "k0"), ("id", "k1"), ("a", "value"),
            )
            vg = VGOp(DirichletVG(), {"alpha": alpha_rows}, group_key="state")
            return project(vg, ("state", "state"), ("next_state", "out_id"),
                           ("prob", "prob"))

        return RandomTable("trans", init, update)

    def _starts(self) -> RandomTable:
        def init(db):
            alpha_rows = project(cross(Scan("state_frame"), Scan("hyper")),
                                 ("id", "state"), ("a", "alpha"))
            return project(VGOp(DirichletVG(), {"alpha": alpha_rows}),
                           ("state", "out_id"), ("prob", "prob"))

        def update(db, i):
            counts = GroupBy(self._start_counts(i), keys=["state"],
                             aggs=[("n", "count", None)])
            frame = project(cross(Scan("state_frame"), Scan("hyper")),
                            ("state", "state"), ("value", "alpha"))
            alpha_rows = project(
                padded_sum(project(counts, ("state", "state"), ("value", "n")),
                           ["state"], "value", frame, pad_value_col="value"),
                ("id", "k0"), ("a", "value"),
            )
            return project(VGOp(DirichletVG(), {"alpha": alpha_rows}),
                           ("state", "out_id"), ("prob", "prob"))

        return RandomTable("starts", init, update)

    # -- validation helpers ---------------------------------------------

    def current_model(self) -> hmm.HMMState:
        assert self.chain is not None
        delta0 = np.zeros(self.states)
        for s, p in self.chain.current("starts").rows:
            delta0[int(s)] = p
        delta = np.zeros((self.states, self.states))
        for s, s2, p in self.chain.current("trans").rows:
            delta[int(s), int(s2)] = p
        psi = np.zeros((self.states, self.vocabulary))
        for s, w, p in self.chain.current("emits").rows:
            psi[int(s), int(w)] = p
        return hmm.HMMState(delta0=delta0, delta=delta, psi=psi)


class SimSQLHMMDocument(_SimSQLHMMBase):
    variant = "document"

    def initialize(self) -> None:
        db = self.db
        self._create_frames()
        self.chain = MarkovChain(db, [
            self._states(), self._emits(), self._trans(), self._starts(),
        ])
        self.chain.initialize()

    def _states(self) -> RandomTable:
        rng, states_k = self.rng, self.states

        def init(db):
            rows = []
            for doc_id, words in enumerate(self.documents):
                for pos, word in enumerate(words):
                    rows.append((doc_id, pos, int(word), int(rng.integers(states_k))))
            db.create_table("word_init", ["doc_id", "pos", "word", "state"],
                            rows, scale="data")
            return Scan("word_init")

        def update(db, i):
            vg = VGOp(
                HMMDocumentVG(rng, states_k, self.vocabulary,
                              lambda: self._iteration), {
                    "doc": Scan(versioned("states", i - 1)),
                    "delta0": Scan(versioned("starts", i - 1)),
                    "delta": Scan(versioned("trans", i - 1)),
                    "psi": Scan(versioned("emits", i - 1)),
                }, group_key="doc_id", out_scale="data",
            )
            return vg  # (doc_id, pos, word, state)

        return RandomTable("states", init, update)

    def _state_word_counts(self, i: int):
        return project(Scan(versioned("states", i)), ("state", "state"),
                       ("word", "word"))

    def _transition_counts(self, i: int):
        s1 = Alias(Scan(versioned("states", i)), "s1")
        s2 = Alias(Scan(versioned("states", i)), "s2")
        joined = Join(
            project(s1, ("doc_id", "s1.doc_id"), ("next_pos", col("s1.pos") + lit(1)),
                    ("state", "s1.state")),
            project(s2, ("doc_id", "s2.doc_id"), ("pos", "s2.pos"),
                    ("state2", "s2.state")),
            predicate=(col("doc_id") == col("doc_id"))
            & (col("next_pos") == col("pos")),
            out_scale="data",
        )
        return project(joined, ("state", "state"), ("next_state", "state2"))

    def _start_counts(self, i: int):
        return project(Select(Scan(versioned("states", i)), col("pos") == lit(0)),
                       ("state", "state"))


class SimSQLHMMSuperVertex(SimSQLHMMDocument):
    variant = "super-vertex"

    def __init__(self, documents, vocabulary, states, rng, cluster_spec,
                 tracer=None, alpha=hmm.DEFAULT_ALPHA, beta=hmm.DEFAULT_BETA,
                 docs_per_block: int = 16) -> None:
        super().__init__(documents, vocabulary, states, rng, cluster_spec,
                         tracer, alpha, beta)
        self.docs_per_block = docs_per_block

    def _states(self) -> RandomTable:
        rng, states_k = self.rng, self.states
        blocks = group_items(list(range(len(self.documents))),
                             max(1, len(self.documents) // self.docs_per_block))
        doc_to_block = {d: b for b, block in enumerate(blocks) for d in block}

        def init(db):
            rows = []
            for doc_id, words in enumerate(self.documents):
                for pos, word in enumerate(words):
                    rows.append((doc_to_block[doc_id], doc_id, pos, int(word),
                                 int(rng.integers(states_k))))
            db.create_table("word_init",
                            ["sv_id", "doc_id", "pos", "word", "state"],
                            rows, scale="data")
            return Scan("word_init")

        def update(db, i):
            vg = VGOp(
                HMMSuperVertexVG(rng, states_k, self.vocabulary,
                                 lambda: self._iteration), {
                    "doc": Scan(versioned("states", i - 1)),
                    "delta0": Scan(versioned("starts", i - 1)),
                    "delta": Scan(versioned("trans", i - 1)),
                    "psi": Scan(versioned("emits", i - 1)),
                }, group_key="sv_id", out_scale="data",
            )
            return vg  # (sv_id, doc_id, pos, word, state)

        return RandomTable("states", init, update)


class SimSQLHMMWord(_SimSQLHMMBase):
    """The word-based HMM with the paper's nextPos equi-join workaround."""

    variant = "word"

    def initialize(self) -> None:
        db = self.db
        self._create_frames()
        # Static word-position table with explicit neighbor cell ids
        # (the nextPos trick: plain column equalities for the optimizer).
        rows = []
        init_states = []
        cell = 0
        rng = self.rng
        for doc_id, words in enumerate(self.documents):
            length = len(words)
            for pos, word in enumerate(words):
                prev_cell = cell - 1 if pos > 0 else -1
                next_cell = cell + 1 if pos < length - 1 else -1
                rows.append((cell, doc_id, pos, prev_cell, next_cell, int(word),
                             pos == 0, pos == length - 1))
                init_states.append((cell, int(rng.integers(self.states))))
                cell += 1
        db.create_table(
            "words",
            ["cell_id", "doc_id", "pos", "prev_cell", "next_cell", "word",
             "is_start", "is_end"],
            rows, scale="data",
        )
        self._init_rows = init_states
        self.chain = MarkovChain(db, [
            self._states(), self._emits(), self._trans(), self._starts(),
        ])
        self.chain.initialize()

    def _states(self) -> RandomTable:
        rng = self.rng

        def init(db):
            db.create_table("state_init", ["cell_id", "state"], self._init_rows,
                            scale="data")
            return Scan("state_init")

        def update(db, i):
            prev_states = versioned("states", i - 1)
            parity_active = mod(col("pos") + lit(1), 2) == lit(self._iteration % 2)
            active_cells = Select(Scan("words"), parity_active)
            # The word's own row.
            cell = project(active_cells, ("cell_id", "cell_id"), ("word", "word"),
                           ("is_start", "is_start"), ("is_end", "is_end"))
            # Neighbor states via the explicit prev/next cell ids —
            # plain equi-joins, not pos = pos + 1 cross products.
            prev = project(
                Join(project(active_cells, ("cell_id", "cell_id"),
                             ("prev_cell", "prev_cell")),
                     Alias(Scan(prev_states), "p"),
                     predicate=col("prev_cell") == col("p.cell_id"),
                     out_scale="data"),
                ("cell_id", "cell_id"), ("state", "p.state"),
            )
            nxt = project(
                Join(project(active_cells, ("cell_id", "cell_id"),
                             ("next_cell", "next_cell")),
                     Alias(Scan(prev_states), "n"),
                     predicate=col("next_cell") == col("n.cell_id"),
                     out_scale="data"),
                ("cell_id", "cell_id"), ("state", "n.state"),
            )
            vg = VGOp(
                HMMWordVG(rng, self.states, self.vocabulary), {
                    "cell": cell, "prev": prev, "next": nxt,
                    "delta0": Scan(versioned("starts", i - 1)),
                    "delta": Scan(versioned("trans", i - 1)),
                    "psi": Scan(versioned("emits", i - 1)),
                }, group_key="cell_id", out_scale="data",
            )
            untouched = project(
                Join(Select(Scan("words"), ~parity_active),
                     Alias(Scan(prev_states), "s"),
                     predicate=col("cell_id") == col("s.cell_id"),
                     out_scale="data"),
                ("cell_id", "cell_id"), ("state", "s.state"),
            )
            return Union([project(vg, ("cell_id", "cell_id"), ("state", "state")),
                          untouched])

        return RandomTable("states", init, update)

    def _joined_states(self, i: int):
        return Join(Scan(versioned("states", i)), Scan("words"),
                    predicate=col("cell_id") == col("cell_id"), out_scale="data")

    def _state_word_counts(self, i: int):
        return project(self._joined_states(i), ("state", "state"), ("word", "word"))

    def _transition_counts(self, i: int):
        joined = self._joined_states(i)
        withnext = Join(
            project(joined, ("state", "state"), ("next_cell", "next_cell")),
            Alias(Scan(versioned("states", i)), "s2"),
            predicate=col("next_cell") == col("s2.cell_id"), out_scale="data",
        )
        return project(withnext, ("state", "state"), ("next_state", "s2.state"))

    def _start_counts(self, i: int):
        return project(Select(self._joined_states(i), col("is_start") == lit(True)),
                       ("state", "state"))
