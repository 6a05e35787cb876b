"""Cross-platform correctness tests for the HMM and LDA implementations."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.impls.giraph import (
    GiraphHMMDocument,
    GiraphHMMSuperVertex,
    GiraphHMMWord,
    GiraphLDADocument,
    GiraphLDASuperVertex,
)
from repro.impls.graphlab import GraphLabHMMSuperVertex, GraphLabLDASuperVertex
from repro.impls.simsql import (
    SimSQLHMMDocument,
    SimSQLHMMSuperVertex,
    SimSQLHMMWord,
    SimSQLLDADocument,
    SimSQLLDASuperVertex,
    SimSQLLDAWord,
)
from repro.impls.spark import (
    SparkHMMDocument,
    SparkHMMSuperVertex,
    SparkHMMWord,
    SparkLDADocument,
    SparkLDAJava,
    SparkLDASuperVertex,
)
from repro.kernels import hmm as hmm_mod, lda as lda_mod
from repro.stats import make_rng
from repro.workloads import generate_hmm_corpus, generate_lda_corpus

CLUSTER = ClusterSpec(machines=3)
VOCAB = 24
SIZE = 3  # states / topics kept small for the slow tuple engines

HMM_IMPLS = [
    SparkHMMDocument, SparkHMMSuperVertex, SparkHMMWord,
    SimSQLHMMDocument, SimSQLHMMSuperVertex, SimSQLHMMWord,
    GraphLabHMMSuperVertex,
    GiraphHMMDocument, GiraphHMMSuperVertex, GiraphHMMWord,
]
LDA_IMPLS = [
    SparkLDADocument, SparkLDAJava, SparkLDASuperVertex,
    SimSQLLDADocument, SimSQLLDASuperVertex, SimSQLLDAWord,
    GraphLabLDASuperVertex,
    GiraphLDADocument, GiraphLDASuperVertex,
]


@pytest.fixture(scope="module")
def hmm_corpus():
    return generate_hmm_corpus(make_rng(0), 30, vocabulary=VOCAB, states=SIZE,
                               mean_length=22)


@pytest.fixture(scope="module")
def lda_corpus():
    return generate_lda_corpus(make_rng(1), 30, vocabulary=VOCAB, topics=SIZE,
                               mean_length=22)


def hmm_model_of(impl) -> hmm_mod.HMMState:
    if hasattr(impl, "current_model"):
        return impl.current_model()
    return impl.model


def hmm_loglik(impl, documents) -> float:
    """Complete-data log likelihood using the impl's own assignments when
    available, or a fresh assignment sweep otherwise."""
    model = hmm_model_of(impl)
    if hasattr(impl, "assignments"):
        assignments = impl.assignments()
        if isinstance(assignments, dict):
            assignments = [assignments[j] for j in range(len(documents))]
        return hmm_mod.log_likelihood(documents, assignments, model)
    rng = make_rng(99)
    assignments = [
        hmm_mod.resample_document_states(
            rng, doc, rng.integers(model.states, size=len(doc)), model, 0)
        for doc in documents
    ]
    return hmm_mod.log_likelihood(documents, assignments, model)


@pytest.mark.parametrize("cls", HMM_IMPLS, ids=lambda c: c.__name__)
def test_hmm_rows_are_distributions(cls, hmm_corpus):
    impl = cls(hmm_corpus.documents, VOCAB, SIZE, make_rng(2), CLUSTER)
    impl.initialize()
    for i in range(6):
        impl.iterate(i)
    model = hmm_model_of(impl)
    np.testing.assert_allclose(model.psi.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(model.delta.sum(axis=1), 1.0, atol=1e-9)
    assert model.delta0.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "cls",
    [SparkHMMDocument, SparkHMMSuperVertex, GiraphHMMDocument,
     GiraphHMMSuperVertex, GraphLabHMMSuperVertex],
    ids=lambda c: c.__name__,
)
def test_hmm_likelihood_improves(cls, hmm_corpus):
    impl = cls(hmm_corpus.documents, VOCAB, SIZE, make_rng(3), CLUSTER)
    impl.initialize()
    before = hmm_loglik(impl, impl.documents)
    for i in range(14):
        impl.iterate(i)
    assert hmm_loglik(impl, impl.documents) > before + 50


@pytest.mark.parametrize(
    "cls", [SparkHMMWord, SimSQLHMMWord, GiraphHMMWord],
    ids=lambda c: c.__name__,
)
def test_word_based_hmm_model_improves(cls, hmm_corpus):
    """The word-granularity codes learn the same model, just painfully:
    after some sweeps, a fresh state assignment under the learned model
    scores far better than under a prior-drawn model."""
    documents = [np.asarray(d) for d in hmm_corpus.documents]
    impl = cls(documents, VOCAB, SIZE, make_rng(8), CLUSTER)
    impl.initialize()
    for i in range(14):
        impl.iterate(i)
    learned = impl.current_model() if hasattr(impl, "current_model") else impl.model

    def score(model):
        rng = make_rng(99)
        assignments = []
        for doc in documents:
            states = rng.integers(model.states, size=len(doc))
            for sweep in range(4):
                states = hmm_mod.resample_document_states(rng, doc, states,
                                                          model, sweep)
            assignments.append(states)
        return hmm_mod.log_likelihood(documents, assignments, model)

    prior_model = hmm_mod.initial_model(make_rng(100), SIZE, VOCAB)
    assert score(learned) > score(prior_model) + 50


def lda_phi_of(impl) -> np.ndarray:
    if hasattr(impl, "current_phi"):
        return impl.current_phi()
    return impl.phi


def lda_thetas_of(impl) -> np.ndarray:
    if hasattr(impl, "current_thetas"):
        return impl.current_thetas()
    thetas = impl.thetas()
    if isinstance(thetas, dict):
        return np.vstack([thetas[j] for j in range(len(thetas))])
    return thetas


@pytest.mark.parametrize("cls", LDA_IMPLS, ids=lambda c: c.__name__)
def test_lda_likelihood_improves(cls, lda_corpus):
    impl = cls(lda_corpus.documents, VOCAB, SIZE, make_rng(4), CLUSTER)
    impl.initialize()
    for i in range(12):
        impl.iterate(i)
    after = lda_mod.log_likelihood(
        [np.asarray(d) for d in lda_corpus.documents],
        lda_thetas_of(impl), lda_phi_of(impl),
    )
    # A fresh prior draw scores far worse than the fitted model.
    rng = make_rng(5)
    prior_phi = lda_mod.initial_phi(rng, SIZE, VOCAB)
    prior_thetas = lda_mod.initial_thetas(rng, len(lda_corpus.documents), SIZE)
    baseline = lda_mod.log_likelihood(
        [np.asarray(d) for d in lda_corpus.documents], prior_thetas, prior_phi)
    assert after > baseline + 100


@pytest.mark.parametrize("cls", LDA_IMPLS, ids=lambda c: c.__name__)
def test_lda_phi_rows_are_distributions(cls, lda_corpus):
    impl = cls(lda_corpus.documents, VOCAB, SIZE, make_rng(6), CLUSTER)
    impl.initialize()
    for i in range(4):
        impl.iterate(i)
    np.testing.assert_allclose(lda_phi_of(impl).sum(axis=1), 1.0, atol=1e-9)


def test_simsql_lda_variants_agree(lda_corpus):
    """Document and super-vertex SimSQL LDA share the random stream."""
    doc = SimSQLLDADocument(lda_corpus.documents, VOCAB, SIZE, make_rng(7), CLUSTER)
    sv = SimSQLLDASuperVertex(lda_corpus.documents, VOCAB, SIZE, make_rng(7), CLUSTER)
    doc.initialize()
    sv.initialize()
    for i in range(4):
        doc.iterate(i)
        sv.iterate(i)
    np.testing.assert_allclose(doc.current_phi(), sv.current_phi())
