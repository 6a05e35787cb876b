"""Tests for the HMM and LDA model math and reference samplers."""

import numpy as np
import pytest

from repro.kernels import hmm, lda
from repro.models import ReferenceHMM, ReferenceLDA
from repro.stats import make_rng
from repro.workloads import generate_hmm_corpus, generate_lda_corpus


class TestHMMStateUpdates:
    def test_alternating_parity_only_touches_half(self, rng):
        model = hmm.initial_model(rng, states=3, vocabulary=10)
        words = rng.integers(10, size=20)
        states = rng.integers(3, size=20)
        updated_even = hmm.resample_document_states(rng, words, states, model, iteration=0)
        # Even iteration updates 1-based-even positions = 0-based odd.
        np.testing.assert_array_equal(updated_even[::2], states[::2])
        updated_odd = hmm.resample_document_states(rng, words, states, model, iteration=1)
        np.testing.assert_array_equal(updated_odd[1::2], states[1::2])

    def test_two_sweeps_can_change_everything(self, rng):
        model = hmm.initial_model(rng, states=4, vocabulary=8)
        words = rng.integers(8, size=100)
        states = np.zeros(100, dtype=int)
        s1 = hmm.resample_document_states(rng, words, states, model, iteration=0)
        s2 = hmm.resample_document_states(rng, words, s1, model, iteration=1)
        assert (s2 != states).sum() > 50

    def test_empty_document(self, rng):
        model = hmm.initial_model(rng, states=2, vocabulary=5)
        out = hmm.resample_document_states(
            rng, np.empty(0, dtype=int), np.empty(0, dtype=int), model, 0
        )
        assert len(out) == 0

    def test_deterministic_neighbor_forcing(self, rng):
        """With a near-deterministic transition matrix, the sampled state
        must follow its fixed neighbors."""
        states_k = 2
        eps = 1e-9
        model = hmm.HMMState(
            delta0=np.array([0.5, 0.5]),
            delta=np.array([[1 - eps, eps], [eps, 1 - eps]]),  # stay put
            psi=np.full((2, 3), 1.0 / 3),
        )
        words = np.zeros(3, dtype=int)
        states = np.array([1, 0, 1])  # positions 0 and 2 fixed at 1
        # Position index 1 is 1-based k=2 (even), updated in even iterations.
        draws = [
            hmm.resample_document_states(make_rng(s), words, states, model, iteration=0)[1]
            for s in range(50)
        ]
        assert all(d == 1 for d in draws)


class TestHMMCounts:
    def test_counts_match_manual(self):
        words = np.array([0, 1, 1, 2])
        states = np.array([0, 1, 1, 0])
        counts = hmm.document_counts(words, states, model_states=2, vocabulary=3)
        assert counts.starts[0] == 1
        assert counts.emissions[1, 1] == 2
        assert counts.emissions[0, 0] == 1
        assert counts.transitions[0, 1] == 1
        assert counts.transitions[1, 1] == 1
        assert counts.transitions[1, 0] == 1
        assert counts.transitions.sum() == 3

    def test_merge(self):
        a = hmm.document_counts(np.array([0]), np.array([0]), 2, 2)
        b = hmm.document_counts(np.array([1]), np.array([1]), 2, 2)
        merged = a.merge(b)
        assert merged.starts.sum() == 2
        assert merged.emissions.sum() == 2

    def test_model_resample_rows_are_distributions(self, rng):
        counts = hmm.HMMCounts.zeros(3, 5)
        counts.emissions += 2.0
        counts.transitions += 1.0
        counts.starts += 1.0
        model = hmm.resample_model(rng, counts)
        np.testing.assert_allclose(model.psi.sum(axis=1), 1.0)
        np.testing.assert_allclose(model.delta.sum(axis=1), 1.0)
        assert model.delta0.sum() == pytest.approx(1.0)


class TestReferenceHMM:
    def test_likelihood_improves(self, rng):
        corpus = generate_hmm_corpus(rng, 40, vocabulary=30, states=3, mean_length=40)
        sampler = ReferenceHMM(corpus.documents, 30, 3, rng)
        before = sampler.log_likelihood()
        sampler.run(30)
        assert sampler.log_likelihood() > before + 100

    def test_recovers_emission_structure(self, rng):
        """With disjoint emission supports, learned states must separate
        the vocabulary the same way (up to label permutation)."""
        emissions = np.zeros((2, 20))
        emissions[0, :10] = 0.1
        emissions[1, 10:] = 0.1
        truth = hmm.HMMState(
            delta0=np.array([0.5, 0.5]),
            delta=np.array([[0.9, 0.1], [0.1, 0.9]]),
            psi=emissions,
        )
        docs = []
        state = rng.choice(2)
        for _ in range(50):
            words, s = [], state
            for _ in range(60):
                words.append(rng.choice(20, p=truth.psi[s]))
                s = rng.choice(2, p=truth.delta[s])
            docs.append(np.array(words))
        sampler = ReferenceHMM(docs, 20, 2, rng).run(40)
        low_mass = sampler.model.psi[:, :10].sum(axis=1)
        assert (low_mass.max() > 0.9 and low_mass.min() < 0.1)

    def test_deterministic(self, rng):
        corpus = generate_hmm_corpus(rng, 10, vocabulary=15, states=2, mean_length=20)
        a = ReferenceHMM(corpus.documents, 15, 2, make_rng(1)).run(5)
        b = ReferenceHMM(corpus.documents, 15, 2, make_rng(1)).run(5)
        np.testing.assert_array_equal(a.model.psi, b.model.psi)


class TestLDAUpdates:
    def test_resample_document_shapes(self, rng):
        phi = lda.initial_phi(rng, topics=4, vocabulary=12)
        theta = lda.initial_thetas(rng, 1, 4)[0]
        words = rng.integers(12, size=30)
        z, new_theta, counts = lda.resample_document(rng, words, theta, phi)
        assert z.shape == (30,)
        assert np.all((z >= 0) & (z < 4))
        assert new_theta.sum() == pytest.approx(1.0)
        assert counts.sum() == 30

    def test_empty_document(self, rng):
        phi = lda.initial_phi(rng, topics=3, vocabulary=5)
        z, theta, counts = lda.resample_document(
            rng, np.empty(0, dtype=int), np.full(3, 1 / 3), phi
        )
        assert len(z) == 0
        assert counts.sum() == 0
        assert theta.sum() == pytest.approx(1.0)

    def test_assignment_follows_theta_phi(self, rng):
        """A word only topic 1 can emit must be assigned topic 1."""
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        theta = np.array([0.5, 0.5])
        words = np.array([1, 1, 0])
        z, _, _ = lda.resample_document(rng, words, theta, phi)
        np.testing.assert_array_equal(z, [1, 1, 0])

    def test_phi_rows_are_distributions(self, rng):
        counts = rng.integers(0, 10, size=(4, 9)).astype(float)
        phi = lda.resample_phi(rng, counts)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0)


class TestReferenceLDA:
    def test_likelihood_improves(self, rng):
        corpus = generate_lda_corpus(rng, 40, vocabulary=40, topics=3, mean_length=40)
        sampler = ReferenceLDA(corpus.documents, 40, 3, rng)
        before = sampler.log_likelihood()
        sampler.run(30)
        assert sampler.log_likelihood() > before + 200

    def test_recovers_disjoint_topics(self, rng):
        """Two topics with disjoint vocabularies must be separated."""
        phi_true = np.zeros((2, 20))
        phi_true[0, :10] = 0.1
        phi_true[1, 10:] = 0.1
        docs = []
        for _ in range(60):
            topic = rng.choice(2)
            docs.append(rng.choice(20, size=50, p=phi_true[topic]))
        sampler = ReferenceLDA(docs, 20, 2, rng, alpha=0.2).run(40)
        low_mass = sampler.phi[:, :10].sum(axis=1)
        assert low_mass.max() > 0.9 and low_mass.min() < 0.1

    def test_deterministic(self, rng):
        corpus = generate_lda_corpus(rng, 10, vocabulary=15, topics=2, mean_length=20)
        a = ReferenceLDA(corpus.documents, 15, 2, make_rng(2)).run(5)
        b = ReferenceLDA(corpus.documents, 15, 2, make_rng(2)).run(5)
        np.testing.assert_array_equal(a.phi, b.phi)
