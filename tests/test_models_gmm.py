"""Tests for the GMM model math and reference sampler.

The statistical checks exploit conjugacy: with K=1 the Gibbs updates
must match the known semi-conjugate posteriors.
"""

import numpy as np
import pytest

from repro.kernels import gmm
from repro.models import ReferenceGMM
from repro.stats import make_rng
from repro.workloads import generate_gmm_data


@pytest.fixture
def data(rng):
    return generate_gmm_data(rng, 600, dim=3, clusters=3, separation=7.0)


class TestPrior:
    def test_empirical_prior_matches_data(self, rng, data):
        prior = gmm.empirical_prior(data.points, 3)
        np.testing.assert_allclose(prior.mu0, data.points.mean(axis=0))
        np.testing.assert_allclose(np.diag(prior.psi), data.points.var(axis=0))
        assert prior.v == data.points.shape[1] + 2
        assert prior.clusters == 3

    def test_rejects_degenerate(self, rng):
        with pytest.raises(ValueError):
            gmm.empirical_prior(np.ones((10, 2)), 2)  # zero variance
        with pytest.raises(ValueError):
            gmm.empirical_prior(np.zeros((1, 2)), 2)  # one point


class TestMembership:
    def test_weights_shape_and_positivity(self, rng, data):
        prior = gmm.empirical_prior(data.points, 3)
        state = gmm.initial_state(rng, prior)
        weights = gmm.membership_weights(data.points, state)
        assert weights.shape == (600, 3)
        assert np.all(weights >= 0)
        assert np.all(weights.max(axis=1) > 0)

    def test_obvious_assignment(self, rng):
        """Two far-apart unit Gaussians: membership is deterministic."""
        state = gmm.GMMState(
            pi=np.array([0.5, 0.5]),
            means=np.array([[-50.0], [50.0]]),
            covariances=np.array([[[1.0]], [[1.0]]]),
        )
        points = np.array([[-50.0], [49.0], [51.0]])
        labels = gmm.sample_memberships(rng, points, state)
        np.testing.assert_array_equal(labels, [0, 1, 1])


class TestSufficientStatistics:
    def test_counts_and_sums(self, rng, data):
        prior = gmm.empirical_prior(data.points, 3)
        state = gmm.initial_state(rng, prior)
        labels = np.arange(600) % 3
        stats = gmm.sufficient_statistics(data.points, labels, state)
        assert stats.counts.sum() == 600
        np.testing.assert_allclose(stats.sums.sum(axis=0), data.points.sum(axis=0))

    def test_scatter_about_current_mean(self, rng):
        points = np.array([[1.0, 0.0], [3.0, 0.0]])
        state = gmm.GMMState(
            pi=np.array([1.0]),
            means=np.array([[2.0, 0.0]]),
            covariances=np.array([np.eye(2)]),
        )
        stats = gmm.sufficient_statistics(points, np.zeros(2, dtype=int), state)
        assert stats.scatters[0][0, 0] == pytest.approx(2.0)  # (1-2)^2 + (3-2)^2

    def test_merge_is_addition(self):
        a = gmm.GMMStatistics.zeros(2, 2)
        b = gmm.GMMStatistics.zeros(2, 2)
        a.counts[0], b.counts[0] = 3, 4
        merged = a.merge(b)
        assert merged.counts[0] == 7


class TestConjugateUpdates:
    def test_mean_posterior_single_cluster(self):
        """With K=1 and fixed Sigma, mu's conditional is the textbook
        semi-conjugate normal; check the Monte Carlo moments."""
        rng = make_rng(42)
        n, d = 400, 2
        true_mu = np.array([2.0, -1.0])
        points = true_mu + rng.standard_normal((n, d))
        prior = gmm.empirical_prior(points, 1)
        sigma = np.eye(d)
        state = gmm.GMMState(np.array([1.0]), np.zeros((1, d)), np.array([sigma]))
        labels = np.zeros(n, dtype=int)
        stats = gmm.sufficient_statistics(points, labels, state)

        precision = prior.lambda0 + n * np.linalg.inv(sigma)
        expected_mean = np.linalg.solve(
            precision, prior.lambda0 @ prior.mu0 + np.linalg.inv(sigma) @ stats.sums[0]
        )
        state_for_update = gmm.GMMState(np.array([1.0]), state.means.copy(),
                                        np.array([sigma]))
        draws = np.array([
            gmm.sample_means(rng, prior, state_for_update, stats)[0] for _ in range(3000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), expected_mean, atol=0.01)
        np.testing.assert_allclose(
            np.cov(draws.T), np.linalg.inv(precision), atol=0.001
        )

    def test_covariance_posterior_mean(self):
        """Sigma's conditional is InvWishart(n+v, Psi+scatter)."""
        rng = make_rng(1)
        n, d = 300, 2
        points = rng.standard_normal((n, d))
        prior = gmm.empirical_prior(points, 1)
        mu = points.mean(axis=0)
        state = gmm.GMMState(np.array([1.0]), np.array([mu]), np.array([np.eye(d)]))
        stats = gmm.sufficient_statistics(points, np.zeros(n, dtype=int), state)
        expected = (prior.psi + stats.scatters[0]) / (n + prior.v - d - 1)
        draws = np.mean([
            gmm.sample_covariances(rng, prior, stats)[0] for _ in range(2000)
        ], axis=0)
        np.testing.assert_allclose(draws, expected, atol=0.05 * np.abs(expected).max())

    def test_pi_posterior_mean(self):
        rng = make_rng(2)
        prior = gmm.GMMPrior(np.zeros(1), np.eye(1), np.eye(1), 3.0, np.ones(3))
        counts = np.array([10.0, 20.0, 70.0])
        draws = np.mean([gmm.sample_pi(rng, prior, counts) for _ in range(20_000)], axis=0)
        expected = (prior.alpha + counts) / (prior.alpha + counts).sum()
        np.testing.assert_allclose(draws, expected, atol=0.005)

    def test_update_cluster_matches_separate_updates(self):
        """update_cluster = sample_means then sample_covariances with a
        shared random stream."""
        rng_data = make_rng(3)
        points = rng_data.standard_normal((100, 2)) + 1.0
        prior = gmm.empirical_prior(points, 1)
        state = gmm.initial_state(make_rng(4), prior)
        stats = gmm.sufficient_statistics(points, np.zeros(100, dtype=int), state)

        mu_a, sigma_a = gmm.update_cluster(
            make_rng(9), prior, state.covariances[0],
            stats.counts[0], stats.sums[0], stats.scatters[0],
        )
        rng_b = make_rng(9)
        mu_b = gmm.sample_means(rng_b, prior, state, stats)[0]
        sigma_b = gmm.sample_covariances(rng_b, prior, stats)[0]
        np.testing.assert_allclose(mu_a, mu_b)
        np.testing.assert_allclose(sigma_a, sigma_b)


class TestReferenceGMM:
    def test_recovers_planted_clusters(self, rng):
        data = generate_gmm_data(rng, 900, dim=3, clusters=3, separation=9.0)
        sampler = ReferenceGMM(data.points, 3, rng).run(40)
        # Match learned means to planted means greedily; all must be close.
        learned = sampler.state.means.copy()
        for true_mean in data.means:
            distances = np.linalg.norm(learned - true_mean, axis=1)
            best = distances.argmin()
            assert distances[best] < 1.5
            learned[best] = np.inf

    def test_likelihood_improves(self, rng, data):
        sampler = ReferenceGMM(data.points, 3, rng)
        before = sampler.log_likelihood()
        sampler.run(25)
        assert sampler.log_likelihood() > before

    def test_empty_cluster_survives(self, rng):
        """A component that loses all members must still update (from
        the prior) without numerical failure."""
        points = np.vstack([np.zeros((50, 2)), np.ones((50, 2))]) + 0.01 * rng.standard_normal((100, 2))
        sampler = ReferenceGMM(points, 8, rng)  # more clusters than blobs
        sampler.run(10)
        assert np.isfinite(sampler.state.means).all()
        assert np.isfinite(sampler.state.pi).all()

    def test_deterministic_given_seed(self):
        data = generate_gmm_data(make_rng(11), 200, dim=2, clusters=2)
        a = ReferenceGMM(data.points, 2, make_rng(12)).run(5)
        b = ReferenceGMM(data.points, 2, make_rng(12)).run(5)
        np.testing.assert_array_equal(a.state.means, b.state.means)
        np.testing.assert_array_equal(a.labels, b.labels)
