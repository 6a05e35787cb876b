"""Tests for the Gaussian-imputation model."""

import numpy as np
import pytest

from repro.kernels import gmm
from repro.kernels.imputation import imputation_error, impute_point, impute_points
from repro.models import ReferenceImputation
from repro.stats import make_rng
from repro.workloads import censor_beta_coin, generate_gmm_data


class TestImputePoint:
    def test_observed_point_unchanged(self, rng):
        point = np.array([1.0, 2.0, 3.0])
        out = impute_point(rng, point, np.zeros(3, dtype=bool), np.zeros(3), np.eye(3))
        np.testing.assert_array_equal(out, point)

    def test_fully_censored_draws_from_cluster(self, rng):
        mean = np.array([10.0, -10.0])
        draws = np.array([
            impute_point(rng, np.full(2, np.nan), np.ones(2, dtype=bool), mean, np.eye(2))
            for _ in range(2000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.1)

    def test_observed_coordinates_preserved(self, rng):
        point = np.array([5.0, np.nan, -1.0])
        mask = np.array([False, True, False])
        out = impute_point(rng, point, mask, np.zeros(3), np.eye(3))
        assert out[0] == 5.0 and out[2] == -1.0
        assert np.isfinite(out[1])

    def test_correlation_exploited(self, rng):
        """With correlation 0.99, the imputed value must track the
        observed coordinate, not the marginal mean."""
        cov = np.array([[1.0, 0.99], [0.99, 1.0]])
        mask = np.array([True, False])
        draws = np.array([
            impute_point(rng, np.array([np.nan, 3.0]), mask, np.zeros(2), cov)[0]
            for _ in range(1000)
        ])
        assert draws.mean() == pytest.approx(0.99 * 3.0, abs=0.05)
        assert draws.std() == pytest.approx(np.sqrt(1 - 0.99**2), rel=0.2)


class TestImputePoints:
    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            impute_points(rng, np.zeros((3, 2)), np.zeros((2, 2), dtype=bool),
                          np.zeros(3, dtype=int),
                          gmm.GMMState(np.ones(1), np.zeros((1, 2)), np.array([np.eye(2)])))

    def test_only_masked_entries_change(self, rng):
        points = rng.standard_normal((20, 3))
        mask = rng.uniform(size=(20, 3)) < 0.3
        state = gmm.GMMState(np.ones(1), np.zeros((1, 3)), np.array([np.eye(3)]))
        out = impute_points(rng, points, mask, np.zeros(20, dtype=int), state)
        np.testing.assert_array_equal(out[~mask], points[~mask])
        assert np.isfinite(out).all()


class TestImputationError:
    def test_zero_when_perfect(self, rng):
        original = rng.standard_normal((5, 2))
        mask = np.zeros((5, 2), dtype=bool)
        mask[0, 0] = True
        assert imputation_error(original, original, mask) == 0.0

    def test_requires_censoring(self, rng):
        with pytest.raises(ValueError):
            imputation_error(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


class TestReferenceImputation:
    def test_beats_mean_imputation(self):
        """The model-based imputation must beat filling column means."""
        rng = make_rng(10)
        data = generate_gmm_data(rng, 800, dim=4, clusters=3, separation=8.0)
        censored = censor_beta_coin(rng, data.points)
        sampler = ReferenceImputation(censored.points, censored.mask, 3, rng).run(25)
        model_rmse = imputation_error(sampler.points, censored.original, censored.mask)

        mean_filled = censored.points.copy()
        means = np.nanmean(censored.points, axis=0)
        fill = np.broadcast_to(means, mean_filled.shape)
        mean_filled[censored.mask] = fill[censored.mask]
        mean_rmse = imputation_error(mean_filled, censored.original, censored.mask)
        assert model_rmse < 0.9 * mean_rmse

    def test_completed_data_stays_finite(self):
        rng = make_rng(11)
        data = generate_gmm_data(rng, 300, dim=3, clusters=2)
        censored = censor_beta_coin(rng, data.points)
        sampler = ReferenceImputation(censored.points, censored.mask, 2, rng).run(10)
        assert np.isfinite(sampler.points).all()

    def test_observed_values_never_touched(self):
        rng = make_rng(12)
        data = generate_gmm_data(rng, 200, dim=3, clusters=2)
        censored = censor_beta_coin(rng, data.points)
        sampler = ReferenceImputation(censored.points, censored.mask, 2, rng).run(5)
        np.testing.assert_array_equal(
            sampler.points[~censored.mask], censored.original[~censored.mask]
        )
