"""Tests for the Bayesian Lasso math and reference sampler."""

import numpy as np
import pytest

from repro.kernels import lasso
from repro.models import ReferenceLasso
from repro.stats import make_rng
from repro.workloads import generate_lasso_data


class TestPrecompute:
    def test_gram_and_centering(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal(50) + 3.0
        pre = lasso.precompute(x, y)
        np.testing.assert_allclose(pre.xtx, x.T @ x)
        np.testing.assert_allclose(pre.xty, x.T @ (y - y.mean()))
        assert pre.y_mean == pytest.approx(y.mean())
        assert pre.n == 50

    def test_rejects_mismatched_rows(self, rng):
        with pytest.raises(ValueError):
            lasso.precompute(np.zeros((5, 2)), np.zeros(6))


class TestConditionals:
    def test_beta_posterior_is_ridge_like(self):
        """With tau fixed at 1, beta's conditional mean is the ridge
        solution (X^T X + I)^-1 X^T y."""
        rng = make_rng(0)
        data = generate_lasso_data(rng, 500, p=8, active=3)
        pre = lasso.precompute(data.x, data.y)
        tau2_inv = np.ones(8)
        draws = np.array([
            lasso.sample_beta(rng, pre, tau2_inv, 1.0) for _ in range(4000)
        ])
        expected = np.linalg.solve(pre.xtx + np.eye(8), pre.xty)
        np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.01)

    def test_beta_variance_scales_with_sigma2(self):
        rng = make_rng(1)
        data = generate_lasso_data(rng, 200, p=5)
        pre = lasso.precompute(data.x, data.y)
        tau2_inv = np.ones(5)
        low = np.array([lasso.sample_beta(rng, pre, tau2_inv, 0.1) for _ in range(2000)])
        high = np.array([lasso.sample_beta(rng, pre, tau2_inv, 10.0) for _ in range(2000)])
        assert high.var(axis=0).mean() > 50 * low.var(axis=0).mean()

    def test_sigma2_posterior_mean(self):
        """InvGamma conditional: check against the analytic mean."""
        rng = make_rng(2)
        state = lasso.LassoState(beta=np.zeros(3), sigma2=1.0, tau2_inv=np.ones(3))
        n, rss = 100, 50.0
        shape = 0.5 * (1 + n + 3)
        scale = 0.5 * (2.0 + rss + 0.0)
        draws = [lasso.sample_sigma2(rng, n, state, rss) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(scale / (shape - 1), rel=0.02)

    def test_tau_update_shrinks_small_coefficients(self):
        """1/tau^2 is much larger for near-zero beta (strong shrinkage)."""
        rng = make_rng(3)
        state = lasso.LassoState(
            beta=np.array([5.0, 0.01]), sigma2=1.0, tau2_inv=np.ones(2)
        )
        draws = np.array([lasso.sample_tau2_inv(rng, state, lam=1.0) for _ in range(500)])
        assert draws[:, 1].mean() > 10 * draws[:, 0].mean()

    def test_rss(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, 3.0])
        beta = np.array([1.0, 1.0])
        assert lasso.residual_sum_of_squares(x, y, beta) == pytest.approx(1.0 + 4.0)


class TestReferenceLasso:
    def test_recovers_sparse_signal(self):
        rng = make_rng(4)
        data = generate_lasso_data(rng, 400, p=20, active=3, signal=5.0, noise_sigma=1.0)
        sampler = ReferenceLasso(data.x, data.y, rng, lam=2.0)
        sampler.run(100)
        draws = []
        for _ in range(100):
            sampler.step()
            draws.append(sampler.state.beta.copy())
        posterior_mean = np.mean(draws, axis=0)
        active = np.abs(data.beta) > 0
        assert np.abs(posterior_mean[active] - data.beta[active]).max() < 0.5
        assert np.abs(posterior_mean[~active]).max() < 0.3

    def test_sigma2_concentrates_near_noise(self):
        rng = make_rng(5)
        data = generate_lasso_data(rng, 800, p=10, active=2, noise_sigma=2.0)
        sampler = ReferenceLasso(data.x, data.y, rng).run(60)
        draws = []
        for _ in range(60):
            sampler.step()
            draws.append(sampler.state.sigma2)
        assert np.mean(draws) == pytest.approx(4.0, rel=0.25)

    def test_deterministic_given_seed(self):
        data = generate_lasso_data(make_rng(6), 100, p=5)
        a = ReferenceLasso(data.x, data.y, make_rng(7)).run(10)
        b = ReferenceLasso(data.x, data.y, make_rng(7)).run(10)
        np.testing.assert_array_equal(a.state.beta, b.state.beta)
