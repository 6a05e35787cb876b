"""Cross-platform correctness tests for the Bayesian Lasso implementations."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.impls.giraph import GiraphLasso, GiraphLassoSuperVertex
from repro.impls.graphlab import GraphLabLassoSuperVertex
from repro.impls.simsql import SimSQLLasso
from repro.impls.spark import SparkLasso
from repro.kernels import lasso
from repro.stats import make_rng
from repro.workloads import generate_lasso_data

CLUSTER = ClusterSpec(machines=3)

ALL_LASSO_IMPLS = [
    SparkLasso, SimSQLLasso, GraphLabLassoSuperVertex,
    GiraphLasso, GiraphLassoSuperVertex,
]


@pytest.fixture(scope="module")
def planted():
    return generate_lasso_data(make_rng(0), 260, p=10, active=3, signal=5.0)


def state_of(impl) -> lasso.LassoState:
    return impl.state() if callable(getattr(impl, "state", None)) else impl.state


@pytest.mark.parametrize("cls", ALL_LASSO_IMPLS, ids=lambda c: c.__name__)
def test_recovers_sparse_signal(cls, planted):
    impl = cls(planted.x, planted.y, make_rng(1), CLUSTER)
    impl.initialize()
    draws = []
    for i in range(70):
        impl.iterate(i)
        if i >= 30:
            draws.append(state_of(impl).beta.copy())
    posterior_mean = np.mean(draws, axis=0)
    active = np.abs(planted.beta) > 0
    assert np.abs(posterior_mean[active] - planted.beta[active]).max() < 0.6
    assert np.abs(posterior_mean[~active]).max() < 0.4


@pytest.mark.parametrize("cls", ALL_LASSO_IMPLS, ids=lambda c: c.__name__)
def test_sigma2_posterior_matches_reference(cls, planted):
    """Every platform's sigma^2 posterior agrees with the sequential
    reference sampler's (on this small, strongly shrunk dataset the
    posterior sits above the raw noise level — for every sampler)."""
    from repro.models import ReferenceLasso

    reference = ReferenceLasso(planted.x, planted.y, make_rng(2), lam=1.0)
    ref_draws = []
    for i in range(60):
        reference.step()
        if i >= 20:
            ref_draws.append(reference.state.sigma2)

    impl = cls(planted.x, planted.y, make_rng(2), CLUSTER)
    impl.initialize()
    draws = []
    for i in range(60):
        impl.iterate(i)
        if i >= 20:
            draws.append(state_of(impl).sigma2)
    assert np.mean(draws) == pytest.approx(np.mean(ref_draws), rel=0.25)


def test_gram_matrices_agree(planted):
    """Every platform's distributed Gram computation must equal X^T X."""
    expected = planted.x.T @ planted.x
    spark = SparkLasso(planted.x, planted.y, make_rng(3), CLUSTER)
    spark.initialize()
    np.testing.assert_allclose(spark.pre.xtx, expected, atol=1e-8)

    graphlab = GraphLabLassoSuperVertex(planted.x, planted.y, make_rng(3), CLUSTER)
    graphlab.initialize()
    np.testing.assert_allclose(graphlab.pre.xtx, expected, atol=1e-8)

    giraph = GiraphLassoSuperVertex(planted.x, planted.y, make_rng(3), CLUSTER)
    giraph.initialize()
    np.testing.assert_allclose(giraph.pre.xtx, expected, atol=1e-8)


def test_centered_xty_agrees(planted):
    expected = planted.x.T @ (planted.y - planted.y.mean())
    spark = SparkLasso(planted.x, planted.y, make_rng(4), CLUSTER)
    spark.initialize()
    np.testing.assert_allclose(spark.pre.xty, expected, atol=1e-8)
    giraph = GiraphLassoSuperVertex(planted.x, planted.y, make_rng(4), CLUSTER)
    giraph.initialize()
    np.testing.assert_allclose(giraph.pre.xty, expected, atol=1e-6)
