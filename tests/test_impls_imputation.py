"""Cross-platform correctness tests for the Gaussian-imputation codes."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.impls.giraph import GiraphImputation
from repro.impls.graphlab import GraphLabImputationSuperVertex
from repro.impls.simsql import SimSQLImputation
from repro.impls.spark import SparkImputation
from repro.kernels.imputation import imputation_error
from repro.stats import make_rng
from repro.workloads import censor_beta_coin, generate_gmm_data

CLUSTER = ClusterSpec(machines=3)

ALL_IMPUTATION_IMPLS = [
    SparkImputation, SimSQLImputation, GraphLabImputationSuperVertex,
    GiraphImputation,
]


@pytest.fixture(scope="module")
def censored():
    data = generate_gmm_data(make_rng(20), 360, dim=4, clusters=3, separation=9.0)
    return data, censor_beta_coin(make_rng(21), data.points)


def completed_of(impl) -> np.ndarray:
    return impl.completed_points()


@pytest.mark.parametrize("cls", ALL_IMPUTATION_IMPLS, ids=lambda c: c.__name__)
def test_beats_mean_imputation(cls, censored):
    data, cd = censored
    if cls is SimSQLImputation:
        # The tuple engine runs the same test on a smaller slice.
        rng = make_rng(10)
        small = generate_gmm_data(rng, 160, dim=4, clusters=2, separation=9.0)
        cd_small = censor_beta_coin(rng, small.points)
        impl = cls(cd_small.points, cd_small.mask, 2, make_rng(1), CLUSTER)
        original, mask, points = cd_small.original, cd_small.mask, cd_small.points
        iterations = 15
    else:
        impl = cls(cd.points, cd.mask, 3, make_rng(24), CLUSTER)
        original, mask, points = cd.original, cd.mask, cd.points
        iterations = 20
    impl.initialize()
    for i in range(iterations):
        impl.iterate(i)
    model_rmse = imputation_error(completed_of(impl), original, mask)

    mean_filled = points.copy()
    column_means = np.nanmean(points, axis=0)
    fill = np.broadcast_to(column_means, mean_filled.shape)
    mean_filled[mask] = fill[mask]
    mean_rmse = imputation_error(mean_filled, original, mask)
    assert model_rmse < mean_rmse, f"{cls.__name__}: {model_rmse} vs {mean_rmse}"


@pytest.mark.parametrize("cls", ALL_IMPUTATION_IMPLS, ids=lambda c: c.__name__)
def test_observed_values_untouched(cls, censored):
    data, cd = censored
    if cls is SimSQLImputation:
        small = generate_gmm_data(make_rng(25), 120, dim=3, clusters=2)
        cd = censor_beta_coin(make_rng(26), small.points)
    impl = cls(cd.points, cd.mask, 2, make_rng(27), CLUSTER)
    impl.initialize()
    for i in range(4):
        impl.iterate(i)
    completed = completed_of(impl)
    np.testing.assert_allclose(completed[~cd.mask], cd.original[~cd.mask])


@pytest.mark.parametrize("cls", ALL_IMPUTATION_IMPLS, ids=lambda c: c.__name__)
def test_completed_points_finite(cls, censored):
    data, cd = censored
    if cls is SimSQLImputation:
        small = generate_gmm_data(make_rng(28), 100, dim=3, clusters=2)
        cd = censor_beta_coin(make_rng(29), small.points)
    impl = cls(cd.points, cd.mask, 2, make_rng(30), CLUSTER)
    impl.initialize()
    for i in range(3):
        impl.iterate(i)
    assert np.isfinite(completed_of(impl)).all()
