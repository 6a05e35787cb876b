"""Missing-data imputation: the paper's Section 9 model on real censoring.

A sensor-style scenario: multivariate readings where each record lost a
random subset of its fields (the paper's Beta(1,1)-coin censoring, ~50%
of all values gone).  A Gaussian mixture is learned on the fly and the
censored coordinates are redrawn from each point's cluster-conditional
normal.  The model-based imputation is compared against column-mean
filling, and the cache-defeating behaviour the paper found in Spark
(Section 9.2) is demonstrated with the simulated cost model.

Run:  python examples/missing_data_imputation.py
"""

from repro.bench.runner import paper_scales, run_benchmark
from repro.impls.spark import SparkGMM, SparkImputation
from repro.kernels.imputation import imputation_error
from repro.models import ReferenceImputation
from repro.stats import make_rng
from repro.workloads import censor_beta_coin, generate_gmm_data

MACHINES = 5
POINTS = 800
CLUSTERS = 3
ITERATIONS = 12


def main() -> None:
    rng = make_rng(10)
    data = generate_gmm_data(rng, POINTS, dim=4, clusters=CLUSTERS, separation=8.0)
    censored = censor_beta_coin(rng, data.points)
    print(f"{POINTS} four-dimensional records; "
          f"{censored.censored_fraction:.0%} of all values censored.\n")

    # Statistical quality: model-based vs column-mean imputation.
    sampler = ReferenceImputation(censored.points, censored.mask, CLUSTERS,
                                  make_rng(10)).run(30)
    model_rmse = imputation_error(sampler.points, censored.original, censored.mask)
    mean_filled = censored.points.copy()
    import numpy as np

    column_means = np.nanmean(censored.points, axis=0)
    fill = np.broadcast_to(column_means, mean_filled.shape)
    mean_filled[censored.mask] = fill[censored.mask]
    mean_rmse = imputation_error(mean_filled, censored.original, censored.mask)
    print(f"imputation RMSE: model-based {model_rmse:.2f} "
          f"vs column means {mean_rmse:.2f}\n")

    # The paper's cost finding: imputation invalidates Spark's cache
    # every iteration, so the per-iteration time jumps ~3x over the GMM.
    scales = paper_scales(10_000_000, MACHINES, POINTS)

    def gmm_factory(cluster_spec, tracer):
        return SparkGMM(data.points, CLUSTERS, make_rng(5), cluster_spec, tracer)

    def imputation_factory(cluster_spec, tracer):
        return SparkImputation(censored.points, censored.mask, CLUSTERS,
                               make_rng(5), cluster_spec, tracer)

    gmm_report = run_benchmark(gmm_factory, MACHINES, ITERATIONS, scales)
    imp_report = run_benchmark(imputation_factory, MACHINES, ITERATIONS, scales)
    ratio = imp_report.mean_iteration_seconds / gmm_report.mean_iteration_seconds
    print("Simulated Spark cost at paper scale (Section 9.2):")
    print(f"  plain GMM iteration:   {gmm_report.cell()}")
    print(f"  imputation iteration:  {imp_report.cell()}  "
          f"({ratio:.1f}x slower — the mutating data set defeats cache())")


if __name__ == "__main__":
    main()
