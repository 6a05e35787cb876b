"""Sequential reference Gibbs samplers for all five benchmark models.

These are the ground truth the platform implementations are validated
against: single-process, no engines, no cost accounting — just the
simulations of Sections 5-9.  Each sampler follows the same update
structure the distributed codes use (statistics computed about the
previous iteration's parameters, as a distributed map must), so a
platform implementation fed the same random stream can be compared
draw-by-draw where the update order permits, and statistically
otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import gmm, hmm, imputation, lasso, lda


class ReferenceGMM:
    """Sequential GMM Gibbs sampler (paper Section 5)."""

    def __init__(self, points: np.ndarray, clusters: int, rng: np.random.Generator,
                 alpha: float = 1.0) -> None:
        self.points = np.asarray(points, dtype=float)
        self.rng = rng
        self.prior = gmm.empirical_prior(self.points, clusters, alpha)
        self.state = gmm.initial_state(rng, self.prior)
        self.labels = gmm.sample_memberships(rng, self.points, self.state)
        self.iteration = 0

    def step(self) -> None:
        """One sweep: aggregate statistics, then model, then memberships."""
        stats = gmm.sufficient_statistics(self.points, self.labels, self.state)
        for k in range(self.state.clusters):
            mu, sigma = gmm.update_cluster(
                self.rng, self.prior, self.state.covariances[k],
                stats.counts[k], stats.sums[k], stats.scatters[k],
            )
            self.state.means[k] = mu
            self.state.covariances[k] = sigma
        self.state.pi = gmm.sample_pi(self.rng, self.prior, stats.counts)
        self.labels = gmm.sample_memberships(self.rng, self.points, self.state)
        self.iteration += 1

    def run(self, iterations: int) -> "ReferenceGMM":
        for _ in range(iterations):
            self.step()
        return self

    def log_likelihood(self) -> float:
        return gmm.log_likelihood(self.points, self.state)


class ReferenceLasso:
    """Sequential Bayesian Lasso sampler (paper Section 6)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                 lam: float = 1.0) -> None:
        self.x = np.asarray(x, dtype=float)
        self.rng = rng
        self.lam = lam
        self.pre = lasso.precompute(self.x, y)
        self.y_centered = np.asarray(y, dtype=float) - self.pre.y_mean
        self.state = lasso.initial_state(rng, self.x.shape[1])
        self.iteration = 0

    def step(self) -> None:
        self.state.tau2_inv = lasso.sample_tau2_inv(self.rng, self.state, self.lam)
        self.state.beta = lasso.sample_beta(self.rng, self.pre, self.state.tau2_inv,
                                            self.state.sigma2)
        rss = lasso.residual_sum_of_squares(self.x, self.y_centered, self.state.beta)
        self.state.sigma2 = lasso.sample_sigma2(self.rng, self.pre.n, self.state, rss)
        self.iteration += 1

    def run(self, iterations: int) -> "ReferenceLasso":
        for _ in range(iterations):
            self.step()
        return self


class ReferenceHMM:
    """Sequential text-HMM sampler with alternating-parity state updates
    (paper Section 7)."""

    def __init__(self, documents: list, vocabulary: int, states: int,
                 rng: np.random.Generator, alpha: float = 1.0, beta: float = 1.0) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.model = hmm.initial_model(rng, states, vocabulary, alpha, beta)
        self.assignments = hmm.initial_assignments(rng, self.documents, states)
        self.iteration = 0

    def step(self) -> None:
        counts = hmm.HMMCounts.zeros(self.model.states, self.vocabulary)
        new_assignments = []
        for words, states in zip(self.documents, self.assignments):
            updated = hmm.resample_document_states(self.rng, words, states,
                                                   self.model, self.iteration)
            new_assignments.append(updated)
            counts = counts.merge(
                hmm.document_counts(words, updated, self.model.states, self.vocabulary)
            )
        self.assignments = new_assignments
        self.model = hmm.resample_model(self.rng, counts, self.alpha, self.beta)
        self.iteration += 1

    def run(self, iterations: int) -> "ReferenceHMM":
        for _ in range(iterations):
            self.step()
        return self

    def log_likelihood(self) -> float:
        return hmm.log_likelihood(self.documents, self.assignments, self.model)


class ReferenceLDA:
    """Sequential non-collapsed LDA sampler (paper Section 8)."""

    def __init__(self, documents: list, vocabulary: int, topics: int,
                 rng: np.random.Generator, alpha: float = 0.5, beta: float = 0.1) -> None:
        self.documents = [np.asarray(d, dtype=int) for d in documents]
        self.vocabulary = vocabulary
        self.rng = rng
        self.alpha = alpha
        self.beta = beta
        self.phi = lda.initial_phi(rng, topics, vocabulary, beta)
        self.thetas = lda.initial_thetas(rng, len(documents), topics, alpha)
        self.assignments: list = [None] * len(documents)
        self.iteration = 0

    def step(self) -> None:
        totals = np.zeros_like(self.phi)
        for j, words in enumerate(self.documents):
            z, theta, counts = lda.resample_document(self.rng, words, self.thetas[j],
                                                     self.phi, self.alpha)
            self.assignments[j] = z
            self.thetas[j] = theta
            totals += counts
        self.phi = lda.resample_phi(self.rng, totals, self.beta)
        self.iteration += 1

    def run(self, iterations: int) -> "ReferenceLDA":
        for _ in range(iterations):
            self.step()
        return self

    def log_likelihood(self) -> float:
        return lda.log_likelihood(self.documents, self.thetas, self.phi)


class ReferenceImputation:
    """Sequential Gaussian-imputation sampler (paper Section 9): a GMM
    sweep plus the conditional-normal imputation step.

    Memberships are drawn from the *observed* coordinates' marginal
    likelihood (censored coordinates marginalized out), so a heavily
    censored point is never locked into whichever cluster first imputed
    it; see :func:`repro.kernels.imputation.marginal_membership_weights`.
    """

    def __init__(self, censored_points: np.ndarray, mask: np.ndarray, clusters: int,
                 rng: np.random.Generator, alpha: float = 1.0) -> None:
        censored_points = np.asarray(censored_points, dtype=float)
        self.mask = np.asarray(mask, dtype=bool)
        self.rng = rng
        # Initialize missing entries at the observed per-dimension means.
        completed = censored_points.copy()
        column_means = np.nanmean(censored_points, axis=0)
        fill = np.broadcast_to(column_means, completed.shape)
        completed[self.mask] = fill[self.mask]
        self.points = completed
        self.prior = gmm.empirical_prior(self.points, clusters, alpha)
        self.state = gmm.initial_state(rng, self.prior)
        self.labels = imputation.sample_marginal_memberships(
            rng, self.points, self.mask, self.state
        )
        self.iteration = 0

    def step(self) -> None:
        """Impute, then run the GMM sweep on the completed data."""
        self.points = imputation.impute_points(self.rng, self.points, self.mask,
                                               self.labels, self.state)
        stats = gmm.sufficient_statistics(self.points, self.labels, self.state)
        for k in range(self.state.clusters):
            mu, sigma = gmm.update_cluster(
                self.rng, self.prior, self.state.covariances[k],
                stats.counts[k], stats.sums[k], stats.scatters[k],
            )
            self.state.means[k] = mu
            self.state.covariances[k] = sigma
        self.state.pi = gmm.sample_pi(self.rng, self.prior, stats.counts)
        self.labels = imputation.sample_marginal_memberships(
            self.rng, self.points, self.mask, self.state
        )
        self.iteration += 1

    def run(self, iterations: int) -> "ReferenceImputation":
        for _ in range(iterations):
            self.step()
        return self
