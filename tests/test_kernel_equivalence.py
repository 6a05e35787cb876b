"""Kernel-layer equivalence: every scalar/batch kernel pair must draw
bitwise-identically.

This is the contract that lets twenty platform implementations share
one sampler library: an engine that folds statistics record-by-record
and one that folds a whole block must reach the same posterior draw.
"""

import numpy as np
import pytest

from repro.impls.simsql.vgs import MultinomialMembershipVG
from repro.kernels import folds, gmm, hmm, imputation, lasso, lda
from repro.stats import MultivariateNormal, make_rng, sample_categorical_rows
from repro.stats.mvn import ROW_STABLE_MAX_DIM
from repro.workloads import generate_gmm_data, generate_lasso_data, generate_lda_corpus

SEED = 20140622


# ----------------------------------------------------------------------
# GMM
# ----------------------------------------------------------------------

@pytest.fixture
def gmm_setup():
    rng = make_rng(SEED)
    data = generate_gmm_data(rng, 40, dim=3, clusters=2)
    prior = gmm.empirical_prior(data.points, 2)
    state = gmm.initial_state(make_rng(SEED + 1), prior)
    return data.points, prior, state


def test_update_cluster_matches_split_draws(gmm_setup):
    points, prior, state = gmm_setup
    labels = gmm.sample_memberships(make_rng(SEED + 2), points, state)
    stats = gmm.sufficient_statistics(points, labels, state)
    for k in range(state.clusters):
        mu_a, sigma_a = gmm.update_cluster(
            make_rng(SEED + k), prior, state.covariances[k],
            stats.counts[k], stats.sums[k], stats.scatters[k])
        rng = make_rng(SEED + k)
        mu_b = gmm.sample_cluster_mean(rng, prior.lambda0, prior.mu0,
                                       state.covariances[k], stats.counts[k],
                                       stats.sums[k])
        sigma_b = gmm.sample_cluster_covariance(rng, prior.psi, prior.v,
                                                stats.counts[k],
                                                stats.scatters[k])
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(sigma_a, sigma_b)


def test_scalar_membership_weights_match_batch(gmm_setup):
    points, _, state = gmm_setup
    batch = gmm.membership_weights(points, state)
    log_pis = [np.log(pi) for pi in state.pi]
    dists = [MultivariateNormal(state.means[k], state.covariances[k])
             for k in range(state.clusters)]
    vectorized = gmm.batch_membership_weights(points, log_pis, dists)
    for j in range(len(points)):
        scalar = gmm.scalar_membership_weights(points[j], log_pis, dists)
        assert np.array_equal(scalar, batch[j])
        assert np.array_equal(scalar, vectorized[j])


def test_add_triples_batch_matches_scalar_fold(gmm_setup):
    points, _, state = gmm_setup
    triples = [gmm.membership_triple(x, state.means[0]) for x in points]
    folded = triples[0]
    for t in triples[1:]:
        folded = gmm.add_triples(folded, t)
    count, sums, scatters = gmm.add_triples_batch(triples)
    assert count == folded[0]
    assert np.array_equal(sums, folded[1])
    assert np.array_equal(scatters, folded[2])


def test_batch_membership_triples_match_scalar(gmm_setup):
    points, _, state = gmm_setup
    labels = gmm.sample_memberships(make_rng(SEED + 2), points, state)
    scatters = gmm.batch_membership_triples(points, labels, state.means)
    for j in range(len(points)):
        _, x, scatter = gmm.membership_triple(points[j], state.means[labels[j]])
        assert np.array_equal(x, points[j])
        assert np.array_equal(scatters[j], scatter)


# ----------------------------------------------------------------------
# Lasso
# ----------------------------------------------------------------------

def test_sample_tau2_inv_matches_element_loop():
    state = lasso.initial_state(make_rng(SEED + 1), 5)
    vector = lasso.sample_tau2_inv(make_rng(SEED + 2), state, lasso.DEFAULT_LAM)
    rng = make_rng(SEED + 2)
    for j in range(5):
        element = lasso.sample_tau2_inv_element(
            rng, float(state.beta[j]), state.sigma2, lasso.DEFAULT_LAM)
        assert vector[j] == element


def test_sample_beta_matches_raw_gram_form():
    data = generate_lasso_data(make_rng(SEED), 30, p=5)
    pre = lasso.precompute(data.x, data.y)
    state = lasso.initial_state(make_rng(SEED + 1), 5)
    combined = lasso.sample_beta(make_rng(SEED + 2), pre, state.tau2_inv,
                                 state.sigma2)
    from_gram = lasso.sample_beta_from(make_rng(SEED + 2), pre.xtx, pre.xty,
                                       state.tau2_inv, state.sigma2)
    assert np.array_equal(combined, from_gram)


# ----------------------------------------------------------------------
# HMM
# ----------------------------------------------------------------------

@pytest.fixture
def hmm_setup():
    corpus = generate_lda_corpus(make_rng(SEED), 8, vocabulary=30, topics=3,
                                 mean_length=20)
    model = hmm.initial_model(make_rng(SEED + 1), 4, 30)
    return corpus.documents, model


def test_resample_model_matches_row_kernels(hmm_setup):
    documents, model = hmm_setup
    assignments = hmm.initial_assignments(make_rng(SEED + 2), documents, 4)
    counts = hmm.HMMCounts.zeros(4, 30)
    for words, states in zip(documents, assignments):
        counts = counts.merge(hmm.document_counts(words, states, 4, 30))
    combined = hmm.resample_model(make_rng(SEED + 3), counts)
    rng = make_rng(SEED + 3)
    for s in range(4):
        psi_s = hmm.resample_emission_row(rng, hmm.DEFAULT_BETA,
                                          counts.emissions[s])
        delta_s = hmm.resample_transition_row(rng, hmm.DEFAULT_ALPHA,
                                              counts.transitions[s])
        assert np.array_equal(combined.psi[s], psi_s)
        assert np.array_equal(combined.delta[s], delta_s)
    delta0 = hmm.resample_delta0(rng, hmm.DEFAULT_ALPHA, counts.starts)
    assert np.array_equal(combined.delta0, delta0)


def test_word_state_weights_match_document_sweep(hmm_setup):
    """The scalar per-word weights rebuild the vectorized sweep exactly."""
    documents, model = hmm_setup
    words = documents[0]
    states = hmm.initial_assignments(make_rng(SEED + 2), [words], 4)[0]
    for iteration in range(2):
        length = len(words)
        positions = np.arange(length)
        update = positions[(positions + 1) % 2 == iteration % 2]
        weights = np.vstack([
            hmm.word_state_weights(
                model, int(words[k]),
                int(states[k - 1]) if k > 0 else None,
                int(states[k + 1]) if k < length - 1 else None)
            for k in update
        ])
        expected = states.copy()
        expected[update] = sample_categorical_rows(make_rng(SEED + 4), weights)
        swept = hmm.resample_document_states(make_rng(SEED + 4), words,
                                             states, model, iteration)
        assert np.array_equal(swept, expected)
        states = swept


def test_resample_documents_batch_matches_scalar_sweep(hmm_setup):
    """The FFBS batch kernel replays the per-document scalar sweep
    bitwise, empty documents included, without forking the stream."""
    documents, model = hmm_setup
    assignments = hmm.initial_assignments(make_rng(SEED + 2), documents, 4)
    values = [(words, states)
              for words, states in zip(documents, assignments)]
    values.append((np.array([], dtype=int), np.array([], dtype=int)))
    for iteration in range(2):
        rng_fast, rng_slow = make_rng(SEED + 5), make_rng(SEED + 5)
        batch = hmm.resample_documents_batch(rng_fast, values, model,
                                             iteration)
        scalar = [hmm.resample_document_states(rng_slow, words, states,
                                               model, iteration)
                  for words, states in values]
        for swept_batch, swept_scalar in zip(batch, scalar):
            assert np.array_equal(swept_batch, swept_scalar)
        assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
        values = [(words, states) for (words, _), states
                  in zip(values, scalar)]


# ----------------------------------------------------------------------
# LDA
# ----------------------------------------------------------------------

@pytest.fixture
def lda_setup():
    corpus = generate_lda_corpus(make_rng(SEED), 10, vocabulary=25, topics=3,
                                 mean_length=15)
    phi = lda.initial_phi(make_rng(SEED + 1), 3, 25)
    thetas = lda.initial_thetas(make_rng(SEED + 2), 10, 3)
    return corpus.documents, phi, thetas


def test_resample_phi_matches_row_loop(lda_setup):
    documents, phi, thetas = lda_setup
    counts = np.zeros_like(phi)
    for j, words in enumerate(documents):
        z, _, doc_counts = lda.resample_document(make_rng(SEED + j), words,
                                                 thetas[j], phi)
        counts += doc_counts
    combined = lda.resample_phi(make_rng(SEED + 3), counts)
    rng = make_rng(SEED + 3)
    for t in range(phi.shape[0]):
        assert np.array_equal(combined[t],
                              lda.resample_phi_row(rng, lda.DEFAULT_BETA,
                                                   counts[t]))


def test_resample_documents_batch_matches_scalar_loop(lda_setup):
    documents, phi, thetas = lda_setup
    values = [(words, thetas[j]) for j, words in enumerate(documents)]
    batch = lda.resample_documents_batch(make_rng(SEED + 3), values, phi)
    rng = make_rng(SEED + 3)
    for (words, theta), (z_batch, theta_batch) in zip(values, batch):
        z, new_theta, _ = lda.resample_document(rng, words, theta, phi)
        assert np.array_equal(z_batch, z)
        assert np.array_equal(theta_batch, new_theta)


def test_word_topic_weights_match_document_rows(lda_setup):
    documents, phi, thetas = lda_setup
    words = documents[0]
    rows = thetas[0][None, :] * phi[:, words].T
    for k, word in enumerate(words):
        assert np.array_equal(lda.word_topic_weights(thetas[0], phi, int(word)),
                              rows[k])


# ----------------------------------------------------------------------
# Imputation
# ----------------------------------------------------------------------

def test_scalar_marginal_weights_match_batch():
    rng = make_rng(SEED)
    data = generate_gmm_data(rng, 30, dim=4, clusters=2)
    mask = rng.uniform(size=data.points.shape) < 0.3
    mask[0] = True  # one fully censored point exercises the prior-only path
    prior = gmm.empirical_prior(data.points, 2)
    state = gmm.initial_state(make_rng(SEED + 1), prior)
    batch = imputation.marginal_membership_weights(data.points, mask, state)
    with np.errstate(divide="ignore"):
        log_pis = [np.log(pi) for pi in state.pi]
    for j in range(len(data.points)):
        scalar = imputation.scalar_marginal_weights(
            data.points[j], mask[j], log_pis,
            [state.means[k] for k in range(2)],
            [state.covariances[k] for k in range(2)])
        assert np.array_equal(scalar, batch[j])


def test_impute_points_batch_matches_scalar():
    """Bulk imputation preserves the scalar per-point (membership,
    conditional-draw) interleave — fully censored and fully observed
    rows included — and leaves the stream in the same state."""
    rng = make_rng(SEED)
    data = generate_gmm_data(rng, 30, dim=4, clusters=2)
    mask = rng.uniform(size=data.points.shape) < 0.3
    mask[0] = True   # fully censored: prior-only conditional
    mask[1] = False  # fully observed: no draw at all
    prior = gmm.empirical_prior(data.points, 2)
    state = gmm.initial_state(make_rng(SEED + 1), prior)
    labels = imputation.sample_marginal_memberships(
        make_rng(SEED + 2), data.points, mask, state)
    rng_fast, rng_slow = make_rng(SEED + 3), make_rng(SEED + 3)
    fast = imputation.impute_points_batch(rng_fast, data.points, mask,
                                          labels, state)
    slow = imputation.impute_points(rng_slow, data.points, mask, labels,
                                    state)
    assert np.array_equal(fast, slow)
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state


# ----------------------------------------------------------------------
# Sparse folds
# ----------------------------------------------------------------------

def test_merge_sparse_batch_matches_scalar_fold():
    rng = make_rng(SEED)
    dicts = [{int(k): float(v) for k, v in
              zip(rng.integers(10, size=5), rng.uniform(size=5))}
             for _ in range(6)]
    folded = dict(dicts[0])
    for d in dicts[1:]:
        folded = folds.merge_sparse(folded, d)
    assert folds.merge_sparse_batch(dicts) == folded


def test_sparse_topic_counts_fast_matches_scalar():
    rng = make_rng(SEED)
    z = rng.integers(4, size=40)
    words = rng.integers(15, size=40)
    fast = folds.sparse_topic_counts_fast(z, words)
    slow = folds.sparse_topic_counts(z, words)
    assert fast == slow


# ----------------------------------------------------------------------
# VG-function batches (the executor's fast path)
# ----------------------------------------------------------------------

def test_multinomial_membership_vg_batch_matches_invoke_loop(gmm_setup):
    points, _, state = gmm_setup
    dim, clusters = points.shape[1], state.clusters
    # Broadcast model tables are the *same list objects* for every
    # group, exactly as the executor hands them out.
    means_rows = [(k, d, float(state.means[k, d]))
                  for k in range(clusters) for d in range(dim)]
    covas_rows = [(k, i, j, float(state.covariances[k, i, j]))
                  for k in range(clusters)
                  for i in range(dim) for j in range(dim)]
    probs_rows = [(k, float(state.pi[k])) for k in range(clusters)]
    grouped = [
        ((j,), {"point": [(d, float(points[j, d])) for d in range(dim)],
                "means": means_rows, "covas": covas_rows,
                "probs": probs_rows})
        for j in range(len(points))
    ]
    vg_batch = MultinomialMembershipVG(make_rng(SEED + 8))
    vg_loop = MultinomialMembershipVG(make_rng(SEED + 8))
    batch = vg_batch.invoke_batch(None, grouped)
    loop = [key + tuple(out)
            for key, params in grouped
            for out in vg_loop.invoke(None, params)]
    assert batch == loop
    assert vg_batch.rng.bit_generator.state == vg_loop.rng.bit_generator.state


def test_multinomial_membership_vg_declines_above_row_stable_dim():
    """Past the bitwise row-decomposable solve width, the batch must
    hand back to the per-point loop rather than risk divergent draws."""
    wide = [(d, 0.0) for d in range(ROW_STABLE_MAX_DIM + 1)]
    vg = MultinomialMembershipVG(make_rng(SEED + 9))
    assert vg.invoke_batch(None, [((0,), {"point": wide})]) is None


# ----------------------------------------------------------------------
# Registry-wide golden sweep: every cell, fast vs slow, bitwise
# ----------------------------------------------------------------------

from repro import fastpath  # noqa: E402
from repro.cluster.machine import ClusterSpec  # noqa: E402
from repro.cluster.tracer import Tracer  # noqa: E402
from repro.impls.registry import (  # noqa: E402
    NO_BATCH_TWIN,
    cells,
    coverage_workloads,
    data_factory,
)


@pytest.fixture(scope="module")
def registry_data():
    return coverage_workloads(SEED)


def _run_cell(factory, fast: bool, iterations: int = 2):
    """One full run of a cell; (phase event streams, end rng state)."""
    with fastpath.fast_path(fast):
        tracer = Tracer()
        impl = factory(ClusterSpec(machines=3), tracer)
        with tracer.phase("init"):
            impl.initialize()
        for i in range(iterations):
            with tracer.phase(f"iteration-{i}"):
                impl.iterate(i)
    events = [(p.name, p.events, p.memory) for p in tracer.phases]
    return events, impl.rng.bit_generator.state


@pytest.mark.parametrize("platform, model, variant", cells())
def test_registry_cell_fast_path_is_bitwise(registry_data, platform, model,
                                            variant):
    """Every registered cell must (a) reach a batch fast path or explicit
    decline guard exactly when it is not in ``NO_BATCH_TWIN`` and (b)
    replay the scalar run bitwise — identical cost-event streams and
    identical end-of-run rng state."""
    factory = data_factory(platform, model, variant, *registry_data[model],
                           seed=SEED)
    fastpath.reset_counters()
    fast_events, fast_rng = _run_cell(factory, fast=True)
    counts = fastpath.counters()
    slow_events, slow_rng = _run_cell(factory, fast=False)
    fired = bool(counts["batch"] or counts["decline"])
    if (platform, model, variant) in NO_BATCH_TWIN:
        assert not fired, (
            f"{platform}/{model}/{variant} is in NO_BATCH_TWIN but fired "
            f"{counts}: the entry is stale")
    else:
        assert fired, (
            f"{platform}/{model}/{variant} never reached a batch fast path "
            "or decline guard and is not in NO_BATCH_TWIN")
    assert fast_events == slow_events, (
        f"{platform}/{model}/{variant}: cost events diverged under the "
        "fast path")
    assert fast_rng == slow_rng, (
        f"{platform}/{model}/{variant}: rng stream diverged under the "
        "fast path")
