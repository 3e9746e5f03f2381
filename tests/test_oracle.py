"""Oracle equivalence: the code the fits run against a naive reference.

Twenty seeded small instances; the prepared summaries, the reconstruction
errors, the membership updates of every loss policy and the fitted
memberships must match the straight-from-the-equations implementation in
reference.py within 1e-8 relative error (mixed with a matching absolute
floor for near-zero values).
"""

import numpy as np
import pytest

import reference as ref
from rfcpca.core import _errors_from_grams, _Prepared, fit_fcpca, ratio_memberships
from rfcpca.covariance import ClusterSubspaces, common_axes, weighted_common_covariance
from rfcpca.dataset import MtsDataset
from rfcpca.evaluation import adjusted_rand_index, rand_index
from rfcpca.exceptions import DegenerateSeparation
from rfcpca.robust import (
    _noise_augment,
    estimate_beta,
    exponential_loss,
    fit_rfcpca_e,
    fit_rfcpca_n,
    update_noise_distance,
)
from rfcpca.rng import make_rng
from rfcpca.selection import cvi, prototype_separation

RTOL = 1e-8
N_INSTANCES = 20


def random_instance(seed):
    rng = make_rng(seed)
    n = int(rng.integers(4, 7))
    p = int(rng.integers(2, 4))
    t = int(rng.integers(20, 51))
    series = [rng.standard_normal((t, p)) for _ in range(n)]
    u = rng.random((n, 2))
    u /= u.sum(axis=1, keepdims=True)
    m = float(rng.uniform(1.2, 2.5))
    return MtsDataset(series=series), u, m, rng


def _close(a, b, scale=1.0):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_oracle_equivalence(seed):
    dataset, u, m, rng = random_instance(900 + seed)
    n = dataset.n_series
    prep = _Prepared(dataset, 2)
    scale = float(prep.energies.sum(axis=1).mean())

    # second-order summaries as the fits hold them
    embeddings = [[ref.ref_embedding(x, lag) for lag in (1, 2)] for x in dataset.series]
    blocks_ref = np.array([[ref.ref_block(x, lag) for x in dataset.series] for lag in (1, 2)])
    for i, x in enumerate(dataset.series):
        p = x.shape[1]
        for lag in (1, 2):
            row = prep.blocks[lag - 1, i]
            _close(row, blocks_ref[lag - 1, i, :p])
            _close(row[:, :p], ref.ref_lagged_cov(x, 0))
            _close(row[:, p:], ref.ref_lagged_cov(x, lag))
            emb = embeddings[i][lag - 1]
            energy = float((emb * emb).sum())
            _close(prep.grams[lag - 1, i], emb.T @ emb, scale=energy)
            assert prep.energies[i, lag - 1] == pytest.approx(energy, rel=RTOL)

    # weighted common covariance, axes, projectors, reconstruction errors; the
    # reference averages its own square blocks, so the mirrored half is checked too
    errors_ref = np.zeros((n, 2))
    axes = []
    for s in range(2):
        axes_per_lag = []
        for lag_idx in range(2):
            sigma_mine = weighted_common_covariance(prep.blocks[lag_idx], u[:, s], m)
            sigma_ref = ref.ref_weighted_cov(blocks_ref[lag_idx], u[:, s], m)
            _close(sigma_mine, sigma_ref, scale=np.abs(sigma_ref).max())
            c = common_axes(sigma_mine, 0.95)
            _close(c @ c.T, ref.ref_projector(sigma_ref, 0.95), scale=1.0)
            axes_per_lag.append(c)
        axes.append(axes_per_lag)
        for i in range(n):
            errors_ref[i, s] = ref.ref_recon_error(embeddings[i], axes_per_lag)
    _close(_errors_from_grams(prep, ClusterSubspaces(axes=axes)), errors_ref, scale=scale)

    # membership updates as the three loss policies form them, beta, noise distance
    err = errors_ref + 1e-9  # keep strictly positive for the ratio formulas
    _close(ratio_memberships(err, m), ref.ref_update_fcpca(err, m))
    beta = estimate_beta(err)
    assert beta == pytest.approx(ref.ref_beta(err), rel=RTOL)
    _close(ratio_memberships(exponential_loss(err, beta), m),
           ref.ref_update_exponential(err, m, beta))
    lam = float(rng.uniform(0.05, 1.0))
    delta_sq = update_noise_distance(err[:, :1], lam)
    assert delta_sq == pytest.approx(ref.ref_delta_sq(err[:, :1], lam), rel=RTOL)
    _close(ratio_memberships(_noise_augment(err[:, :1], delta_sq), m),
           ref.ref_update_noise(err[:, :1], m, delta_sq))

    # fitted memberships follow from the fits' final errors and scales; on
    # white noise only a variance level below 0.95 leaves the errors that
    # the exponential scale needs nonzero
    fit_e = fit_rfcpca_e(dataset, 2, m=m, v=0.7, seed=seed)
    _close(fit_e.memberships.u,
           ref.ref_update_exponential(fit_e.errors, m, fit_e.variant_params["beta"]))
    fit_n = fit_rfcpca_n(dataset, 2, m=m, v=0.7, lam=lam, seed=seed)
    assert fit_n.variant_params["delta_sq"] == pytest.approx(
        ref.ref_delta_sq(fit_n.errors, lam), rel=RTOL)
    _close(fit_n.memberships.u,
           ref.ref_update_noise(fit_n.errors, m, fit_n.variant_params["delta_sq"]))

    # prototype separation and the validity index on a real fit
    fit = fit_fcpca(dataset, 2, m=m, seed=seed)
    _close(fit.memberships.u, ref.ref_update_fcpca(fit.errors, m))
    d_mine = prototype_separation(fit.subspaces)
    proj_fit = [fit.subspaces.projectors(s) for s in range(2)]
    d_ref = ref.ref_dmin(proj_fit)
    assert d_mine == pytest.approx(d_ref, rel=RTOL, abs=1e-12)
    try:
        c_mine = cvi(fit)
        c_ref = ref.ref_cvi(fit.objective_trace[-1], n, d_ref)
        assert c_mine == pytest.approx(c_ref, rel=RTOL)
    except DegenerateSeparation:
        assert d_ref < 1e-12

    # pair-counting agreement indices
    a = rng.integers(0, 3, size=10)
    b = rng.integers(0, 3, size=10)
    assert rand_index(a, b) == pytest.approx(ref.ref_rand_index(a, b), rel=RTOL)
    assert adjusted_rand_index(a, b) == pytest.approx(
        ref.ref_adjusted_rand_index(a, b), rel=RTOL, abs=1e-12)
