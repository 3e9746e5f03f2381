"""Property suite: each invariant checked on at least 200 random cases."""

import numpy as np
import pytest

from rfcpca.core import (
    MAX_ITER,
    _alternate,
    _Prepared,
    _subspaces_from_weights,
    fit_fcpca,
    init_memberships,
    ratio_memberships,
)
from rfcpca.analysis import channel_contributions, principal_angles
from rfcpca.dataset import MtsDataset
from rfcpca.robust import (
    _noise_augment,
    exponential_loss,
    fit_rfcpca_e,
    fit_rfcpca_n,
    fit_rfcpca_t,
)
from rfcpca.rng import make_rng
from rfcpca.simulate import generate_clean_dataset, inject_bursts, replay_contamination
from scipy import signal

N_CASES = 200


def tiny_dataset(rng, n=None, p=None, t=None):
    n = n or int(rng.integers(4, 7))
    p = p or int(rng.integers(2, 4))
    t = t or int(rng.integers(30, 61))
    return MtsDataset(series=[rng.standard_normal((t, p)) for _ in range(n)])


def tiny_ar_dataset(rng, n=None, p=None, t=None):
    # strongly serially correlated channels so the block spectra decay and
    # the retained subspaces never span the whole space (errors stay
    # positive, which the exponential variant's scale estimate requires)
    n = n or int(rng.integers(4, 7))
    p = p or int(rng.integers(3, 5))
    t = t or int(rng.integers(40, 71))
    series = []
    for _ in range(n):
        eps = rng.standard_normal((t + 30, p))
        series.append(signal.lfilter([1.0], [1.0, -0.9], eps, axis=0)[30:])
    return MtsDataset(series=series)


def test_membership_updates_row_stochastic():
    rng = make_rng(500)
    for _ in range(N_CASES):
        n, s = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        errors = rng.random((n, s)) * 10
        errors[rng.random((n, s)) < 0.05] = 0.0  # exercise the zero convention
        m = float(rng.uniform(1.1, 2.5))
        for u in (
            ratio_memberships(errors, m),
            ratio_memberships(exponential_loss(errors, float(rng.uniform(0.1, 2))), m),
            ratio_memberships(_noise_augment(errors, float(rng.uniform(0.5, 5))), m),
        ):
            assert u.min() >= 0.0 and u.max() <= 1.0 + 1e-12
            np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)


def test_fits_preserve_row_stochastic_memberships():
    rng = make_rng(501)
    for case in range(N_CASES // 4):
        dataset = tiny_ar_dataset(rng)
        for fit in (
            fit_fcpca(dataset, 2, m=1.6, seed=case),
            fit_rfcpca_e(dataset, 2, m=1.6, seed=case),
            fit_rfcpca_n(dataset, 2, m=1.6, lam=0.5, seed=case),
            fit_rfcpca_t(dataset, 2, m=1.6, alpha=0.25, seed=case),
        ):
            u = fit.memberships.u
            assert u.min() >= 0.0 and u.max() <= 1.0 + 1e-12
            np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)


def test_fcpca_objective_monotone_non_increasing():
    rng = make_rng(502)
    for case in range(N_CASES):
        dataset = tiny_dataset(rng)
        fit = fit_fcpca(dataset, 2, m=float(rng.uniform(1.3, 2.5)), seed=case)
        trace = np.asarray(fit.objective_trace)
        slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)


def test_projectors_symmetric_idempotent():
    rng = make_rng(503)
    checked = 0
    while checked < N_CASES:
        dataset = tiny_dataset(rng)
        prep = _Prepared(dataset, 2)
        u = init_memberships(dataset.n_series, 2, seed=checked, m=1.8)
        subs = _subspaces_from_weights(prep.blocks, u.u, u.m, float(rng.uniform(0.7, 1.0)))
        for s in range(2):
            for lag_idx in range(2):
                p_mat = subs.projector(s, lag_idx)
                k = subs.axes[s][lag_idx].shape[1]
                assert np.abs(p_mat - p_mat.T).max() < 1e-12
                assert np.linalg.norm(p_mat @ p_mat - p_mat) <= 1e-8
                assert np.trace(p_mat) == pytest.approx(k, abs=1e-8)
                checked += 1


def test_exponential_loss_bounded_by_one():
    rng = make_rng(504)
    for _ in range(N_CASES):
        errors = rng.random((6, 3)) * 10.0 ** float(rng.integers(-3, 6))
        beta = float(10 ** rng.uniform(-3, 3))
        loss = exponential_loss(errors, beta)
        assert np.all(loss >= 0.0) and np.all(loss <= 1.0)


def test_zero_trimming_bit_identical_to_baseline():
    rng = make_rng(505)
    for case in range(N_CASES // 2):
        dataset = tiny_dataset(rng)
        m = float(rng.uniform(1.2, 2.5))
        base = fit_fcpca(dataset, 2, m=m, seed=case)
        trim = fit_rfcpca_t(dataset, 2, m=m, alpha=0.0, seed=case)
        assert np.array_equal(base.memberships.u, trim.memberships.u)
        assert np.array_equal(base.errors, trim.errors)
        assert base.objective_trace == trim.objective_trace
        for s in range(2):
            for lag_idx in range(2):
                assert np.array_equal(base.subspaces.axes[s][lag_idx],
                                      trim.subspaces.axes[s][lag_idx])


def test_permutation_equivariance_of_cluster_labels():
    # swapping the two initial membership columns of the alternation that
    # every fit runs swaps the fitted clusters; with two clusters every
    # per-row reduction is order-free, so the swap is exact
    rng = make_rng(506)
    for case in range(N_CASES):
        prep = _Prepared(tiny_dataset(rng), 2)
        u0 = init_memberships(prep.n_series, 2, seed=case, m=1.7).u
        run_a = _alternate(prep, u0, 1.7, 0.95, MAX_ITER)
        run_b = _alternate(prep, u0[:, ::-1].copy(), 1.7, 0.95, MAX_ITER)
        ua, ub = run_a.u, run_b.u
        assert np.array_equal(ua, ub[:, ::-1])
        # argmax ties break toward index 0 in both runs, so compare labels
        # only where the row has a strict maximum
        strict = ua[:, 0] != ua[:, 1]
        assert np.array_equal(ua.argmax(axis=1)[strict], 1 - ub.argmax(axis=1)[strict])
        for s in range(2):
            for lag_idx in range(2):
                assert np.array_equal(run_a.subspaces.axes[s][lag_idx],
                                      run_b.subspaces.axes[1 - s][lag_idx])


def test_simgen_determinism_and_replay_exactness():
    rng = make_rng(507)
    for case in range(N_CASES):
        p = int(rng.integers(4, 9))
        t = int(rng.integers(80, 140))
        a_clean, a_man = generate_clean_dataset(2, p, t, seed=case)
        b_clean, b_man = generate_clean_dataset(2, p, t, seed=case)
        for xa, xb in zip(a_clean.series, b_clean.series):
            assert np.array_equal(xa, xb)
        assert a_man.to_json() == b_man.to_json()
        a_dirty, man = inject_bursts(a_clean, a_man, rho=0.5, seed=case + 1)
        b_dirty, _ = inject_bursts(b_clean, b_man, rho=0.5, seed=case + 1)
        replayed = replay_contamination(a_clean, man)
        for xa, xb, xr in zip(a_dirty.series, b_dirty.series, replayed.series):
            assert np.array_equal(xa, xb)
            assert np.array_equal(xa, xr)
        clean_idx = sorted(set(range(a_clean.n_series)) - set(man.contaminated))
        for i in clean_idx:
            assert np.array_equal(a_dirty.series[i], a_clean.series[i])


def test_principal_angle_symmetry_and_rotation_invariance():
    rng = make_rng(508)
    for _ in range(N_CASES):
        d = int(rng.integers(4, 9))
        ka = int(rng.integers(1, d // 2 + 1))
        kb = int(rng.integers(1, d // 2 + 1))
        qa, _ = np.linalg.qr(rng.standard_normal((d, ka)))
        qb, _ = np.linalg.qr(rng.standard_normal((d, kb)))
        np.testing.assert_allclose(principal_angles(qa, qb), principal_angles(qb, qa),
                                   atol=1e-9)
        rot, _ = np.linalg.qr(rng.standard_normal((ka, ka)))
        np.testing.assert_allclose(principal_angles(qa @ rot, qb),
                                   principal_angles(qa, qb), atol=1e-9)


def test_channel_contribution_trace_identity():
    rng = make_rng(509)
    for _ in range(N_CASES):
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, 2 * p + 1))
        q, _ = np.linalg.qr(rng.standard_normal((2 * p, k)))
        contrib = channel_contributions(q, p)
        assert contrib.sum() == pytest.approx(k, abs=1e-10)
