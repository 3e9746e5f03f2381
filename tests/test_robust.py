from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import rfcpca.core as core_mod
import rfcpca.robust as robust_mod
from conftest import full_blocks, planted_dataset, planted_with_outliers
from rfcpca.core import (
    _Prepared,
    _subspaces_from_weights,
    _trim_mask,
    fit_fcpca,
    init_memberships,
    ratio_memberships,
)
from rfcpca.covariance import weighted_common_covariance
from rfcpca.evaluation import rand_index
from rfcpca.exceptions import DegenerateScale, EmptyClusterError, InvalidShape, TooFewRetained
from rfcpca.rng import derive_seed, make_rng
from rfcpca.robust import (
    _ELBOW_STREAM,
    DEFAULT_LAMBDA_GRID,
    RESTARTS,
    _best_restart,
    _burn_in,
    _exponential_weights,
    _noise_augment,
    estimate_beta,
    exponential_loss,
    fit_rfcpca_e,
    fit_rfcpca_n,
    fit_rfcpca_t,
    select_lambda_elbow,
    update_noise_distance,
)
from rfcpca.selection import _GRID_STREAM


class TestBeta:
    def test_constant_minima(self):
        errors = np.array([[2.0, 5.0], [2.0, 9.0], [7.0, 2.0]])
        assert estimate_beta(errors) == pytest.approx(0.5)

    def test_mean_of_minima(self):
        errors = np.array([[1.0, 8.0], [3.0, 4.0]])
        assert estimate_beta(errors) == pytest.approx(0.5)

    def test_homogeneity(self):
        rng = make_rng(30)
        errors = rng.random((6, 2)) + 0.1
        assert estimate_beta(errors * 3.0) == pytest.approx(estimate_beta(errors) / 3.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateScale):
            estimate_beta(np.zeros((4, 2)))


class TestExponentialUpdate:
    def test_equal_errors_uniform(self):
        u = ratio_memberships(exponential_loss(np.array([[3.0, 3.0, 3.0]]), 1.0), 2.0)
        np.testing.assert_allclose(u, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_closed_form(self):
        u = ratio_memberships(exponential_loss(np.array([[1.0, 4.0]]), 1.0), 2.0)
        expected = (1 - np.exp(-4.0)) / ((1 - np.exp(-1.0)) + (1 - np.exp(-4.0)))
        assert u[0, 0] == pytest.approx(expected, abs=1e-9)
        assert u[0, 0] == pytest.approx(0.6082, abs=5e-4)

    def test_saturation_limit(self):
        u = ratio_memberships(exponential_loss(np.array([[4e3, 9e3]]), 1.0), 2.0)
        np.testing.assert_allclose(u, [[0.5, 0.5]], atol=1e-6)

    def test_loss_bounded(self):
        # mathematically in [0, 1); floating point saturates at exactly 1.0
        rng = make_rng(31)
        loss = exponential_loss(rng.random((10, 3)) * 100, 0.7)
        assert np.all(loss >= 0.0) and np.all(loss <= 1.0)
        assert np.all(exponential_loss(rng.random((10, 3)), 0.7) < 1.0)

    def test_invariance_to_scale_tradeoff(self):
        rng = make_rng(32)
        errors = rng.random((5, 3)) + 0.5
        a = ratio_memberships(exponential_loss(errors, 2.0), 1.8)
        b = ratio_memberships(exponential_loss(errors * 4.0, 0.5), 1.8)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_matches_reference(self):
        rng = make_rng(33)
        errors = rng.random((6, 3)) * 5
        np.testing.assert_allclose(ratio_memberships(exponential_loss(errors, 0.8), 1.5),
                                   ref.ref_update_exponential(errors, 1.5, 0.8), atol=1e-10)


class TestExponentialWeights:
    def test_weights_survive_underflow_of_every_factor(self):
        dataset, _ = planted_dataset(37)
        blocks = _Prepared(dataset, 2).blocks
        n, m, beta = dataset.n_series, 2.0, 1.0
        u = init_memberships(n, 2, 5, m).u
        errors = 800.0 + make_rng(38).random((n, 2)) * 40.0
        assert np.all(np.exp(-beta * errors) == 0.0)
        with pytest.raises(EmptyClusterError):
            _subspaces_from_weights(blocks, u * np.exp(-beta * errors / m), m, 0.9)
        weights = _exponential_weights(u, errors, beta, m)
        log_w = m * np.log(u) - beta * errors
        expected = np.exp(log_w - log_w.max(axis=0))
        for s in range(2):
            for lag in range(2):
                got = weighted_common_covariance(blocks[lag], weights[:, s], m)
                want = np.einsum("i,ijk->jk", expected[:, s], full_blocks(blocks[lag]))
                np.testing.assert_allclose(got, want / expected[:, s].sum(),
                                           rtol=1e-10, atol=1e-12)
        _subspaces_from_weights(blocks, weights, m, 0.9)


class TestNoiseUpdate:
    def test_error_at_noise_distance_splits(self):
        u = ratio_memberships(_noise_augment(np.array([[4.0]]), 4.0), 2.0)
        np.testing.assert_allclose(u, [[0.5, 0.5]])

    def test_closed_form(self):
        u = ratio_memberships(_noise_augment(np.array([[1.0]]), 4.0), 2.0)
        np.testing.assert_allclose(u, [[0.8, 0.2]], atol=1e-12)

    def test_noise_absorbs_distant_objects(self):
        u = ratio_memberships(_noise_augment(np.array([[1e6, 2e6]]), 1.0), 1.5)
        assert u[0, -1] > 0.99

    def test_rows_sum_to_one(self):
        rng = make_rng(34)
        u = ratio_memberships(_noise_augment(rng.random((8, 2)) * 3, 0.7), 1.3)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
        assert u.min() >= 0.0

    def test_noise_membership_monotone_in_delta(self):
        errors = np.array([[2.0, 5.0]])
        values = [ratio_memberships(_noise_augment(errors, d), 2.0)[0, -1]
                  for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_reference(self):
        rng = make_rng(35)
        errors = rng.random((6, 2)) * 5 + 0.1
        np.testing.assert_allclose(ratio_memberships(_noise_augment(errors, 2.2), 1.4),
                                   ref.ref_update_noise(errors, 1.4, 2.2), atol=1e-10)


class TestNoiseDistance:
    def test_all_ones(self):
        errors = np.ones((7, 3))
        assert update_noise_distance(errors, 2.5) == pytest.approx(2.5)

    def test_hand_sum(self):
        errors = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert update_noise_distance(errors, 1.0) == pytest.approx(2.5)

    def test_linear_in_lambda_and_permutation_invariant(self):
        rng = make_rng(36)
        errors = rng.random((6, 2))
        d1 = update_noise_distance(errors, 1.0)
        assert update_noise_distance(errors, 2.0) == pytest.approx(2 * d1)
        perm = rng.permutation(6)
        assert update_noise_distance(errors[perm], 1.0) == pytest.approx(d1)

    def test_degenerate(self):
        with pytest.raises(DegenerateScale):
            update_noise_distance(np.zeros((3, 2)), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
    def test_lambda_must_be_positive(self, lam):
        with pytest.raises(ValueError, match="positive"):
            update_noise_distance(np.ones((3, 2)), lam)

    @pytest.mark.parametrize("lam", [1e308, np.float64(1e308)], ids=["float", "numpy"])
    def test_overflow_is_degenerate(self, lam):
        # lam * sum(errors) = 6e308 is past the largest double
        with pytest.raises(DegenerateScale, match="overflows"):
            update_noise_distance(np.ones((3, 2)), lam)


class TestTrimSet:
    def test_no_trimming(self):
        mask = _trim_mask(np.array([3.0, 1.0, 2.0]), 3)
        assert list(np.flatnonzero(mask)) == [0, 1, 2]

    def test_smallest_losses_kept(self):
        mask = _trim_mask(np.array([5.0, 1.0, 3.0, 2.0]), 2)
        assert list(np.flatnonzero(mask)) == [1, 3]

    def test_tie_break_by_index(self):
        mask = _trim_mask(np.full(4, 2.0), 3)
        assert list(np.flatnonzero(mask)) == [0, 1, 2]


class TestFitExponential:
    def test_matches_baseline_partition_on_clean_data(self):
        dataset, truth = planted_dataset(40)
        base = fit_fcpca(dataset, 2, m=2.0, seed=3)
        fit = fit_rfcpca_e(dataset, 2, m=2.0, seed=3)
        labels = np.argmax(fit.memberships.u, axis=1)
        assert rand_index(labels, np.argmax(base.memberships.u, axis=1)) == 1.0
        assert rand_index(labels, truth) == 1.0

    def test_single_cluster_converges_fast(self):
        dataset, _ = planted_dataset(41)
        fit = fit_rfcpca_e(dataset, 1, m=2.0, seed=0)
        assert fit.iterations <= 2

    def test_objective_bounded_by_n(self):
        dataset, _ = planted_dataset(42)
        fit = fit_rfcpca_e(dataset, 2, m=1.5, seed=1)
        assert all(0.0 <= j <= dataset.n_series for j in fit.objective_trace)

    def test_corrupted_series_loses_dominance(self):
        dataset, outliers = planted_with_outliers(43, n_clean_per_group=4, n_outliers=1)
        fit = fit_rfcpca_e(dataset, 2, m=2.0, seed=2)
        clean = [i for i in range(dataset.n_series) if i not in outliers]
        assert fit.memberships.u[outliers[0]].max() < 0.70
        labels = np.argmax(fit.memberships.u, axis=1)[clean]
        assert rand_index(labels, dataset.labels[clean]) == 1.0

    def test_subspace_step_reweighted_by_previous_errors(self, monkeypatch):
        calls = {"weights": [], "errors": [], "u": []}

        def record(name, fn):
            def wrapped(*args):
                out = fn(*args)
                calls[name].append((args[1] if name == "weights" else out).copy())
                return out
            monkeypatch.setattr(core_mod, fn.__name__, wrapped)

        record("weights", core_mod._subspaces_from_weights)
        record("errors", core_mod._errors_from_grams)
        record("u", core_mod.ratio_memberships)
        dataset, _ = planted_with_outliers(43, n_clean_per_group=4, n_outliers=2)
        m = 2.2
        fit = fit_rfcpca_e(dataset, 2, m=m, seed=2)
        beta = fit.variant_params["beta"]
        assert fit.iterations >= 3
        assert len(calls["weights"]) == fit.iterations
        np.testing.assert_array_equal(calls["weights"][0],
                                      init_memberships(dataset.n_series, 2, 2, m).u)
        for k in range(1, fit.iterations):
            target = calls["u"][k - 1] ** m * np.exp(-beta * calls["errors"][k - 1])
            ratio = calls["weights"][k] ** m / target
            for s in range(2):
                anchor = ratio[np.argmax(target[:, s]), s]
                np.testing.assert_allclose(ratio[:, s], anchor, rtol=1e-12, atol=0)


class TestFitNoise:
    def test_clean_data_no_outliers(self):
        dataset, truth = planted_dataset(44)
        fit = fit_rfcpca_n(dataset, 2, m=2.0, lam=1.0, seed=3)
        assert len(fit.flagged) == 0
        labels = np.argmax(fit.memberships.u[:, :2], axis=1)
        assert rand_index(labels, truth) == 1.0

    def test_huge_lambda_recovers_baseline_partition(self):
        dataset, truth = planted_dataset(45)
        fit = fit_rfcpca_n(dataset, 2, m=2.0, lam=1e9, seed=1)
        assert fit.memberships.u[:, -1].max() < 1e-3
        labels = np.argmax(fit.memberships.u[:, :2], axis=1)
        assert rand_index(labels, truth) == 1.0

    def test_planted_outliers_flagged(self):
        hits = 0
        for seed in range(10):
            dataset, outliers = planted_with_outliers(100 + seed)
            elbow = select_lambda_elbow(dataset, 2, m=2.0, seed=seed)
            fit = fit_rfcpca_n(dataset, 2, m=2.0, lam=elbow.lambda_star, seed=seed)
            if set(outliers).issubset(set(fit.flagged.tolist())):
                hits += 1
        assert hits >= 8

    def test_memberships_row_stochastic(self):
        dataset, _ = planted_dataset(46)
        fit = fit_rfcpca_n(dataset, 2, m=1.5, lam=0.5, seed=0)
        np.testing.assert_allclose(fit.memberships.u.sum(axis=1), 1.0, atol=1e-9)

    def test_no_regular_cluster_is_invalid_shape(self):
        dataset, _ = planted_dataset(46)
        with pytest.raises(InvalidShape):
            fit_rfcpca_n(dataset, 0, lam=0.5)

    @pytest.mark.parametrize("fit, option", [
        (fit_fcpca, "m"), (fit_rfcpca_e, "m"), (fit_rfcpca_t, "m"), (fit_rfcpca_n, "m"),
        (fit_rfcpca_n, "lam"), (select_lambda_elbow, "m")])
    def test_nan_m_or_lambda_is_a_value_error_before_any_fit(self, monkeypatch, fit, option):
        def no_step(*args):
            raise AssertionError("a subspace step ran")

        monkeypatch.setattr(core_mod, "_subspaces_from_weights", no_step)
        monkeypatch.setattr(robust_mod, "_subspaces_from_weights", no_step)
        dataset, _ = planted_dataset(46)
        with pytest.raises(ValueError, match="must"):
            fit(dataset, 2, **{option: np.nan})


def _stub_fit(converged, objective):
    return SimpleNamespace(converged=converged, objective_trace=[9.0, objective])


class TestBestRestart:
    """The one rule that picks a restart, for the grid and the elbow baseline."""

    @staticmethod
    def outcomes(*results):
        def fit(seed):
            if isinstance(results[seed], Exception):
                raise results[seed]
            return results[seed]
        return fit

    def test_converged_beats_lower_objective_and_failures_are_skipped(self):
        fits = [_stub_fit(True, 5.0), _stub_fit(False, 1.0),
                EmptyClusterError("cluster 1 emptied"), _stub_fit(True, 4.0)]
        best, failure = _best_restart(self.outcomes(*fits), range(4))
        assert best is fits[3]
        assert failure is fits[2]

    def test_all_failing_gives_none_and_the_last_failure(self):
        errors = [EmptyClusterError("a"), TooFewRetained("b"), DegenerateScale("c")]
        best, failure = _best_restart(self.outcomes(*errors), range(3))
        assert best is None
        assert failure is errors[2]

    def test_tie_keeps_the_earlier_seed(self):
        fits = [_stub_fit(False, 2.0), _stub_fit(True, 3.0), _stub_fit(True, 3.0)]
        best, failure = _best_restart(self.outcomes(*fits), range(3))
        assert best is fits[1]
        assert failure is None

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError):
            _best_restart(self.outcomes(ValueError("bad m")), range(1))


class TestLambdaElbow:
    def test_default_grid_is_twenty_halvings(self):
        assert len(DEFAULT_LAMBDA_GRID) == 20
        assert DEFAULT_LAMBDA_GRID[0] == 1.0
        np.testing.assert_allclose(np.diff(np.log2(DEFAULT_LAMBDA_GRID)), -1.0)

    def test_clean_data_flat_prefix_and_star_before_jump(self):
        dataset, _ = planted_dataset(48)
        elbow = select_lambda_elbow(dataset, 2, m=2.0, seed=4)
        lams, fracs = zip(*elbow.curve)
        assert fracs[0] == 0.0
        if not elbow.no_elbow:
            jumps = np.diff(fracs)
            pre = int(np.argmax(jumps))
            assert elbow.lambda_star == lams[pre]

    def test_shared_burn_in_matches_per_lambda_burn_in(self):
        # the sweep burns in once; each grid fit burning in on its own from
        # the same baseline must trace the same curve (on this dataset the
        # curve and lambda_star change when the burn-in is skipped)
        dataset, _ = planted_with_outliers(51)
        prep = _Prepared(dataset, 2)
        elbow = select_lambda_elbow(prep, 2, m=2.0, seed=6)
        # the baseline by the grid's restart rule
        base, _ = _best_restart(lambda child: fit_fcpca(prep, 2, m=2.0, seed=child),
                                [derive_seed(6, _ELBOW_STREAM, 999, r) for r in range(RESTARTS)])
        fractions = []
        for k, lam in enumerate(DEFAULT_LAMBDA_GRID):
            own = _burn_in(prep, base.memberships.u, 2, 2.0, 0.95)
            fit = fit_rfcpca_n(prep, 2, m=2.0, lam=lam,
                               seed=derive_seed(6, _ELBOW_STREAM, k), _start_state=own)
            fractions.append(len(fit.flagged) / dataset.n_series)
        assert elbow.curve == list(zip(DEFAULT_LAMBDA_GRID, fractions))
        jumps = np.diff(fractions)
        assert not np.all(jumps == 0.0)
        assert elbow.lambda_star == DEFAULT_LAMBDA_GRID[int(np.argmax(jumps))]

    def test_shared_first_subspaces_leave_fit_unchanged(self):
        # the sweep computes the first subspace step of its shared start once;
        # a run given it must match one that computes it from its own weights
        dataset, _ = planted_with_outliers(52)
        prep = _Prepared(dataset, 2)
        u = init_memberships(prep.n_series, 2, 3, 2.0).u
        own = core_mod._alternate(prep, u, 2.0, 0.95, core_mod.MAX_ITER)
        shared = core_mod._alternate(prep, u, 2.0, 0.95, core_mod.MAX_ITER,
                                     first_subspaces=_subspaces_from_weights(
                                         prep.blocks, u, 2.0, 0.95))
        assert np.array_equal(own.u, shared.u)
        assert np.array_equal(own.errors, shared.errors)
        assert own.trace == shared.trace
        # the noise loss, from the burn-in's pair: its subspaces are those of
        # the regular columns, the ones that own a subspace
        base = fit_fcpca(prep, 2, m=2.0, seed=3)
        start, first = _burn_in(prep, base.memberships.u, 2, 2.0, 0.95)
        recomputed = _subspaces_from_weights(prep.blocks, start[:, :2], 2.0, 0.95)
        for lam in (1.0, 0.25, 0.03125):
            own = fit_rfcpca_n(prep, 2, m=2.0, lam=lam, _start_state=(start, recomputed))
            shared = fit_rfcpca_n(prep, 2, m=2.0, lam=lam, _start_state=(start, first))
            assert np.array_equal(own.memberships.u, shared.memberships.u)
            assert np.array_equal(own.errors, shared.errors)
            assert own.objective_trace == shared.objective_trace
            assert own.variant_params == shared.variant_params
            assert shared.subspaces.n_clusters == 2

    def test_own_start_is_the_burn_in_of_the_random_start(self):
        # a noise fit burns in its own random start through _burn_in, the
        # one builder of the start state the sweep hands every grid fit
        dataset, _ = planted_with_outliers(53)
        prep = _Prepared(dataset, 2)
        for seed, lam in ((4, 1.0), (5, 0.125)):
            own = fit_rfcpca_n(prep, 2, m=1.6, v=0.9, lam=lam, seed=seed)
            u = init_memberships(prep.n_series, 3, seed, 1.6).u
            given = fit_rfcpca_n(prep, 2, m=1.6, v=0.9, lam=lam,
                                 _start_state=_burn_in(prep, u, 2, 1.6, 0.9))
            assert np.array_equal(own.memberships.u, given.memberships.u)
            assert np.array_equal(own.errors, given.errors)
            assert own.objective_trace == given.objective_trace
            assert own.variant_params == given.variant_params

    def test_collapsing_burn_in_gives_flat_saturated_curve(self, monkeypatch):
        def collapse(*args, **kwargs):
            raise EmptyClusterError("cluster 0 has no effective members")

        monkeypatch.setattr(robust_mod, "_burn_in", collapse)
        dataset, _ = planted_dataset(48)
        elbow = select_lambda_elbow(dataset, 2, m=2.0, seed=4)
        assert elbow.curve == [(lam, 1.0) for lam in DEFAULT_LAMBDA_GRID]
        assert elbow.no_elbow
        assert elbow.lambda_star == DEFAULT_LAMBDA_GRID[0]

    def test_failed_baseline_restart_is_skipped(self):
        # restart 0 of this sweep's baseline fits, restarts 1 and 2 empty a
        # cluster; the sweep goes on from restart 0
        dataset, _ = planted_with_outliers(21)
        seed = derive_seed(3, _GRID_STREAM, 0)
        failed = 0
        for r in range(3):
            try:
                fit_fcpca(dataset, 2, m=1.4, v=0.99,
                          seed=derive_seed(seed, _ELBOW_STREAM, 999, r))
            except EmptyClusterError:
                failed += 1
        assert failed == 2
        elbow = select_lambda_elbow(dataset, 2, m=1.4, v=0.99, seed=seed)
        assert len(elbow.curve) == len(DEFAULT_LAMBDA_GRID)
        # all three fail at m = 2.0: the sweep raises
        with pytest.raises(EmptyClusterError):
            select_lambda_elbow(dataset, 2, m=2.0, v=0.99, seed=seed)

    def test_curve_saturates_with_outliers(self):
        # gross outliers are flagged from the largest multiplier onward and
        # the noise cluster swallows everything once the multiplier is tiny
        dataset, outliers = planted_with_outliers(49)
        elbow = select_lambda_elbow(dataset, 2, m=2.0, seed=5)
        fracs = [f for _, f in elbow.curve]
        assert fracs[0] <= len(outliers) / dataset.n_series + 0.1
        assert fracs[-1] >= 0.9


class TestFitTrimmed:
    def test_alpha_zero_bit_identical_to_baseline(self):
        dataset, _ = planted_dataset(50)
        base = fit_fcpca(dataset, 2, m=1.7, seed=9)
        trim = fit_rfcpca_t(dataset, 2, m=1.7, alpha=0.0, seed=9)
        assert np.array_equal(base.memberships.u, trim.memberships.u)
        assert np.array_equal(base.errors, trim.errors)
        assert base.objective_trace == trim.objective_trace
        for s in range(2):
            for lag_idx in range(2):
                assert np.array_equal(base.subspaces.axes[s][lag_idx],
                                      trim.subspaces.axes[s][lag_idx])

    def test_planted_pair_trimmed(self):
        hits = 0
        for seed in range(10):
            dataset, outliers = planted_with_outliers(200 + seed)
            fit = fit_rfcpca_t(dataset, 2, m=2.0, alpha=0.2, seed=seed)
            if set(fit.flagged.tolist()) == set(outliers.tolist()):
                hits += 1
        assert hits >= 9

    def test_retained_plus_flagged_partition(self):
        dataset, _ = planted_with_outliers(51)
        fit = fit_rfcpca_t(dataset, 2, m=2.0, alpha=0.3, seed=1)
        retained = set(fit.variant_params["retained"].tolist())
        flagged = set(fit.flagged.tolist())
        assert len(retained) == int(np.floor(dataset.n_series * (1.0 - 0.3)))
        assert retained | flagged == set(range(dataset.n_series))
        assert retained & flagged == set()

    def test_too_few_retained(self):
        dataset, _ = planted_dataset(52, n_per_group=2)
        with pytest.raises(TooFewRetained):
            fit_rfcpca_t(dataset, 3, m=2.0, alpha=0.8, seed=0)
