import itertools

import numpy as np
import pytest

import reference as ref
from conftest import planted_dataset
from rfcpca.core import (
    FitResult,
    _errors_from_grams,
    _per_object_loss,
    _Prepared,
    _subspaces_from_weights,
    fit_fcpca,
    init_memberships,
    ratio_memberships,
)
from rfcpca.covariance import ClusterSubspaces, common_axes
from rfcpca.dataset import MtsDataset
from rfcpca.evaluation import rand_index
from rfcpca.exceptions import InvalidShape, LagTooLarge, LagTooSmall, NonFiniteInput
from rfcpca.rng import make_rng


class TestInitMemberships:
    def test_single_cluster_all_ones(self):
        u = init_memberships(5, 1, seed=0)
        assert np.all(u.u == 1.0)

    def test_rows_sum_to_one(self):
        u = init_memberships(40, 4, seed=3)
        np.testing.assert_allclose(u.u.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = init_memberships(10, 3, seed=42)
        b = init_memberships(10, 3, seed=42)
        assert np.array_equal(a.u, b.u)

    def test_invalid_shapes(self):
        with pytest.raises(InvalidShape):
            init_memberships(3, 4, seed=0)
        with pytest.raises(InvalidShape):
            init_memberships(3, 0, seed=0)


class TestMembershipUpdate:
    def test_symmetric_errors(self):
        u = ratio_memberships(np.array([[1.0, 1.0]]), 2.0)
        np.testing.assert_allclose(u, [[0.5, 0.5]])

    def test_closed_form(self):
        u = ratio_memberships(np.array([[1.0, 4.0]]), 2.0)
        np.testing.assert_allclose(u, [[0.8, 0.2]], atol=1e-12)

    def test_zero_error_limit(self):
        u = ratio_memberships(np.array([[0.0, 7.0]]), 2.0)
        np.testing.assert_allclose(u, [[1.0, 0.0]])
        u2 = ratio_memberships(np.array([[0.0, 0.0, 3.0]]), 2.0)
        np.testing.assert_allclose(u2, [[0.5, 0.5, 0.0]])

    def test_matches_reference_on_random_errors(self):
        rng = make_rng(21)
        for _ in range(50):
            errors = rng.random((6, 3)) * 10 + 1e-3
            m = float(rng.uniform(1.1, 2.5))
            np.testing.assert_allclose(ratio_memberships(errors, m),
                                       ref.ref_update_fcpca(errors, m), atol=1e-10)

    def test_scale_invariance(self):
        rng = make_rng(22)
        errors = rng.random((5, 3)) + 0.1
        a = ratio_memberships(errors, 1.7)
        b = ratio_memberships(errors * 4.0, 1.7)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestObjective:
    # the objective the fits trace is the sum of the per-object terms
    def test_zero_errors(self):
        u = np.full((3, 2), 0.5)
        assert _per_object_loss(np.zeros((3, 2)), u, 2.0).sum() == 0.0

    def test_one_hot(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        errors = np.array([[2.0, 9.0], [7.0, 3.0]])
        assert _per_object_loss(errors, u, 3.0).sum() == pytest.approx(5.0)

    def test_hand_sum(self):
        u = np.full((2, 2), 0.5)
        errors = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert _per_object_loss(errors, u, 2.0).sum() == pytest.approx(2.5)


class TestUpdateSubspaces:
    def test_single_cluster_reduces_to_plain_average(self):
        rng = make_rng(23)
        dataset = MtsDataset(series=[rng.standard_normal((30, 2)) for _ in range(4)])
        prep = _Prepared(dataset, 2)
        subs = _subspaces_from_weights(prep.blocks, np.ones((4, 1)), 2.0, 0.95)
        for lag_idx in range(2):
            expected = common_axes(prep.blocks[:, lag_idx].mean(axis=0), 0.95)
            np.testing.assert_allclose(subs.axes[0][lag_idx], expected, atol=1e-10)

    def test_crisp_partition_uses_only_members(self):
        rng = make_rng(24)
        dataset = MtsDataset(series=[rng.standard_normal((30, 2)) for _ in range(6)])
        prep = _Prepared(dataset, 2)
        u = np.zeros((6, 2))
        u[:3, 0] = 1.0
        u[3:, 1] = 1.0
        subs = _subspaces_from_weights(prep.blocks, u, 2.0, 0.95)
        expected = common_axes(prep.blocks[:3, 0].mean(axis=0), 0.95)
        np.testing.assert_allclose(subs.axes[0][0], expected, atol=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = make_rng(25)
        dataset = MtsDataset(series=[rng.standard_normal((30, 2)) for _ in range(4)])
        prep = _Prepared(dataset, 2)
        u = rng.random((4, 2))
        u /= u.sum(axis=1, keepdims=True)
        subs = _subspaces_from_weights(prep.blocks, u, 2.0, 0.95)
        for s in range(2):
            for lag_idx in range(2):
                sigma = ref.ref_weighted_cov(prep.blocks[:, lag_idx], u[:, s], 2.0)
                p_ref = ref.ref_projector(sigma, 0.95)
                p_mine = subs.projector(s, lag_idx)
                assert np.linalg.norm(p_ref - p_mine) < 1e-8


class TestPrepared:
    def test_layout_matches_per_series_summaries(self):
        rng = make_rng(26)
        series = [rng.standard_normal((40 + 5 * i, 3)) for i in range(5)]
        prep = _Prepared(MtsDataset(series=series), 3)
        alone = [_Prepared(MtsDataset(series=[x]), 3) for x in series]
        assert prep.blocks.shape == prep.grams.shape == (5, 3, 6, 6)
        assert np.array_equal(prep.blocks, np.concatenate([a.blocks for a in alone]))
        assert np.array_equal(prep.grams, np.concatenate([a.grams for a in alone]))
        assert np.array_equal(prep.energies, np.concatenate([a.energies for a in alone]))
        for lag_idx in range(3):
            assert prep.blocks[:, lag_idx].flags.c_contiguous
            assert prep.grams[:, lag_idx].flags.c_contiguous

    @pytest.mark.parametrize("max_lag", [1, 2, 3])
    def test_one_pass_matches_per_lag_references(self, max_lag):
        # blocks match the loop reference to the oracle tolerance; Grams
        # subtract the rows each half of the embedding leaves out from one
        # full-series product, so they match X^T X to rounding
        rng = make_rng(28)
        series = [rng.standard_normal((20 + 13 * i, 3)) + i for i in range(4)]
        prep = _Prepared(MtsDataset(series=series), max_lag)
        assert prep.blocks.shape == prep.grams.shape == (4, max_lag, 6, 6)
        for i, x in enumerate(series):
            for lag_idx in range(max_lag):
                np.testing.assert_allclose(prep.blocks[i, lag_idx], ref.ref_block(x, lag_idx + 1),
                                           rtol=1e-8, atol=1e-8)
                emb = ref.ref_embedding(x, lag_idx + 1)
                np.testing.assert_allclose(prep.grams[i, lag_idx], emb.T @ emb,
                                           rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(prep.energies[i, lag_idx], (emb * emb).sum(),
                                           rtol=1e-12, atol=0.0)

    def test_a_series_whose_summaries_overflow_is_non_finite_input(self):
        # every entry is finite, but 1e200 squared is not: the fit raises
        # before any warning or eigen failure, naming the lowest such series
        rng = make_rng(30)
        series = [rng.standard_normal((40, 3)) for _ in range(5)]
        for i in (2, 4):
            series[i][7, 1] = 1e200
        with pytest.raises(NonFiniteInput, match=r"^series 2 has lag summaries that overflow$"):
            fit_fcpca(MtsDataset(series=series), 2)
        # a series too short for the lags stops the summaries before series 2
        series[1] = series[1][:2]
        with pytest.raises(LagTooLarge, match="series 1"):
            fit_fcpca(MtsDataset(series=series), 2)

    def test_max_lag_below_one_is_package_error(self):
        dataset, _ = planted_dataset(29)
        for max_lag in (0, -1):
            with pytest.raises(LagTooSmall):
                fit_fcpca(dataset, 2, max_lag=max_lag)

    def test_errors_match_embedding_reference(self):
        # projector-form errors sum in another order than the loop over raw
        # embeddings, so they agree to a float64 tolerance, not bitwise
        rng = make_rng(27)
        p, max_lag = 4, 2
        series = [rng.standard_normal((50 + 7 * i, p)) for i in range(6)]
        prep = _Prepared(MtsDataset(series=series), max_lag)
        axes = []
        for s in range(3):
            per_lag = []
            for lag_idx in range(max_lag):
                k = int(rng.integers(1, 2 * p))
                q, _ = np.linalg.qr(rng.standard_normal((2 * p, k)))
                per_lag.append(q)
            axes.append(per_lag)
        errors = _errors_from_grams(prep, ClusterSubspaces(axes=axes))
        embeddings = [[ref.ref_embedding(x, lag) for lag in range(1, max_lag + 1)]
                      for x in series]
        expected = np.array([[ref.ref_recon_error(embs, per_lag) for per_lag in axes]
                             for embs in embeddings])
        np.testing.assert_allclose(errors, expected, rtol=1e-10, atol=0.0)


class TestFitFcpca:
    def test_planted_two_groups_recovered(self):
        dataset, truth = planted_dataset(7)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=3)
        assert rand_index(np.argmax(fit.memberships.u, axis=1), truth) == 1.0
        assert fit.converged

    def test_single_cluster_converges_immediately(self):
        dataset, _ = planted_dataset(8)
        fit = fit_fcpca(dataset, 1, m=2.0, seed=0)
        assert fit.iterations <= 2
        assert np.all(fit.memberships.u == 1.0)

    def test_deterministic(self):
        dataset, _ = planted_dataset(9)
        a = fit_fcpca(dataset, 2, m=1.8, seed=5)
        b = fit_fcpca(dataset, 2, m=1.8, seed=5)
        assert np.array_equal(a.memberships.u, b.memberships.u)
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.errors, b.errors)

    def test_trace_non_increasing(self):
        # both half-steps are coordinate minimisers at fixed retained ranks,
        # so on instances whose ranks stay put the trace never rises; rank
        # transitions (crisping memberships changing the variance cut) can
        # produce genuine upward jumps and are exercised separately
        rng = make_rng(31)
        for case in range(20):
            series = [rng.standard_normal((60, 3)) for _ in range(6)]
            fit = fit_fcpca(MtsDataset(series=series), 2, m=2.0, seed=case)
            trace = np.asarray(fit.objective_trace)
            slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= slack)

    def test_errors_nonnegative_and_result_fields(self):
        dataset, _ = planted_dataset(11)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=2)
        assert isinstance(fit, FitResult)
        assert fit.errors.min() >= 0.0
        assert fit.variant == "fcpca"
        assert len(fit.objective_trace) == fit.iterations

    def test_scaling_data_scales_errors_quadratically(self):
        dataset, _ = planted_dataset(12)
        scaled = MtsDataset(series=[2.0 * x for x in dataset.series])
        a = fit_fcpca(dataset, 2, m=2.0, seed=4)
        b = fit_fcpca(scaled, 2, m=2.0, seed=4)
        np.testing.assert_allclose(b.errors, 4.0 * a.errors, rtol=1e-9)
        np.testing.assert_allclose(b.memberships.u, a.memberships.u, atol=1e-9)


class TestStallRules:
    @staticmethod
    def rising_errors(monkeypatch, n_series):
        # errors grow every iteration and swap columns, so the objective
        # rises by more than the tolerance and the memberships never settle:
        # only the stall rule can end the run
        import rfcpca.core as core_mod

        base = np.tile([[1.0, 2.0], [2.0, 1.0]], (n_series // 2, 1))
        iteration = itertools.count()

        def errors(prep, subspaces):
            k = next(iteration)
            return (1.0 + k) * (base if k % 2 == 0 else base[:, ::-1])

        monkeypatch.setattr(core_mod, "_errors_from_grams", errors)

    def test_default_policy_stops_unconverged(self, monkeypatch):
        dataset, _ = planted_dataset(13)
        self.rising_errors(monkeypatch, dataset.n_series)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=0)
        assert fit.iterations == 1 + 25
        assert not fit.converged
        assert np.all(np.diff(fit.objective_trace) > 1e-3)

    def test_exponential_policy_stops_converged(self, monkeypatch):
        from rfcpca.robust import fit_rfcpca_e

        dataset, _ = planted_dataset(13)
        self.rising_errors(monkeypatch, dataset.n_series)
        fit = fit_rfcpca_e(dataset, 2, m=2.0, seed=0)
        assert fit.iterations == 1 + 5
        assert fit.converged
        assert np.all(np.diff(fit.objective_trace) > 1e-3)
