import numpy as np
import pytest

import reference as ref
from conftest import planted_dataset
from rfcpca.core import (
    FitResult,
    MembershipMatrix,
    _errors_from_grams,
    _Prepared,
    fit_fcpca,
    init_memberships,
    objective_fcpca,
    ratio_memberships,
    update_memberships_fcpca,
    update_subspaces,
)
from rfcpca.covariance import (
    ClusterSubspaces,
    embedding_grams,
    lagged_blocks,
    lagged_embeddings,
    reconstruction_error,
)
from rfcpca.dataset import MtsDataset
from rfcpca.evaluation import rand_index
from rfcpca.exceptions import InvalidShape
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
        u = update_memberships_fcpca(np.array([[1.0, 1.0]]), 2.0)
        np.testing.assert_allclose(u.u, [[0.5, 0.5]])

    def test_closed_form(self):
        u = update_memberships_fcpca(np.array([[1.0, 4.0]]), 2.0)
        np.testing.assert_allclose(u.u, [[0.8, 0.2]], atol=1e-12)

    def test_zero_error_limit(self):
        u = update_memberships_fcpca(np.array([[0.0, 7.0]]), 2.0)
        np.testing.assert_allclose(u.u, [[1.0, 0.0]])
        u2 = update_memberships_fcpca(np.array([[0.0, 0.0, 3.0]]), 2.0)
        np.testing.assert_allclose(u2.u, [[0.5, 0.5, 0.0]])

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
    def test_zero_errors(self):
        u = MembershipMatrix(np.full((3, 2), 0.5), 2.0)
        assert objective_fcpca(np.zeros((3, 2)), u) == 0.0

    def test_one_hot(self):
        u = MembershipMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), 3.0)
        errors = np.array([[2.0, 9.0], [7.0, 3.0]])
        assert objective_fcpca(errors, u) == pytest.approx(5.0)

    def test_hand_sum(self):
        u = MembershipMatrix(np.full((2, 2), 0.5), 2.0)
        errors = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert objective_fcpca(errors, u) == pytest.approx(2.5)


class TestUpdateSubspaces:
    def test_single_cluster_reduces_to_plain_average(self):
        rng = make_rng(23)
        dataset = MtsDataset(series=[rng.standard_normal((30, 2)) for _ in range(4)])
        prep = _Prepared(dataset, 2)
        u = MembershipMatrix(np.ones((4, 1)), 2.0)
        subs = update_subspaces(prep.blocks, u, 0.95)
        from rfcpca.covariance import common_axes

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
        subs = update_subspaces(prep.blocks, MembershipMatrix(u, 2.0), 0.95)
        from rfcpca.covariance import common_axes

        expected = common_axes(prep.blocks[:3, 0].mean(axis=0), 0.95)
        np.testing.assert_allclose(subs.axes[0][0], expected, atol=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = make_rng(25)
        dataset = MtsDataset(series=[rng.standard_normal((30, 2)) for _ in range(4)])
        prep = _Prepared(dataset, 2)
        u = rng.random((4, 2))
        u /= u.sum(axis=1, keepdims=True)
        subs = update_subspaces(prep.blocks, MembershipMatrix(u, 2.0), 0.95)
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
        blocks = np.stack([lagged_blocks(x, 3) for x in series])
        grams = np.stack([embedding_grams(x, 3)[0] for x in series])
        assert prep.blocks.shape == prep.grams.shape == (5, 3, 6, 6)
        assert np.array_equal(prep.blocks, blocks)
        assert np.array_equal(prep.grams, grams)
        for lag_idx in range(3):
            assert prep.blocks[:, lag_idx].flags.c_contiguous
            assert prep.grams[:, lag_idx].flags.c_contiguous

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
        expected = np.array([[reconstruction_error(lagged_embeddings(x, max_lag), per_lag)
                              for per_lag in axes] for x in series])
        np.testing.assert_allclose(errors, expected, rtol=1e-10, atol=0.0)


class TestFitFcpca:
    def test_planted_two_groups_recovered(self):
        dataset, truth = planted_dataset(7)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=3)
        assert rand_index(fit.hard_labels(), truth) == 1.0
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
