import numpy as np
import pytest

import reference as ref
from conftest import full_blocks
from rfcpca.core import _errors_from_grams, _Prepared
from rfcpca.covariance import ClusterSubspaces, common_axes, weighted_common_covariance
from rfcpca.dataset import MtsDataset
from rfcpca.exceptions import DegenerateWeights, DimensionMismatch, LagTooLarge, NonFiniteInput
from rfcpca.rng import make_rng


def summaries(x, max_lag=2):
    """One series' upper block rows, Grams and energies as the fits hold them."""
    prep = _Prepared(MtsDataset(series=[x]), max_lag)
    return prep.blocks[:, 0], prep.grams[:, 0], prep.energies[0]


def square(row):
    """The block covariance the fits rebuild from one series' upper block row."""
    return weighted_common_covariance(row[None], np.ones(1), 2.0)


def random_rows(rng, n, p):
    """An (N, p, 2p) stack of upper block rows whose G(0) parts are symmetric."""
    rows = rng.standard_normal((n, p, 2 * p))
    rows[:, :, :p] += rows[:, :, :p].transpose(0, 2, 1)
    return rows


def errors(x, axes_per_lag):
    """The fits' reconstruction error of one series against per-lag axes."""
    prep = _Prepared(MtsDataset(series=[x]), len(axes_per_lag))
    return float(_errors_from_grams(prep, ClusterSubspaces(axes=[axes_per_lag]))[0, 0])


class TestLaggedCrossCovariance:
    def test_constant_series_gives_zero(self):
        blocks, grams, energies = summaries(np.full((50, 3), 4.5))
        assert np.all(blocks == 0.0)
        assert np.all(grams == 0.0)
        assert np.all(energies == 0.0)

    def test_iid_noise_lag0_near_identity(self):
        x = make_rng(0).standard_normal((100_000, 2))
        g0 = summaries(x, 1)[0][0, :2, :2]
        assert abs(g0[0, 0] - 1.0) < 0.02
        assert abs(g0[1, 1] - 1.0) < 0.02
        assert abs(g0[0, 1]) < 0.02

    def test_hand_computed_lag1(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert summaries(x, 1)[0][0, 0, 1] == pytest.approx(0.3125, abs=1e-15)

    def test_matches_reference(self):
        rng = make_rng(3)
        x = rng.standard_normal((40, 3))
        blocks = summaries(x)[0]
        for lag in (1, 2):
            np.testing.assert_allclose(blocks[lag - 1, :3, :3], ref.ref_lagged_cov(x, 0),
                                       atol=1e-12)
            np.testing.assert_allclose(blocks[lag - 1, :3, 3:], ref.ref_lagged_cov(x, lag),
                                       atol=1e-12)

    def test_errors(self):
        x = np.ones((5, 2))
        with pytest.raises(LagTooLarge):
            summaries(x, 5)
        x_bad = x.copy()
        x_bad[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            summaries(x_bad)


class TestBlockCovariance:
    def test_hand_computed_univariate(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        row = summaries(x, 1)[0][0]
        np.testing.assert_allclose(row, [[1.25, 0.3125]], atol=1e-15)
        np.testing.assert_allclose(square(row), [[1.25, 0.3125], [0.3125, 1.25]], atol=1e-15)

    def test_bitwise_symmetry(self):
        x = make_rng(4).standard_normal((60, 4))
        for row in summaries(x)[0]:
            assert np.array_equal(row[:, :4], row[:, :4].T)
            b = square(row)
            assert np.array_equal(b, b.T)

    def test_off_diagonal_blocks_are_transposes(self):
        x = make_rng(5).standard_normal((60, 3))
        b = square(summaries(x, 1)[0][0])
        p = 3
        assert np.array_equal(b[:p, p:], b[p:, :p].T)
        assert np.array_equal(b[:p, :p], b[p:, p:])

    def test_white_noise_block_diagonal(self):
        x = make_rng(6).standard_normal((200_000, 2))
        b = summaries(x, 1)[0][0]
        assert np.abs(b[:2, 2:]).max() < 0.02
        np.testing.assert_allclose(b[:2, :2], np.eye(2), atol=0.02)


class TestLaggedEmbedding:
    def test_hand_computed(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        emb = [[-1.5, -0.5], [-0.5, 0.5], [0.5, 1.5]]
        np.testing.assert_allclose(ref.ref_embedding(x, 1), emb, atol=1e-15)
        _, grams, energies = summaries(x, 1)
        np.testing.assert_allclose(grams[0], [[2.75, 1.25], [1.25, 2.75]], atol=1e-15)
        assert energies[0] == pytest.approx(5.5, abs=1e-15)

    def test_gram_matches_block_up_to_edge_terms(self):
        # (1/T) Xhat^T Xhat equals the block matrix except for the
        # lag-truncated tails in the diagonal blocks
        x = make_rng(8).standard_normal((400, 3))
        t, p = x.shape
        lag = 2
        blocks, grams, _ = summaries(x, lag)
        gram = grams[lag - 1] / t
        block = square(blocks[lag - 1])
        np.testing.assert_allclose(gram[:p, p:], block[:p, p:], atol=1e-12)
        np.testing.assert_allclose(gram, block, atol=5 * lag / t * np.abs(block).max() + 0.05)


class TestWeightedCommonCovariance:
    def test_uniform_weights_average(self):
        rows = random_rows(make_rng(9), 4, 3)
        out = weighted_common_covariance(rows, np.full(4, 0.25), 2.0)
        np.testing.assert_allclose(out, full_blocks(rows).mean(axis=0), atol=1e-12)

    def test_one_hot_selects_single_block(self):
        rows = make_rng(10).standard_normal((3, 2, 4))
        u = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(weighted_common_covariance(rows, u, 1.7),
                                   full_blocks(rows)[1])

    def test_matches_reference(self):
        rng = make_rng(11)
        rows = rng.standard_normal((3, 2, 4))
        u = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(weighted_common_covariance(rows, u, 2.0),
                                   ref.ref_weighted_cov(full_blocks(rows), u, 2.0), atol=1e-12)

    def test_scale_invariance_of_weights(self):
        rng = make_rng(12)
        rows = rng.standard_normal((5, 2, 4))
        u = rng.random(5)
        a = weighted_common_covariance(rows, u, 1.8)
        b = weighted_common_covariance(rows, 3.7 * u, 1.8)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_degenerate_weights(self):
        rows = np.zeros((3, 1, 2))
        with pytest.raises(DegenerateWeights):
            weighted_common_covariance(rows, np.zeros(3), 2.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 16, 31, 32, 33, 64])
    def test_bit_for_bit_the_average_of_the_square_blocks(self, p):
        # the result is the one product of the weights and the flattened
        # upper rows given, mirrored, also for the upper rows of an
        # (N, 3p, 2p) stack, as the fits hold them, whose other rows are
        # never read.  It is the average of the square blocks bit for bit at
        # even p; at odd p, BLAS sums the last entries of the row in another
        # order
        rng = make_rng(100 + p)
        for n in (1, 3, 4, 5, 20, 33):
            rows = random_rows(rng, n, p) * rng.uniform(0.1, 100.0)
            stack = np.full((n, 3 * p, 2 * p), np.nan)
            stack[:, :p] = rows
            full = full_blocks(rows)
            u = rng.random(n)
            for m in (1.2, 1.6, 2.0, 3.0):
                w = u**m
                average = (w @ full.reshape(n, -1)).reshape(2 * p, 2 * p) / w.sum()
                for given in (rows, stack[:, :p]):
                    sigma = weighted_common_covariance(given, u, m)
                    row = (w @ given.reshape(n, -1)).reshape(p, 2 * p) / w.sum()
                    assert np.array_equal(sigma, full_blocks(row))
                    if p % 2 == 0:
                        assert np.array_equal(sigma, average)
                    else:
                        np.testing.assert_allclose(sigma, average, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (3, 2, 2), (3, 2, 3), (3, 4, 2)])
    def test_a_stack_that_is_not_of_upper_block_rows_is_a_mismatch(self, shape):
        with pytest.raises(DimensionMismatch, match=r"\(N, p, 2p\)"):
            weighted_common_covariance(np.ones(shape), np.ones(3), 2.0)


class TestCommonAxes:
    def test_identity_needs_full_rank(self):
        axes = common_axes(np.eye(4), 0.95)
        assert axes.shape == (4, 4)

    def test_steep_spectrum_single_axis(self):
        axes = common_axes(np.diag([9.0, 1.0, 0.0, 0.0]), 0.85)
        assert axes.shape == (4, 1)
        np.testing.assert_allclose(axes[:, 0], [1, 0, 0, 0], atol=1e-12)

    def test_orthonormal_columns(self):
        rng = make_rng(13)
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T
        axes = common_axes(sigma, 0.9)
        np.testing.assert_allclose(axes.T @ axes, np.eye(axes.shape[1]), atol=1e-10)

    def test_full_fraction_returns_rank(self):
        rng = make_rng(14)
        a = rng.standard_normal((6, 3))
        sigma = a @ a.T  # rank 3
        axes = common_axes(sigma, 1.0)
        assert axes.shape[1] == 3

    def test_sign_convention_deterministic(self):
        rng = make_rng(15)
        a = rng.standard_normal((5, 5))
        sigma = a @ a.T
        axes = common_axes(sigma, 0.95)
        peak = np.argmax(np.abs(axes), axis=0)
        assert np.all(axes[peak, np.arange(axes.shape[1])] > 0)


class TestReconstructionError:
    def test_full_rank_axes_zero_error(self):
        x = make_rng(16).standard_normal((30, 2))
        assert errors(x, [np.eye(4), np.eye(4)]) == pytest.approx(0.0, abs=1e-8)

    def test_contained_embedding_zero_error(self):
        # the second channel is silent, so every embedding row lies in the
        # span of the first channel's two lag coordinates
        z = make_rng(17).standard_normal((20, 1))
        x = np.hstack([z, np.zeros((20, 1))])
        assert errors(x, [np.eye(4)[:, [0, 2]]]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference(self):
        rng = make_rng(18)
        x = rng.standard_normal((8, 2))
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        axes = [q, q[:, :1]]
        embs = [ref.ref_embedding(x, lag) for lag in (1, 2)]
        assert errors(x, axes) == pytest.approx(ref.ref_recon_error(embs, axes), rel=1e-10)


class TestInvariants:
    def test_projection_is_contraction_and_pythagoras(self):
        rng = make_rng(19)
        for _ in range(20):
            x = rng.standard_normal((40, 3))
            blocks, _, energies = summaries(x)
            axes = common_axes(full_blocks(blocks).mean(axis=0), 0.9)
            r2 = errors(x, [axes, axes])
            total = float(energies.sum())
            assert 0.0 <= r2 <= total + 1e-8
            captured = resid = 0.0
            for lag in (1, 2):
                emb = ref.ref_embedding(x, lag)
                proj = (emb @ axes) @ axes.T
                captured += float((proj * proj).sum())
                resid += float(((emb - proj) ** 2).sum())
            assert total == pytest.approx(captured + resid, rel=1e-8)
            assert r2 == pytest.approx(resid, rel=1e-8)

    def test_grams_consistent_with_embeddings(self):
        x = make_rng(20).standard_normal((50, 3))
        _, grams, energies = summaries(x)
        for lag_idx in range(2):
            emb = ref.ref_embedding(x, lag_idx + 1)
            np.testing.assert_allclose(grams[lag_idx], emb.T @ emb, rtol=1e-12)
            assert energies[lag_idx] == pytest.approx(float((emb ** 2).sum()), rel=1e-12)
