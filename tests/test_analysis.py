import numpy as np
import pytest

import reference as ref
from conftest import planted_dataset
from rfcpca.analysis import (
    axis_row_energies,
    channel_contributions,
    noise_subspace,
    principal_angles,
)
from rfcpca.core import _Prepared
from rfcpca.exceptions import DimensionMismatch, EmptyClusterError, NotOrthonormal
from rfcpca.rng import make_rng
from rfcpca.robust import fit_rfcpca_n


def random_orthonormal(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q[:, :k]


class TestPrincipalAngles:
    def test_identical_bases(self):
        rng = make_rng(80)
        b = random_orthonormal(rng, 6, 3)
        np.testing.assert_allclose(principal_angles(b, b), 0.0, atol=1e-7)

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(principal_angles(e1, e2), [np.pi / 2])

    def test_matches_svd_oracle(self):
        rng = make_rng(81)
        ba = random_orthonormal(rng, 6, 2)
        bb = random_orthonormal(rng, 6, 3)
        np.testing.assert_allclose(principal_angles(ba, bb),
                                   ref.ref_principal_angles(ba, bb), atol=1e-10)

    def test_symmetry_and_rotation_invariance(self):
        rng = make_rng(82)
        for _ in range(20):
            ba = random_orthonormal(rng, 8, 3)
            bb = random_orthonormal(rng, 8, 2)
            np.testing.assert_allclose(principal_angles(ba, bb),
                                       principal_angles(bb, ba), atol=1e-9)
            q = random_orthonormal(rng, 3, 3)
            np.testing.assert_allclose(principal_angles(ba @ q, bb),
                                       principal_angles(ba, bb), atol=1e-9)

    def test_ascending_in_range(self):
        rng = make_rng(83)
        ba = random_orthonormal(rng, 10, 4)
        bb = random_orthonormal(rng, 10, 4)
        angles = principal_angles(ba, bb)
        assert np.all(np.diff(angles) >= -1e-12)
        assert angles.min() >= 0.0 and angles.max() <= np.pi / 2 + 1e-12

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            principal_angles(np.ones((4, 2)), np.eye(4)[:, :2])


class TestChannelContributions:
    def test_single_axis(self):
        c = np.zeros((4, 1))
        c[0, 0] = 1.0
        np.testing.assert_allclose(channel_contributions(c, 2), [1.0, 0.0])

    def test_full_basis_gives_two_per_channel(self):
        contrib = channel_contributions(np.eye(6), 3)
        np.testing.assert_allclose(contrib, 2.0)

    def test_trace_identity(self):
        rng = make_rng(84)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            c = random_orthonormal(rng, 8, k)
            contrib = channel_contributions(c, 4)
            assert contrib.sum() == pytest.approx(k, abs=1e-10)
            assert contrib.min() >= -1e-12

    def test_rotation_invariance(self):
        rng = make_rng(85)
        c = random_orthonormal(rng, 8, 3)
        q = random_orthonormal(rng, 3, 3)
        np.testing.assert_allclose(channel_contributions(c @ q, 4),
                                   channel_contributions(c, 4), atol=1e-10)

    def test_row_energies_full_vector(self):
        rng = make_rng(86)
        c = random_orthonormal(rng, 8, 3)
        energy = axis_row_energies(c)
        assert energy.shape == (8,)
        np.testing.assert_allclose(energy[:4] + energy[4:],
                                   channel_contributions(c, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            channel_contributions(np.eye(5), 2)


class TestNoiseSubspace:
    def test_noise_weighted_axes_shape(self):
        dataset, _ = planted_dataset(90)
        fit = fit_rfcpca_n(dataset, 2, m=2.0, lam=0.05, seed=1)
        subs = noise_subspace(dataset, fit)
        assert subs.n_clusters == 1
        assert subs.n_lags == 2
        for lag_idx in range(2):
            c = subs.axes[0][lag_idx]
            assert c.shape[0] == 2 * dataset.n_channels
            np.testing.assert_allclose(c.T @ c, np.eye(c.shape[1]), atol=1e-10)

    def test_a_dataset_is_summarised_at_the_lags_of_the_fit(self):
        dataset, _ = planted_dataset(93)
        fit = fit_rfcpca_n(_Prepared(dataset, 3), 2, m=2.0, lam=0.05, seed=1)
        subs = noise_subspace(dataset, fit)
        assert subs.n_lags == 3
        again = noise_subspace(_Prepared(dataset, 3), fit)
        for lag_idx in range(3):
            assert np.array_equal(subs.axes[0][lag_idx], again.axes[0][lag_idx])

    def test_requires_noise_variant(self):
        from rfcpca.core import fit_fcpca

        dataset, _ = planted_dataset(91)
        fit = fit_fcpca(dataset, 2, seed=0)
        with pytest.raises(ValueError):
            noise_subspace(dataset, fit)

    def test_a_noise_column_without_weight_names_the_noise_cluster(self):
        dataset, _ = planted_dataset(92)
        fit = fit_rfcpca_n(dataset, 2, m=2.0, lam=0.05, seed=1)
        fit.memberships.u[:, :-1] += fit.memberships.u[:, -1:] / 2
        fit.memberships.u[:, -1] = 0.0
        with pytest.raises(EmptyClusterError,
                           match="^the noise cluster has no effective members$") as info:
            noise_subspace(dataset, fit)
        assert isinstance(info.value.__cause__, EmptyClusterError)
