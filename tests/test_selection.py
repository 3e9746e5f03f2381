import numpy as np
import pytest

import reference as ref
from conftest import planted_dataset
from rfcpca.core import fit_fcpca
from rfcpca.covariance import ClusterSubspaces
from rfcpca.dataset import MtsDataset
from rfcpca.exceptions import DegenerateSeparation, LagTooSmall, SingleCluster
from rfcpca.rng import make_rng
from rfcpca.selection import SearchGrid, cvi, grid_search, prototype_separation


def _subspaces_from(axes_lists):
    return ClusterSubspaces(axes=axes_lists)


class TestPrototypeSeparation:
    def test_identical_subspaces_zero(self):
        c = np.eye(4)[:, :2]
        subs = _subspaces_from([[c], [c.copy()]])
        assert prototype_separation(subs) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.eye(4)[:, :1]
        e2 = np.eye(4)[:, 1:2]
        subs = _subspaces_from([[e1], [e2]])
        assert prototype_separation(subs) == pytest.approx(2.0)

    def test_matches_pairwise_oracle(self):
        rng = make_rng(95)
        axes = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            axes.append([q[:, :2], q[:, :1]])
        subs = _subspaces_from(axes)
        projectors = [[c @ c.T for c in per_lag] for per_lag in axes]
        assert prototype_separation(subs) == pytest.approx(ref.ref_dmin(projectors), abs=1e-12)

    def test_single_cluster_raises(self):
        with pytest.raises(SingleCluster):
            prototype_separation(_subspaces_from([[np.eye(4)[:, :1]]]))


class TestCvi:
    def test_arithmetic(self):
        dataset, _ = planted_dataset(96)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=1)
        d = prototype_separation(fit.subspaces)
        expected = fit.objective_trace[-1] / (dataset.n_series * d)
        assert cvi(fit) == pytest.approx(expected)

    def test_degenerate_separation(self):
        dataset, _ = planted_dataset(97)
        fit = fit_fcpca(dataset, 2, m=2.0, seed=1)
        c = fit.subspaces.axes[0]
        fit.subspaces.axes = [c, [a.copy() for a in c]]
        with pytest.raises(DegenerateSeparation):
            cvi(fit)

    def test_scaling_data_scales_cvi_quadratically(self):
        dataset, _ = planted_dataset(98)
        scaled = MtsDataset(series=[3.0 * x for x in dataset.series])
        a = fit_fcpca(dataset, 2, m=2.0, seed=2)
        b = fit_fcpca(scaled, 2, m=2.0, seed=2)
        assert cvi(b) == pytest.approx(9.0 * cvi(a), rel=1e-6)


class TestSearchGrid:
    def test_defaults_match_design(self):
        grid = SearchGrid(variant="fcpca")
        assert grid.m_values == (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5)
        assert grid.s_values == (2, 3, 4, 5, 6)

    def test_candidates_include_alpha_for_trimming(self):
        grid = SearchGrid(variant="t", s_values=(2,), m_values=(2.0,),
                          alpha_values=(0.1, 0.2))
        cands = list(grid.candidates())
        assert cands == [{"s": 2, "m": 2.0, "alpha": 0.1}, {"s": 2, "m": 2.0, "alpha": 0.2}]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(variant="bogus")
        with pytest.raises(ValueError):
            SearchGrid(variant="fcpca", m_values=())


class TestGridSearch:
    def test_single_tuple_returns_that_fit(self):
        dataset, _ = planted_dataset(99)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(2.0,))
        fit, report = grid_search(dataset, grid, seed=1, restarts=2)
        assert report.winner["s"] == 2
        assert report.winner["m"] == 2.0
        assert fit.converged
        assert len(report.records) == 1

    def test_planted_two_clusters_preferred(self):
        wins = 0
        for seed in range(10):
            dataset, _ = planted_dataset(300 + seed, n_per_group=5)
            grid = SearchGrid(variant="fcpca", s_values=(2, 3), m_values=(1.4, 2.0))
            fit, report = grid_search(dataset, grid, seed=seed)
            wins += report.winner["s"] == 2
        assert wins >= 9

    def test_deterministic(self):
        dataset, _ = planted_dataset(101)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 2.0))
        fit1, rep1 = grid_search(dataset, grid, seed=11)
        fit2, rep2 = grid_search(dataset, grid, seed=11)
        assert rep1.winner == rep2.winner
        assert np.array_equal(fit1.memberships.u, fit2.memberships.u)

    def test_scaled_data_same_winner(self):
        dataset, _ = planted_dataset(102)
        scaled = MtsDataset(series=[2.0 * x for x in dataset.series])
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 1.8, 2.2))
        _, rep_a = grid_search(dataset, grid, seed=3)
        _, rep_b = grid_search(scaled, grid, seed=3)
        assert rep_a.winner["m"] == rep_b.winner["m"]

    def test_max_lag_below_one_is_package_error(self):
        dataset, _ = planted_dataset(15)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(2.0,))
        with pytest.raises(LagTooSmall):
            grid_search(dataset, grid, max_lag=0)

    def test_noise_variant_records_lambda(self):
        dataset, _ = planted_dataset(103)
        grid = SearchGrid(variant="n", s_values=(2,), m_values=(2.0,), lam="elbow")
        fit, report = grid_search(dataset, grid, seed=5)
        assert fit.variant == "n"
        assert "lambda" in report.winner
        assert "elbow_curve" in report.records[0]

    def test_report_serializes(self):
        dataset, _ = planted_dataset(104)
        grid = SearchGrid(variant="t", s_values=(2,), m_values=(2.0,), alpha_values=(0.0, 0.2))
        fit, report = grid_search(dataset, grid, seed=7)
        doc = report.to_json()
        assert "winner" in doc

    def test_noise_cluster_excluded_from_separation(self):
        dataset, _ = planted_dataset(105)
        grid = SearchGrid(variant="n", s_values=(2,), m_values=(2.0,), lam=1.0)
        fit, report = grid_search(dataset, grid, seed=9)
        # the fitted subspaces only cover the two substantive clusters, so
        # d_min is defined and the index is finite
        assert fit.subspaces.n_clusters == 2
        assert report.winner["cvi"] is not None
