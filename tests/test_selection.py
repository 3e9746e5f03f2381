import concurrent.futures
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import reference as ref
import rfcpca.dataset as dataset_mod
import rfcpca.selection as selection_mod
from conftest import planted_dataset, planted_with_outliers
from rfcpca.cli import main as cli_main
from rfcpca.core import _Prepared, fit_fcpca
from rfcpca.covariance import ClusterSubspaces
from rfcpca.dataset import _BLAS_THREAD_VARS, MtsDataset, dataset_digest, write_csv_dir
from rfcpca.exceptions import (
    AllCandidatesFailed,
    DegenerateSeparation,
    DimensionMismatch,
    LagTooSmall,
    SingleCluster,
)
from rfcpca.experiments import make_benchmark_dataset
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
        grid = SearchGrid(variant="fcpca", s_values=(2, 3, 4, 5, 6))
        assert grid.m_values == (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5)
        assert grid.s_values == (2, 3, 4, 5, 6)
        assert grid.alpha_values == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert grid.lam == "elbow"
        # every caller names the variant and its cluster counts
        with pytest.raises(TypeError):
            SearchGrid(variant="fcpca")

    def test_candidates_include_alpha_for_trimming(self):
        grid = SearchGrid(variant="t", s_values=(2,), m_values=(2.0,),
                          alpha_values=(0.1, 0.2))
        cands = list(grid.candidates())
        assert cands == [{"s": 2, "m": 2.0, "alpha": 0.1}, {"s": 2, "m": 2.0, "alpha": 0.2}]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(variant="bogus", s_values=(2,))
        with pytest.raises(ValueError):
            SearchGrid(variant="fcpca", s_values=(2,), m_values=())
        with pytest.raises(ValueError):
            SearchGrid(variant="fcpca", s_values=())


class TestGridSearch:
    def test_single_tuple_returns_that_fit(self):
        dataset, _ = planted_dataset(99)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(2.0,))
        fit, report = grid_search(dataset, grid, seed=1)
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
        # a search takes its lags from the summaries, which reject these
        dataset, _ = planted_dataset(15)
        for max_lag in (0, -1):
            with pytest.raises(LagTooSmall):
                _Prepared(dataset, max_lag)

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


@pytest.fixture
def grid_pool(monkeypatch):
    """Two usable CPUs and BLAS on one thread; yields the sizes of the pools started."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            sizes.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for var in _BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    # the threads this process runs now are its BLAS threads when the tests
    # run with BLAS unpinned; count only the ones started after them
    os_threads = dataset_mod._os_threads
    at_start = _settled_os_threads()
    if at_start is None:
        pytest.skip("this platform does not list a process's threads")
    monkeypatch.setattr(dataset_mod, "_os_threads", lambda: os_threads() - at_start + 1)
    return sizes


def _settled_os_threads():
    """The operating system's thread count once threads already joined have
    left it: the pool threads of a search that just ended stay counted for
    3-5 ms, and a baseline that counts them would read a live thread as
    none.  Read until two reads 20 ms apart agree (for at most 1 s)."""
    count = dataset_mod._os_threads()
    deadline = time.monotonic() + 1.0
    while count is not None and time.monotonic() < deadline:
        time.sleep(0.02)
        again = dataset_mod._os_threads()
        if again == count:
            break
        count = again
    return count


class TestGridPool:
    @pytest.mark.parametrize("variant", ["fcpca", "e", "n", "t"])
    def test_pool_gives_the_serial_bytes(self, grid_pool, monkeypatch, variant):
        dataset, _ = make_benchmark_dataset("burst", 8, 200, 4, n_per_group=5)
        grid = SearchGrid(variant=variant, s_values=(2,), m_values=(1.2, 1.6, 2.0),
                          alpha_values=(0.1, 0.3))
        fit, report = grid_search(dataset, grid, seed=3, v=0.99)
        assert grid_pool == [2]
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 1)
        serial_fit, serial_report = grid_search(dataset, grid, seed=3, v=0.99)
        assert grid_pool == [2]
        assert report.to_json() == serial_report.to_json()
        assert report.winner == serial_report.winner
        assert fit.memberships.u.tobytes() == serial_fit.memberships.u.tobytes()
        assert fit.objective_trace == serial_fit.objective_trace
        assert fit.subspaces.ranks() == serial_fit.subspaces.ranks()
        for per_lag, serial_per_lag in zip(fit.subspaces.axes, serial_fit.subspaces.axes):
            for c, serial_c in zip(per_lag, serial_per_lag):
                assert c.tobytes() == serial_c.tobytes()

    def test_back_to_back_searches_both_use_the_pool(self, grid_pool):
        # the threads of the first pool leave the operating system's count a
        # few ms after its shutdown returns; the second search waits for them
        dataset, _ = planted_dataset(31)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 2.0))
        first = grid_search(dataset, grid)[1]
        second = grid_search(dataset, grid)[1]
        assert grid_pool == [2, 2]
        assert first.to_json() == second.to_json()

    def test_a_search_right_after_a_digest_uses_the_pool(self, grid_pool, tmp_path):
        # the digest's threads are joined on return, and a joined thread
        # leaves the operating system's count within the pool's wait
        dataset, _ = planted_dataset(31)
        write_csv_dir(dataset, tmp_path)
        dataset_digest(tmp_path)
        grid_search(dataset, SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 2.0)))
        assert grid_pool == [2]

    def test_an_auto_fit_right_after_a_warm_fit_uses_the_pool(self, grid_pool, tmp_path):
        # a warm fit hashes the trials on a thread while it fits; the thread
        # has ended when the fit returns, and --auto forks only after its hash
        dataset, _ = planted_dataset(31)
        write_csv_dir(dataset, tmp_path / "data")
        for k, options in enumerate([[], [], ["--auto"]]):
            assert cli_main(["fit", "--data", str(tmp_path / "data"), "--seed", "3",
                             "--out", str(tmp_path / f"fit{k}.json"), *options]) == 0
        assert grid_pool == [2]

    def test_runs_in_process_without_cpus_to_spare(self, grid_pool, monkeypatch):
        dataset, _ = planted_dataset(31)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 2.0))
        # one usable CPU
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 1)
        grid_search(dataset, grid)
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
        # no BLAS thread count set: BLAS may use every CPU
        for var in _BLAS_THREAD_VARS:
            monkeypatch.delenv(var)
        grid_search(dataset, grid)
        for var in _BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        # while another thread runs
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            grid_search(dataset, grid)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        # on a platform without fork, where a spawned pool would fail in a
        # caller script without a __main__ guard
        with monkeypatch.context() as m:
            m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
            grid_search(dataset, grid)
        # inside a pool worker
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        grid_search(dataset, grid)
        assert grid_pool == []

    def test_failed_elbow_sweep_is_recorded(self, grid_pool, monkeypatch):
        # on this dataset all three baseline fits of each candidate's elbow
        # sweep empty a cluster; each candidate is recorded and the search
        # goes on
        dataset, _ = planted_with_outliers(21)
        grid = SearchGrid(variant="n", s_values=(2,), m_values=(2.0, 2.5))
        search = (_Prepared(dataset, 2), grid, 3, 0.99)
        candidates = list(enumerate(grid.candidates()))
        expected = [{"s": 2, "m": m, "variant": "n", "converged": False, "cvi": None,
                     "error": "EmptyClusterError"} for m in (2.0, 2.5)]
        for usable in (2, 1):
            monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda usable=usable: usable)
            results = list(selection_mod._candidate_results(search, candidates))
            assert results == [(record, None) for record in expected]
        assert grid_pool == [2]
        with pytest.raises(AllCandidatesFailed):
            grid_search(dataset, grid, seed=3, v=0.99)

    def test_worker_error_keeps_its_type(self, grid_pool, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise DimensionMismatch(f"raised in process {os.getpid()}")

        monkeypatch.setattr(selection_mod, "_fit_candidate", failing_fit)
        dataset, _ = planted_dataset(32)
        grid = SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.4, 2.0))
        with pytest.raises(DimensionMismatch) as exc:
            grid_search(dataset, grid)
        assert grid_pool == [2]
        assert str(exc.value) != f"raised in process {os.getpid()}"
