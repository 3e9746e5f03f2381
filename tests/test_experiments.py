import os

import rfcpca.dataset as dataset_mod
import rfcpca.experiments as experiments
from rfcpca.experiments import _BLAS_THREAD_VARS, _pool_map


def test_pool_workers_load_blas_on_one_thread(monkeypatch):
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert _pool_map(os.getenv, _BLAS_THREAD_VARS, workers=2) == ["1"] * len(_BLAS_THREAD_VARS)
    # the defaults hold only for the workers, not for this process
    assert all(var not in os.environ for var in _BLAS_THREAD_VARS)


def test_pool_workers_keep_a_thread_count_the_caller_set(monkeypatch):
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    seen = _pool_map(os.getenv, _BLAS_THREAD_VARS, workers=2)
    assert seen == ["3", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ


def test_default_pool_size_follows_usable_cpus(monkeypatch):
    sizes = []
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "_replication_task", lambda task: [])
    monkeypatch.setattr(experiments, "_pool_map",
                        lambda fn, items, workers: sizes.append(workers) or [[] for _ in items])
    experiments.run_benchmark("burst", [8], 100, replications=5, seed=1)
    experiments.run_benchmark("burst", [8], 100, replications=2, seed=1)
    assert sizes == [3, 2]
