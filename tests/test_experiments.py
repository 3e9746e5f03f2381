import os

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
