import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# a caller script without a __main__ guard; each worker that imports it
# again records its process id
_UNGUARDED = """
import os
from rfcpca.experiments import run_benchmark
if __name__ != "__main__":
    with open("workers.txt", "a") as fh:
        fh.write(f"{os.getpid()}\\n")
run_benchmark("burst", [8], 100, replications=2, seed=1, workers=2)
"""


def test_an_unguarded_script_is_told_both_fixes_and_leaves_no_worker(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("concurrent.futures.process.BrokenProcessPool: ")
    assert 'if __name__ == "__main__":' in last and "workers=1" in last
    workers = [int(pid) for pid in (tmp_path / "workers.txt").read_text().split()]
    assert workers
    for pid in workers:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker {pid} is still running")


def test_a_worker_importing_its_main_module_is_refused_a_pool(monkeypatch):
    # what a spawned worker that imports an unguarded script again calls:
    # the pool is refused before an executor, its semaphores or a process exist
    built = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: built.append(args))
    monkeypatch.setattr(multiprocessing.current_process(), "_inheriting", True, raising=False)
    with pytest.raises(RuntimeError, match="^no process pool starts while a spawned worker "
                                           "imports its main module$"):
        dataset_mod._process_pool(2, "spawn")
    assert built == []


def test_a_main_process_gets_a_pool_whatever_its_name(monkeypatch):
    monkeypatch.setattr(multiprocessing.current_process(), "name", "SpawnPoolWorker-1")
    with dataset_mod._process_pool(1, "spawn") as pool:
        assert pool.submit(abs, -3).result() == 3
