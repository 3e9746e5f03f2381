import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rfcpca.dataset as dataset_mod
from rfcpca.dataset import MtsDataset, dataset_digest, read_csv_dir, write_csv_dir
from rfcpca.exceptions import DimensionMismatch, NonFiniteInput
from rfcpca.rng import make_rng


def test_validation():
    rng = make_rng(0)
    with pytest.raises(DimensionMismatch):
        MtsDataset(series=[rng.standard_normal((10, 2)), rng.standard_normal((10, 3))])
    bad = rng.standard_normal((10, 2))
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        MtsDataset(series=[bad])
    with pytest.raises(ValueError):
        MtsDataset(series=[])


def test_properties_and_copy():
    rng = make_rng(1)
    ds = MtsDataset(series=[rng.standard_normal((t, 3)) for t in (10, 20)],
                    labels=[0, 1], contaminated=[False, True])
    assert ds.n_series == 2
    assert ds.n_channels == 3
    assert ds.lengths == [10, 20]
    assert list(ds.contaminated_indices()) == [1]
    dup = ds.copy()
    dup.series[0][0, 0] += 1.0
    assert ds.series[0][0, 0] != dup.series[0][0, 0]


def test_csv_roundtrip(tmp_path):
    rng = make_rng(2)
    ds = MtsDataset(series=[rng.standard_normal((t, 4)) for t in (15, 25, 35)])
    paths = write_csv_dir(ds, tmp_path)
    assert [p.name for p in paths] == ["trial_000.csv", "trial_001.csv", "trial_002.csv"]
    back = read_csv_dir(tmp_path)
    assert back.n_series == 3
    for xa, xb in zip(ds.series, back.series):
        np.testing.assert_allclose(xa, xb, rtol=1e-15)


def test_digest_changes_with_content(tmp_path):
    rng = make_rng(3)
    ds = MtsDataset(series=[rng.standard_normal((10, 2))])
    write_csv_dir(ds, tmp_path)
    d1 = dataset_digest(tmp_path)
    assert d1 == dataset_digest(tmp_path)
    ds2 = MtsDataset(series=[rng.standard_normal((10, 2))])
    write_csv_dir(ds2, tmp_path)
    assert dataset_digest(tmp_path) != d1


@pytest.fixture
def parse_on_pool(monkeypatch):
    """Send every read_csv_dir to a two-worker pool; yields the pool sizes used."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            sizes.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_parallel_read_matches_serial(tmp_path, parse_on_pool):
    rng = make_rng(4)
    ds = MtsDataset(series=[rng.standard_normal((t, 3)) * 10.0**k
                            for k, t in enumerate((31, 7, 52, 18, 40))])
    write_csv_dir(ds, tmp_path)
    parallel = read_csv_dir(tmp_path)
    assert parse_on_pool == [2]
    serial = [dataset_mod._load_trial(path) for path in sorted(tmp_path.glob("trial_*.csv"))]
    assert len(parallel.series) == len(serial) == 5
    for got, want in zip(parallel.series, serial):
        assert np.array_equal(got, want)


def test_parse_workers_serial_cases(tmp_path, monkeypatch):
    rng = make_rng(5)
    paths = write_csv_dir(MtsDataset(series=[rng.standard_normal((20, 2))] * 3), tmp_path)
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 8)
    # a small directory parses in this process
    assert dataset_mod._parse_workers(paths) == 1
    monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
    assert dataset_mod._parse_workers(paths) == 3
    # a pool worker never starts a pool of its own
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert dataset_mod._parse_workers(paths) == 1


def test_pool_workers_cap_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 4)
    assert dataset_mod._pool_workers(10) == 4
    assert dataset_mod._pool_workers(3) == 3


def test_fork_pool_only_from_a_single_threaded_process_with_blas_on_one(monkeypatch):
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(dataset_mod, "_os_threads", lambda: 1)
    for var in dataset_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # no BLAS variable set: the BLAS may start a thread per CPU in each worker
    assert dataset_mod._fork_pool_workers(10) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert dataset_mod._fork_pool_workers(10) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert dataset_mod._fork_pool_workers(10) == 4
    assert dataset_mod._fork_pool_workers(3) == 3
    # a process with another thread, or one that cannot count its threads
    for threads in (2, None):
        monkeypatch.setattr(dataset_mod, "_os_threads", lambda: threads)
        assert dataset_mod._fork_pool_workers(10) == 1
    monkeypatch.setattr(dataset_mod, "_os_threads", lambda: 1)
    # a platform without fork
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert dataset_mod._fork_pool_workers(10) == 1


def test_os_threads_counts_a_python_thread():
    before = dataset_mod._os_threads()
    if before is None:
        pytest.skip("this platform does not list a process's threads")
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert dataset_mod._os_threads() == before + 1
    finally:
        release.set()
        other.join(timeout=60)


@pytest.mark.parametrize("pin", ["MKL_NUM_THREADS=1 before start", "all three after import"])
def test_blas_threads_started_at_load_keep_the_pool_away(pin):
    """A variable this BLAS does not read, or one set after numpy loaded,
    leaves the BLAS threads running, so no pool may fork."""
    env = {k: v for k, v in os.environ.items() if k not in dataset_mod._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(dataset_mod.__file__).parents[1])
    code = "import numpy, os\n"
    if pin.startswith("MKL"):
        env["MKL_NUM_THREADS"] = "1"
    else:
        code += f"os.environ.update(dict.fromkeys({dataset_mod._BLAS_THREAD_VARS!r}, '1'))\n"
    code += ("import rfcpca.dataset as d\n"
             "d._usable_cpus = lambda: 2\n"
             "print(d._os_threads(), d._fork_pool_workers(4))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    if out[0] in ("None", "1"):
        pytest.skip("numpy's BLAS here starts no threads when it loads")
    assert out[1] == "1"
