import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import rfcpca.dataset as dataset_mod
from conftest import SIDECAR_SPOILS, spoil_entry
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
    # a series that is not T x p, also the first one
    for series in ([np.ones(5)], [np.ones((5, 2)), np.ones(5)], [np.ones((2, 3, 4))]):
        with pytest.raises(DimensionMismatch):
            MtsDataset(series=series)


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


def test_joined_threads_are_waited_for_and_live_ones_never_count_as_gone(monkeypatch):
    counts = []
    monkeypatch.setattr(dataset_mod, "_os_threads", lambda: counts.pop(0) if counts else 2)
    # threads Python has joined leave the count after a few reads
    counts[:] = [3, 2, 2, 1]
    assert dataset_mod._runs_one_thread()
    assert counts == []
    # a thread Python does not know of, such as a BLAS thread, stays counted
    start = time.monotonic()
    assert not dataset_mod._runs_one_thread()
    assert time.monotonic() - start >= dataset_mod._JOINED_THREADS_WAIT_S
    # a live Python thread ends the wait at once
    counts[:] = [2, 1]
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert not dataset_mod._runs_one_thread()
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert counts == [1]


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


def _write_trials(data_dir, texts):
    data_dir.mkdir(exist_ok=True)
    for i, text in enumerate(texts):
        (data_dir / f"trial_{i:03d}.csv").write_text(text)


def _entry(data_dir):
    return data_dir / dataset_mod.SIDECAR_DIR / dataset_digest(data_dir)


@pytest.fixture
def count_parses(monkeypatch):
    """Counts the trials parsed in this process."""
    parsed = []
    load = dataset_mod._load_trial

    def counting(path):
        parsed.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(dataset_mod, "_load_trial", counting)
    return parsed


@pytest.mark.parametrize("texts", [
    ["ch01,ch02,ch03\n1,2,3\n", "ch01,ch02,ch03\n4,5,6\n"],
    ["ch01\n1\n2.5\n-3e-7\n"],
    ["ch01,ch02\n"],
    ["ch01,ch02\n0.1,0.2\n0.3,0.4\n1e300,-1e-300\n"] * 3,
], ids=["one_row", "one_column", "header_only", "three_trials"])
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_loaded_arrays_equal_the_parser(tmp_path, count_parses, texts):
    _write_trials(tmp_path, texts)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(tmp_path)]
    count_parses.clear()
    for parses in (len(texts), 0):  # a miss, then a hit
        dataset, digest = dataset_mod.load_csv_dir(tmp_path)
        assert len(count_parses) == parses
        count_parses.clear()
        assert digest == dataset_digest(tmp_path)
        assert len(dataset.series) == len(expected)
        for got, want in zip(dataset.series, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            # mapped from the sidecar, never written through
            assert not got.flags.writeable
    assert sorted(p.name for p in _entry(tmp_path).iterdir()) == sorted(
        [f"{i:05d}.npy" for i in range(len(texts))] + ["shapes.npy"])
    # readable by whoever may read a directory made here
    (tmp_path / "probe").mkdir()
    assert _entry(tmp_path).stat().st_mode == (tmp_path / "probe").stat().st_mode


def test_pooled_parse_maps_the_files_its_workers_wrote(tmp_path, parse_on_pool, count_parses):
    rng = make_rng(6)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (9, 14, 11)]),
                  tmp_path)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(tmp_path)]
    count_parses.clear()
    dataset, _ = dataset_mod.load_csv_dir(tmp_path)
    # the workers parsed every trial; this process only mapped their files
    assert parse_on_pool == [2] and count_parses == []
    for i, (got, want) in enumerate(zip(dataset.series, expected)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.load(dataset_mod._series_file(_entry(tmp_path), i)), want)


def test_an_edited_trial_replaces_the_entry(tmp_path, count_parses):
    rng = make_rng(7)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((8, 2)) for _ in range(3)]), tmp_path)
    dataset_mod.load_csv_dir(tmp_path)
    old = _entry(tmp_path)
    with (tmp_path / "trial_001.csv").open("a") as fh:
        fh.write("7,8\n")
    count_parses.clear()
    dataset, digest = dataset_mod.load_csv_dir(tmp_path)
    assert len(count_parses) == 3
    assert dataset.lengths == [8, 9, 8]
    assert dataset.series[1][-1].tolist() == [7.0, 8.0]
    # only the entry of the current bytes is kept
    assert [p.name for p in (tmp_path / dataset_mod.SIDECAR_DIR).iterdir()] == [digest]
    assert not old.exists()


@pytest.mark.parametrize("how", SIDECAR_SPOILS)
def test_spoiled_entry_is_a_miss(tmp_path, count_parses, how):
    rng = make_rng(8)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (6, 9)]), tmp_path)
    fresh, digest = dataset_mod.load_csv_dir(tmp_path)
    # copied out of the mapping: a file spoiled in place can no longer be read
    expected = [np.array(x) for x in fresh.series]
    del fresh
    spoil_entry(_entry(tmp_path), how)
    count_parses.clear()
    dataset, again = dataset_mod.load_csv_dir(tmp_path)
    assert again == digest
    assert len(count_parses) == 2
    for got, want in zip(dataset.series, expected):
        assert np.array_equal(got, want)
    # the entry is whole again, unless the sidecar directory is a file
    count_parses.clear()
    dataset_mod.load_csv_dir(tmp_path)
    assert len(count_parses) == (2 if how == "file_for_sidecar" else 0)


def test_read_only_directory_is_a_miss_that_writes_nothing(tmp_path, monkeypatch, read_only,
                                                           count_parses):
    rng = make_rng(9)
    data_dir, scratch = tmp_path / "data", tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    write_csv_dir(MtsDataset(series=[rng.standard_normal((7, 2)) for _ in range(2)]), data_dir)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(data_dir)]
    before = sorted(p.name for p in data_dir.iterdir())
    read_only(data_dir)
    for _ in range(2):
        count_parses.clear()
        dataset, digest = dataset_mod.load_csv_dir(data_dir)
        assert len(count_parses) == 2 and digest == dataset_digest(data_dir)
        for got, want in zip(dataset.series, expected):
            assert np.array_equal(got, want)
    # parsed into the system's temporary directory, and removed from it
    assert sorted(p.name for p in data_dir.iterdir()) == before
    assert list(scratch.iterdir()) == []


def test_read_only_directory_still_reads_its_entry(tmp_path, read_only, count_parses):
    rng = make_rng(10)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((7, 2)) for _ in range(2)]), tmp_path)
    fresh, _ = dataset_mod.load_csv_dir(tmp_path)
    read_only(tmp_path)
    read_only(tmp_path / dataset_mod.SIDECAR_DIR)
    count_parses.clear()
    dataset, _ = dataset_mod.load_csv_dir(tmp_path)
    assert count_parses == []
    for got, want in zip(dataset.series, fresh.series):
        assert np.array_equal(got, want)


def test_entry_is_published_only_for_the_bytes_it_was_parsed_from(tmp_path, monkeypatch):
    rng = make_rng(11)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((5, 2)) for _ in range(2)]), tmp_path)
    before = dataset_digest(tmp_path)
    parse = dataset_mod._parse_trial

    def edit_while_parsing(task):
        # another writer changes a trial once it has been parsed
        shape = parse(task)
        with Path(task[0]).open("a") as fh:
            fh.write("1,2\n")
        return shape

    monkeypatch.setattr(dataset_mod, "_parse_trial", edit_while_parsing)
    dataset, digest = dataset_mod.load_csv_dir(tmp_path)
    assert dataset.lengths == [5, 5]
    # the digest taken after the parse, and no entry under either digest
    assert digest == dataset_digest(tmp_path) != before
    assert list((tmp_path / dataset_mod.SIDECAR_DIR).iterdir()) == []


def test_bad_trial_publishes_no_entry(tmp_path):
    (tmp_path / "trial_000.csv").write_text("a,b\n1,2\n")
    (tmp_path / "trial_001.csv").write_text("a,b\n1,nan\n")
    for _ in range(2):
        with pytest.raises(NonFiniteInput):
            dataset_mod.load_csv_dir(tmp_path)
    assert list((tmp_path / dataset_mod.SIDECAR_DIR).iterdir()) == []
