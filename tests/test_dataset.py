import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfcpca.core as core
import rfcpca.dataset as dataset_mod
from conftest import SIDECAR_SPOILS, spoil_entry, summaries_entry
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


def test_a_read_only_directory_too_large_for_one_process_parses_in_it(
        tmp_path, parse_on_pool, read_only, count_parses):
    rng = make_rng(6)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (9, 14, 11)]),
                  tmp_path)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(tmp_path)]
    before = sorted(p.name for p in tmp_path.iterdir())
    read_only(tmp_path)
    count_parses.clear()
    dataset = read_csv_dir(tmp_path)
    # the pool's workers would have nowhere to write their arrays
    assert parse_on_pool == [] and len(count_parses) == 3
    for got, want in zip(dataset.series, expected):
        assert np.array_equal(got, want)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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
    # a thread joined just before, as by the test above, stays in the count
    # for a few ms more; _runs_one_thread waits for it to leave
    dataset_mod._runs_one_thread()
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


def _prepare(data_dir, max_lag=2):
    """Summaries of ``data_dir`` as a CLI fit loads them: kept or computed and kept."""
    return core._load_prepared(data_dir, dataset_digest(data_dir), max_lag)


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
    ["ch01,ch02\n0.1,0.2\n0.3,0.4\n1e300,-1e-300\n"] * 3,
], ids=["one_row", "one_column", "three_trials"])
def test_loaded_arrays_equal_the_parser(tmp_path, count_parses, texts):
    _write_trials(tmp_path, texts)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(tmp_path)]
    for _ in range(2):
        count_parses.clear()
        dataset, digest = read_csv_dir(tmp_path), dataset_digest(tmp_path)
        # every load parses: only summaries are kept, and only by a fit
        assert len(count_parses) == len(texts)
        assert digest == dataset_digest(tmp_path)
        assert len(dataset.series) == len(expected)
        for got, want in zip(dataset.series, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    assert not (tmp_path / dataset_mod.SIDECAR_DIR).exists()


@pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
def test_a_header_only_trial_is_a_load_error_naming_it(tmp_path, monkeypatch, pool):
    if pool:
        monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    _write_trials(tmp_path, ["ch01,ch02\n1,2\n3,4\n", "ch01,ch02\n", "ch01,ch02\n\n"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"trial_001\.csv holds no data rows$"):
            read_csv_dir(tmp_path)
        # blank lines are no data rows either
        with pytest.raises(ValueError, match=r"trial_002\.csv holds no data rows$"):
            dataset_mod._load_trial(tmp_path / "trial_002.csv")


def test_digest_hashes_each_name_and_its_bytes_in_order(tmp_path):
    # an empty trial, and trials as large as the read buffer and larger
    size = dataset_mod._DIGEST_BUFFER_BYTES
    rng = make_rng(13)
    contents = [b"", rng.bytes(size), rng.bytes(2 * size + 17), b"ch01\n1\n"]
    for i, content in enumerate(contents):
        (tmp_path / f"trial_{i:03d}.csv").write_bytes(content)
    expected = hashlib.sha256()
    for i, content in enumerate(contents):
        expected.update(f"trial_{i:03d}.csv".encode() + hashlib.sha256(content).digest())
    digest = dataset_digest(tmp_path)
    assert digest == expected.hexdigest()
    # a renamed trial, and two trials that swap their bytes, hash otherwise
    (tmp_path / "trial_003.csv").rename(tmp_path / "trial_004.csv")
    renamed = dataset_digest(tmp_path)
    (tmp_path / "trial_004.csv").rename(tmp_path / "trial_003.csv")
    assert dataset_digest(tmp_path) == digest != renamed
    (tmp_path / "trial_001.csv").write_bytes(contents[2])
    (tmp_path / "trial_002.csv").write_bytes(contents[1])
    assert dataset_digest(tmp_path) not in (digest, renamed)


def test_digest_threads_hash_the_same_and_are_gone_on_return(tmp_path, monkeypatch):
    rng = make_rng(14)
    for i in range(4):
        (tmp_path / f"trial_{i:03d}.csv").write_bytes(rng.bytes(3 * i * 100_000 + 5))
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    before = threading.active_count()
    digests = []
    # this thread hashes too: one usable CPU starts no thread, and there are
    # never more threads than files
    for cpus, threads in ((1, 0), (2, 1), (8, 3)):
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: cpus)
        started.clear()
        digests.append(dataset_digest(tmp_path))
        assert len(started) == threads
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before
    assert digests[0] == digests[1] == digests[2]


def test_digest_raises_the_error_of_the_first_unreadable_file(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    for i in range(6):
        (tmp_path / f"trial_{i:03d}.csv").write_bytes(b"ch01\n1\n" * 100_000)
    # a directory named like a trial cannot be read as one
    for i in (2, 4):
        (tmp_path / f"trial_{i:03d}.csv").unlink()
        (tmp_path / f"trial_{i:03d}.csv").mkdir()
    before = threading.active_count()
    with pytest.raises(IsADirectoryError, match=r"trial_002\.csv"):
        dataset_digest(tmp_path)
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["empty", "missing"])
def test_digest_of_a_directory_without_trials_raises_as_the_read_does(tmp_path, where):
    data_dir = tmp_path / "data"
    if where == "empty":
        data_dir.mkdir()
        (data_dir / "notes.txt").write_text("no trials here")
    message = rf"^no trial_\*\.csv files under {re.escape(str(data_dir))}$"
    with pytest.raises(FileNotFoundError, match=message):
        read_csv_dir(data_dir)
    before = threading.active_count()
    with pytest.raises(FileNotFoundError, match=message):
        dataset_digest(data_dir)
    assert threading.active_count() == before


def test_pooled_parse_maps_the_files_its_workers_wrote(tmp_path, parse_on_pool, count_parses):
    rng = make_rng(6)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (9, 14, 11)]),
                  tmp_path)
    expected = [dataset_mod._load_trial(path) for path in dataset_mod._trial_paths(tmp_path)]
    count_parses.clear()
    dataset = read_csv_dir(tmp_path)
    # the workers parsed every trial; this process only mapped their files
    assert parse_on_pool == [2] and count_parses == []
    for got, want in zip(dataset.series, expected):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    # which are gone with the parse
    assert list((tmp_path / dataset_mod.SIDECAR_DIR).iterdir()) == []


@pytest.mark.parametrize("how", ["parse_error", "dropped"])
def test_a_pooled_parse_starts_no_trial_once_its_stream_ends(tmp_path, parse_on_pool,
                                                             monkeypatch, how):
    n = 16
    data_dir = tmp_path / "data"
    _write_trials(data_dir, ["ch01,ch02\n1,2\n3,4\n"] * n)
    if how == "parse_error":
        (data_dir / "trial_000.csv").write_text("ch01,ch02\nnot,numbers\n")
    log = tmp_path / "parsed"
    load = dataset_mod._load_trial

    def logging_load(path):
        # the forked workers inherit this spy, which the workers' _save_trial
        # calls; each parse lasts 50 ms, so they cannot run through every
        # trial before the stream ends
        with open(log, "a") as fh:
            fh.write(f"{Path(path).name}\n")
        time.sleep(0.05)
        return load(path)

    monkeypatch.setattr(dataset_mod, "_load_trial", logging_load)
    stream = dataset_mod._parse_dir(data_dir, dataset_mod._trial_paths(data_dir))
    if how == "parse_error":
        with pytest.raises(ValueError, match="could not convert"):
            next(stream)
    else:
        next(stream)
        stream.close()
    assert parse_on_pool == [2]
    assert 0 < len(log.read_text().split()) < n
    assert list((data_dir / dataset_mod.SIDECAR_DIR).iterdir()) == []


@pytest.mark.parametrize("how, most", [("parse_error", 3), ("dropped", 4)])
def test_a_pooled_parse_hands_out_at_most_one_trial_more_than_its_workers(
        tmp_path, parse_on_pool, monkeypatch, how, most):
    # two workers: a failing first trial waits for at most the two trials
    # handed out beside it; a stream dropped after its first array, for the
    # one handed out as that array was yielded as well
    n = 20
    data_dir = tmp_path / "data"
    _write_trials(data_dir, ["ch01,ch02\n1,2\n3,4\n"] * n)
    if how == "parse_error":
        (data_dir / "trial_000.csv").write_text("ch01,ch02\nnot,numbers\n")
    log = tmp_path / "parsed"
    load = dataset_mod._load_trial

    def logging_load(path):
        with open(log, "a") as fh:
            fh.write(f"{Path(path).name}\n")
        time.sleep(0.05)
        return load(path)

    monkeypatch.setattr(dataset_mod, "_load_trial", logging_load)
    stream = dataset_mod._parse_dir(data_dir, dataset_mod._trial_paths(data_dir))
    if how == "parse_error":
        with pytest.raises(ValueError, match="could not convert"):
            next(stream)
    else:
        assert next(stream).shape == (2, 2)
        stream.close()
    assert parse_on_pool == [2]
    assert 0 < len(log.read_text().split()) <= most
    assert list((data_dir / dataset_mod.SIDECAR_DIR).iterdir()) == []


def test_kept_summaries_are_readable_by_whoever_may_read_the_directory(tmp_path):
    rng = make_rng(6)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (9, 14, 11)]),
                  tmp_path)
    _prepare(tmp_path)
    entry = summaries_entry(tmp_path)
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]
    (tmp_path / "probe").write_bytes(b"")
    assert entry.stat().st_mode == (tmp_path / "probe").stat().st_mode


def test_an_edited_trial_replaces_the_entry(tmp_path, count_parses):
    rng = make_rng(7)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((8, 2)) for _ in range(3)]), tmp_path)
    _prepare(tmp_path)
    old = summaries_entry(tmp_path)
    with (tmp_path / "trial_001.csv").open("a") as fh:
        fh.write("7,8\n")
    count_parses.clear()
    prep, digest = _prepare(tmp_path)
    assert len(count_parses) == 3
    assert digest == dataset_digest(tmp_path)
    fresh = core._Prepared(read_csv_dir(tmp_path), 2)
    assert np.array_equal(prep.energies, fresh.energies)
    # only the entry of the current bytes is kept
    assert [p.name for p in (tmp_path / dataset_mod.SIDECAR_DIR).iterdir()] == [
        summaries_entry(tmp_path).name]
    assert not old.exists()


@pytest.mark.parametrize("how", SIDECAR_SPOILS)
def test_spoiled_entry_is_a_miss(tmp_path, count_parses, how):
    rng = make_rng(8)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((t, 3)) for t in (6, 9)]), tmp_path)
    fresh, digest = _prepare(tmp_path)
    # copied out of the mapping: a file spoiled in place can no longer be read
    expected = np.array(fresh.summaries)
    del fresh
    spoil_entry(summaries_entry(tmp_path), how)
    count_parses.clear()
    prep, again = _prepare(tmp_path)
    assert again == digest
    assert len(count_parses) == 2
    assert np.array_equal(prep.summaries, expected)
    # the entry is whole again, unless the sidecar directory is a file
    count_parses.clear()
    _prepare(tmp_path)
    assert len(count_parses) == (2 if how == "file_for_sidecar" else 0)


def test_read_only_directory_is_a_miss_that_writes_nothing(tmp_path, monkeypatch, read_only,
                                                           count_parses):
    rng = make_rng(9)
    data_dir = tmp_path / "data"
    # the parse needs no temporary directory: any use of one fails here
    (tmp_path / "file").write_text("not a directory")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file" / "tmp"))
    write_csv_dir(MtsDataset(series=[rng.standard_normal((7, 2)) for _ in range(2)]), data_dir)
    expected = core._Prepared(read_csv_dir(data_dir), 2)
    before = sorted(p.name for p in data_dir.iterdir())
    read_only(data_dir)
    for _ in range(2):
        count_parses.clear()
        prep, digest = _prepare(data_dir)
        assert len(count_parses) == 2 and digest == dataset_digest(data_dir)
        assert np.array_equal(prep.grams, expected.grams)
    assert sorted(p.name for p in data_dir.iterdir()) == before


def test_read_only_directory_still_reads_its_entry(tmp_path, read_only, count_parses):
    rng = make_rng(10)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((7, 2)) for _ in range(2)]), tmp_path)
    fresh = np.array(_prepare(tmp_path)[0].blocks)
    read_only(tmp_path)
    read_only(tmp_path / dataset_mod.SIDECAR_DIR)
    count_parses.clear()
    prep, _ = _prepare(tmp_path)
    assert count_parses == []
    assert np.array_equal(prep.blocks, fresh)


def test_entry_is_published_only_for_the_bytes_it_was_parsed_from(tmp_path, monkeypatch):
    rng = make_rng(11)
    write_csv_dir(MtsDataset(series=[rng.standard_normal((5, 2)) for _ in range(2)]), tmp_path)
    before = dataset_digest(tmp_path)
    load = dataset_mod._load_trial

    def edit_while_parsing(path):
        # another writer changes a trial once it has been parsed
        x = load(path)
        with Path(path).open("a") as fh:
            fh.write("1,2\n")
        return x

    monkeypatch.setattr(dataset_mod, "_load_trial", edit_while_parsing)
    prep, digest = core._load_prepared(tmp_path, before, 2)
    assert prep.n_series == 2
    # the digest taken after the parse, and no entry under either digest
    assert digest == dataset_digest(tmp_path) != before
    assert not (tmp_path / dataset_mod.SIDECAR_DIR).exists()


def test_bad_trial_publishes_no_entry(tmp_path):
    (tmp_path / "trial_000.csv").write_text("a,b\n1,2\n3,4\n")
    (tmp_path / "trial_001.csv").write_text("a,b\n1,nan\n3,4\n")
    for _ in range(2):
        with pytest.raises(NonFiniteInput):
            _prepare(tmp_path, 1)
    assert not (tmp_path / dataset_mod.SIDECAR_DIR).exists()


@pytest.mark.skipif(not Path("/proc/sys/kernel/pid_max").exists(), reason="needs Linux's pid_max")
def test_keep_removes_the_scratch_names_of_dead_processes_only(tmp_path):
    # a keep or a pooled parse killed midway leaves its .tmp-<pid>-<hex>.npy
    # file or .tmp-<pid>-<hex> directory behind; the next keep removes them
    # once no process has that pid, and keeps those of a running process
    pid_max = int(Path("/proc/sys/kernel/pid_max").read_text())
    write_csv_dir(MtsDataset(series=[np.ones((3, 2)), np.zeros((4, 2))]), tmp_path)
    root = tmp_path / dataset_mod.SIDECAR_DIR
    root.mkdir()
    scratch = []
    for pid in (pid_max + 1, os.getpid()):
        parse = root / f".tmp-{pid}-0badc0de"
        parse.mkdir()
        (parse / "00000.npy").write_bytes(b"partial")
        keep = root / f".tmp-{pid}-0badf00d.npy"
        keep.write_bytes(b"partial")
        scratch.append([parse.name, keep.name])
    _prepare(tmp_path, 1)
    assert sorted(path.name for path in root.iterdir()) == sorted(
        [*scratch[1], summaries_entry(tmp_path).name])


# holds a pool of two started workers, prints their pids, then waits to be killed
_POOL_HOLDER = """
import json, sys, time
import rfcpca.dataset as dataset_mod
import rfcpca.selection as selection_mod

kwargs = {"initializer": selection_mod._init_worker, "initargs": ("search",)}
with dataset_mod._process_pool(2, **(kwargs if sys.argv[1] == "grid" else {})) as pool:
    # a fork pool starts all its workers at the first task
    assert list(pool.map(abs, range(-4, 0))) == [4, 3, 2, 1]
    print(json.dumps(sorted(pool._processes)), flush=True)
    time.sleep(300)
"""


def _running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
@pytest.mark.parametrize("pool", ["parse", "grid"])
def test_pool_workers_die_with_a_parent_killed_by_sigkill(pool):
    env = dict(os.environ, PYTHONPATH=str(Path(dataset_mod.__file__).parents[1]))
    holder = subprocess.Popen([sys.executable, "-c", _POOL_HOLDER, pool],
                              stdout=subprocess.PIPE, text=True, env=env)
    workers = []
    try:
        assert select.select([holder.stdout], [], [], 60)[0], "the pool never started"
        workers = json.loads(holder.stdout.readline())
        assert len(workers) == 2
        holder.kill()
        holder.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
