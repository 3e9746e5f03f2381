import concurrent.futures
import multiprocessing

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
