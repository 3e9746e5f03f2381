"""The prepared summaries a fit keeps in its trials' sidecar entry.

A fit of a trial directory keeps the lag summaries of ``core._Prepared``
beside the parsed trials, and a later fit of the same bytes at the same lag
count maps them instead of computing them.  Whatever is kept, missing,
spoiled or unwritable, a fit gives the bytes of a fit of a directory that
was never read.
"""

import errno
import shutil
from pathlib import Path

import numpy as np
import pytest

import rfcpca.cli as cli_mod
import rfcpca.core as core
import rfcpca.dataset as dataset_mod
from conftest import _Trap
from rfcpca.cli import main
from rfcpca.dataset import MtsDataset, dataset_digest, read_csv_dir, write_csv_dir
from rfcpca.rng import make_rng

SUMMARY_SPOILS = ("truncated", "empty_file", "wrong_shape", "wrong_dtype", "object_array",
                  "non_finite", "missing_file")


def _write(data_dir, seed=12, n=6, p=3):
    rng = make_rng(seed)
    series = []
    for i in range(n):
        t = 40 + 3 * i
        z = rng.standard_normal((t, 1)) * (np.arange(p) == i % 2)
        series.append(z + 0.1 * rng.standard_normal((t, p)))
    write_csv_dir(MtsDataset(series=series), data_dir)
    return data_dir


@pytest.fixture
def data_dir(tmp_path):
    return _write(tmp_path / "data")


@pytest.fixture
def count_prepares(monkeypatch):
    """Counts the summaries ``_Prepared.__init__`` computes in this process."""
    made = []
    init = core._Prepared.__init__

    def counting(self, dataset, max_lag):
        made.append(max_lag)
        init(self, dataset, max_lag)

    monkeypatch.setattr(core._Prepared, "__init__", counting)
    return made


def _entry(data_dir):
    return dataset_mod._sidecar_entry(data_dir, dataset_digest(data_dir))


def _kept(data_dir):
    """Names of the summary directories and scratch entries of the entry."""
    return sorted(p.name for p in _entry(data_dir).iterdir() if p.is_dir())


def _load(data_dir, max_lag=2):
    return core._load_prepared(data_dir, dataset_digest(data_dir), max_lag)[0]


def _mapped(array):
    while array is not None and not isinstance(array, np.memmap):
        array = array.base
    return array is not None


def _fit_bytes(data_dir, out, *options):
    argv = ["fit", "--data", str(data_dir), "-S", "2", "--seed", "4", "--out", str(out),
            *options]
    assert main(argv) == 0
    return out.read_bytes(), out.with_suffix(".memberships.csv").read_bytes()


@pytest.fixture
def pristine(data_dir, tmp_path):
    """Fit bytes of a copy of ``data_dir`` that has never been read, by options."""
    cache = {}

    def fit(*options):
        if options not in cache:
            copy = tmp_path / f"pristine{len(cache)}"
            shutil.copytree(data_dir, copy)
            cache[options] = _fit_bytes(copy, tmp_path / f"pristine{len(cache)}.json",
                                        *options)
        return cache[options]

    return fit


def test_a_hit_maps_the_arrays_a_fresh_prepare_computes(data_dir, count_prepares):
    fresh = core._Prepared(read_csv_dir(data_dir), 2)
    count_prepares.clear()
    computed = _load(data_dir)
    assert count_prepares == [2]
    assert _kept(data_dir) == [f"summaries-2-{core._summaries_tag()}"]
    count_prepares.clear()
    hit = _load(data_dir)
    assert count_prepares == []
    for prep in (computed, hit):
        assert (prep.n_series, prep.max_lag) == (fresh.n_series, fresh.max_lag)
        for key in core._SUMMARY_ARRAYS:
            got, want = getattr(prep, key), getattr(fresh, key)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
    for key in core._SUMMARY_ARRAYS:
        array = getattr(hit, key)
        assert not array.flags.writeable and _mapped(array)


@pytest.mark.parametrize("key", core._SUMMARY_ARRAYS)
@pytest.mark.parametrize("how", SUMMARY_SPOILS)
def test_spoiled_summaries_are_a_miss(data_dir, tmp_path, pristine, count_prepares, how,
                                      key):
    reference = pristine()
    assert _fit_bytes(data_dir, tmp_path / "first.json") == reference
    path = _entry(data_dir) / _kept(data_dir)[0] / f"{key}.npy"
    if how == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif how == "empty_file":
        path.write_bytes(b"")
    elif how == "wrong_shape":
        np.save(path, np.load(path)[:-1])
    elif how == "wrong_dtype":
        np.save(path, np.load(path).astype(np.float32))
    elif how == "object_array":
        np.save(path, np.array([_Trap(), None], dtype=object), allow_pickle=True)
    elif how == "non_finite":
        array = np.load(path)
        array.flat[-1] = np.inf
        np.save(path, array)
    else:
        path.unlink()
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "spoiled.json") == reference
    assert count_prepares == [2]
    # kept whole again
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "again.json") == reference
    assert count_prepares == []


def test_a_file_for_the_summaries_directory_is_a_miss(data_dir, tmp_path, pristine,
                                                      count_prepares):
    reference = pristine()
    _fit_bytes(data_dir, tmp_path / "first.json")
    kept = _entry(data_dir) / _kept(data_dir)[0]
    shutil.rmtree(kept)
    kept.write_text("not a directory")
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "spoiled.json") == reference
    assert count_prepares == [2] and kept.is_dir()


def test_each_lag_count_has_its_own_summaries(data_dir, tmp_path, pristine, count_prepares):
    tag = core._summaries_tag()
    reference = {lag: pristine("--max-lag", lag) for lag in ("1", "2")}
    for max_lag, computed in (("2", [2]), ("1", [1]), ("2", []), ("1", [])):
        count_prepares.clear()
        assert _fit_bytes(data_dir, tmp_path / f"lag{max_lag}.json",
                          "--max-lag", max_lag) == reference[max_lag]
        assert count_prepares == computed
    assert _kept(data_dir) == [f"summaries-1-{tag}", f"summaries-2-{tag}"]


def test_summaries_of_other_code_are_a_miss(data_dir, monkeypatch, count_prepares):
    before = _load(data_dir)
    energies = np.array(before.energies)
    del before
    summarise = core._lag_summaries

    def doubled(x, blocks, grams, out):
        # other code: the same summaries with twice the energies
        summarise(x, blocks, grams, out)
        out *= 2.0

    monkeypatch.setattr(core, "_lag_summaries", doubled)
    count_prepares.clear()
    for computed in ([2], []):
        prep = _load(data_dir)
        assert count_prepares == computed
        assert np.array_equal(prep.energies, 2.0 * energies)
        count_prepares.clear()
    # only the summaries of the code that runs are kept
    assert _kept(data_dir) == [f"summaries-2-{core._summaries_tag()}"]
    monkeypatch.setattr(core, "_lag_summaries", summarise)
    assert np.array_equal(_load(data_dir).energies, energies)
    assert count_prepares == [2]


def test_a_read_only_entry_computes_the_summaries_and_writes_nothing(
        data_dir, tmp_path, pristine, read_only, count_prepares):
    reference = pristine()
    dataset_mod.load_csv_dir(data_dir)
    entry = _entry(data_dir)
    before = sorted(p.name for p in entry.iterdir())
    read_only(entry)
    count_prepares.clear()
    for k in range(2):
        assert _fit_bytes(data_dir, tmp_path / f"fit{k}.json") == reference
    assert count_prepares == [2, 2]
    assert sorted(p.name for p in entry.iterdir()) == before


@pytest.mark.parametrize("fault", ["disk_full", "entry_removed"])
def test_summaries_that_cannot_be_written_leave_the_fit_and_no_scratch(
        data_dir, tmp_path, pristine, monkeypatch, count_prepares, fault):
    reference = pristine()
    # the trials are parsed already: the fit writes only its summaries
    dataset_mod.load_csv_dir(data_dir)
    save = np.save

    def failing(path, array, *args, **kwargs):
        if Path(path).parent.name.startswith(dataset_mod._TMP_PREFIX):
            if fault == "disk_full":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            # another process's publish of other bytes removes this entry
            shutil.rmtree(Path(path).parents[1])
        return save(path, array, *args, **kwargs)

    monkeypatch.setattr(np, "save", failing)
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "fit.json") == reference
    assert count_prepares == [2]
    entry = _entry(data_dir)
    if fault == "disk_full":
        assert _kept(data_dir) == []
    else:
        assert not entry.exists()
    root = data_dir / dataset_mod.SIDECAR_DIR
    assert not [p for p in root.rglob(f"{dataset_mod._TMP_PREFIX}*")]


def test_an_edited_trial_drops_the_old_summaries(data_dir, tmp_path, count_prepares):
    _fit_bytes(data_dir, tmp_path / "before.json")
    old = _entry(data_dir)
    trial = data_dir / "trial_002.csv"
    trial.write_text("\n".join(trial.read_text().splitlines()[:-1]) + "\n")
    copy = shutil.copytree(data_dir, tmp_path / "edited",
                           ignore=shutil.ignore_patterns(dataset_mod.SIDECAR_DIR))
    count_prepares.clear()
    assert (_fit_bytes(data_dir, tmp_path / "after.json")
            == _fit_bytes(copy, tmp_path / "copy.json"))
    assert count_prepares == [2, 2]
    assert not old.exists()
    assert [p.name for p in (data_dir / dataset_mod.SIDECAR_DIR).iterdir()] == [
        dataset_digest(data_dir)]
    assert _kept(data_dir) == [f"summaries-2-{core._summaries_tag()}"]


def test_no_summaries_are_kept_for_trials_edited_while_loading(data_dir, monkeypatch,
                                                               count_prepares):
    dataset_mod.load_csv_dir(data_dir)
    entry = _entry(data_dir)
    digest = entry.name
    # a spoiled entry, so the trials are parsed again
    dataset_mod._series_file(entry, 0).unlink()
    parse = dataset_mod._parse_trial

    def edit_while_parsing(task):
        shape = parse(task)
        with Path(task[0]).open("a") as fh:
            fh.write("1,2,3\n")
        return shape

    monkeypatch.setattr(dataset_mod, "_parse_trial", edit_while_parsing)
    count_prepares.clear()
    prep, loaded = core._load_prepared(data_dir, digest, 2)
    assert loaded == dataset_digest(data_dir) != digest
    assert count_prepares == [2] and prep.n_series == 6
    assert [p.name for p in entry.iterdir() if p.is_dir()] == []


@pytest.mark.parametrize("options", [
    ("--variant", "t", "--auto"),
    ("--variant", "n", "--lambda", "auto"),
], ids=["auto", "lambda_auto"])
def test_selection_runs_give_the_same_bytes_cold_and_warm(data_dir, tmp_path, monkeypatch,
                                                          count_prepares, options):
    # two-point grids keep the search as quick as a few plain fits
    monkeypatch.setattr(cli_mod, "DEFAULT_M_GRID", (1.4, 2.0))
    monkeypatch.setattr(cli_mod, "DEFAULT_ALPHA_GRID", (0.1, 0.3))
    cold = _fit_bytes(data_dir, tmp_path / "cold.json", *options)
    assert count_prepares == [2]
    warm = _fit_bytes(data_dir, tmp_path / "warm.json", *options)
    assert count_prepares == [2]
    assert warm == cold


def test_analyze_gives_the_same_bytes_cold_and_warm(data_dir, tmp_path, count_prepares):
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data_dir), "--variant", "n", "--lambda", "0.05",
                 "--max-lag", "1", "--out", str(fit)]) == 0
    # a copy of the same bytes that has never been read
    copy = shutil.copytree(data_dir, tmp_path / "copy",
                           ignore=shutil.ignore_patterns(dataset_mod.SIDECAR_DIR))
    count_prepares.clear()
    outputs = []
    for run in ("cold", "warm"):
        prefix = tmp_path / run
        assert main(["analyze", "--fit", str(fit), "--data", str(copy),
                     "--out-prefix", str(prefix)]) == 0
        outputs.append([Path(f"{prefix}_{name}.csv").read_bytes()
                        for name in ("angles", "contributions")])
    assert count_prepares == [1]
    assert outputs[0] == outputs[1]
    assert b"noise" in outputs[0][1]
