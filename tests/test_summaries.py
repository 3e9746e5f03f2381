"""The prepared summaries a fit keeps in its trials' sidecar.

A fit of a trial directory keeps the lag summaries of ``core._Prepared``
beside the trials, at the largest lag count asked for so far, and a later
fit of the same bytes at that many lags or fewer maps them instead of
computing them.  Whatever is kept, missing, spoiled or unwritable, a fit
gives the bytes of a fit of a directory that was never read.
"""

import errno
import functools
import os
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest

import rfcpca.cli as cli_mod
import rfcpca.core as core
import rfcpca.dataset as dataset_mod
from conftest import _Trap, spoil_entry, summaries_entry
from rfcpca.cli import main
from rfcpca.dataset import MtsDataset, dataset_digest, read_csv_dir, write_csv_dir
from rfcpca.rng import make_rng

SUMMARY_SPOILS = ("truncated", "empty_file", "wrong_shape", "wrong_dtype", "object_array",
                  "non_finite_block_row", "non_finite_gram", "missing_file", "scalar",
                  "no_lag_axis")


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


def _kept(data_dir):
    """Names of the entries and scratch directories of the sidecar."""
    return sorted(p.name for p in (data_dir / dataset_mod.SIDECAR_DIR).iterdir())


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
    assert _kept(data_dir) == [summaries_entry(data_dir).name]
    count_prepares.clear()
    hit = _load(data_dir)
    assert count_prepares == []
    for prep in (computed, hit):
        assert (prep.n_series, prep.max_lag) == (fresh.n_series, fresh.max_lag)
        for key in ("summaries", "blocks", "grams", "energies"):
            got, want = getattr(prep, key), getattr(fresh, key)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
    for key in ("summaries", "blocks", "grams"):
        array = getattr(hit, key)
        assert not array.flags.writeable and _mapped(array)


@pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
def test_a_cold_load_holds_one_parsed_trial_at_a_time(data_dir, monkeypatch, pool):
    if pool:
        monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    fresh = core._Prepared(read_csv_dir(data_dir), 2)
    # every trial array handed out in this process: parsed here, or mapped
    # from the file a pool worker wrote
    alive, most, handed = [0], [0], []

    def dropped():
        alive[0] -= 1

    def tracked(make):
        def wrapper(path):
            x = make(path)
            handed.append(Path(path).name)
            alive[0] += 1
            most[0] = max(most[0], alive[0])
            weakref.finalize(x, dropped)
            return x
        return wrapper

    monkeypatch.setattr(dataset_mod, "_load_trial", tracked(dataset_mod._load_trial))
    monkeypatch.setattr(dataset_mod, "_map_array", tracked(dataset_mod._map_array))
    prep = _load(data_dir)
    assert len(handed) == fresh.n_series
    assert handed[0] == ("00000.npy" if pool else "trial_000.csv")
    assert most == [1] and alive == [0]
    assert prep.summaries.tobytes() == fresh.summaries.tobytes()


def test_a_cold_load_stopped_midway_leaves_no_scratch(data_dir, monkeypatch):
    monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
    summarise = core._lag_summaries
    done = []

    class Stop(Exception):
        pass

    def stopping(*args):
        # the second trial's summaries fail while the pool is still parsing
        if done:
            raise Stop
        done.append(summarise(*args))

    monkeypatch.setattr(core, "_lag_summaries", stopping)
    with pytest.raises(Stop):
        _load(data_dir)
    assert _kept(data_dir) == []


@pytest.mark.parametrize("how", SUMMARY_SPOILS)
def test_spoiled_summaries_are_a_miss(data_dir, tmp_path, pristine, count_prepares, how):
    reference = pristine()
    assert _fit_bytes(data_dir, tmp_path / "first.json") == reference
    path = summaries_entry(data_dir)
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
    elif how in ("non_finite_block_row", "non_finite_gram"):
        # the last G(l) entry of the last series' block row, or the last
        # entry of its last Gram
        array = np.load(path)
        array[-1, -1, 0 if how == "non_finite_block_row" else -1, -1] = np.inf
        np.save(path, array)
    elif how == "scalar":
        np.save(path, np.float64(1.0))
    elif how == "no_lag_axis":
        np.save(path, np.load(path)[0])
    else:
        path.unlink()
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "spoiled.json") == reference
    assert count_prepares == [2]
    # kept whole again
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "again.json") == reference
    assert count_prepares == []


def test_a_directory_on_the_entrys_name_is_a_miss_once(data_dir, tmp_path, pristine,
                                                        count_prepares):
    reference = pristine()
    _fit_bytes(data_dir, tmp_path / "first.json")
    kept = summaries_entry(data_dir)
    kept.unlink()
    (kept / "inner").mkdir(parents=True)
    (kept / "inner" / "notes.txt").write_text("not an entry")
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "spoiled.json") == reference
    assert count_prepares == [2] and kept.is_file()
    assert _kept(data_dir) == [kept.name]
    # removed and replaced, so the next fit maps the entry
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "again.json") == reference
    assert count_prepares == []


def test_a_stray_name_beside_the_entry_is_a_miss_until_the_next_keep(
        data_dir, tmp_path, pristine, count_prepares):
    reference = pristine()
    _fit_bytes(data_dir, tmp_path / "first.json")
    # the entry is read only while it is the one name of the sidecar
    (data_dir / dataset_mod.SIDECAR_DIR / "notes.txt").write_text("not an entry")
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "stray.json") == reference
    assert count_prepares == [2]
    assert _kept(data_dir) == [summaries_entry(data_dir).name]
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "again.json") == reference
    assert count_prepares == []


def test_a_scratch_directory_beside_the_entry_is_no_other_name(data_dir, tmp_path, pristine,
                                                               count_prepares):
    reference = pristine()
    _fit_bytes(data_dir, tmp_path / "first.json")
    # the scratch directory of a write this process has running
    scratch = (data_dir / dataset_mod.SIDECAR_DIR
               / f"{dataset_mod._TMP_PREFIX}{os.getpid()}-0000beef")
    scratch.mkdir()
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "mapped.json") == reference
    assert count_prepares == []
    assert scratch.is_dir()
    assert _kept(data_dir) == sorted([summaries_entry(data_dir).name, scratch.name])


def test_fewer_lags_are_served_from_the_kept_summaries(data_dir, tmp_path, pristine,
                                                      count_prepares):
    largest = 0
    for max_lag, computed in ((3, [3]), (2, []), (1, []), (4, [4]), (2, [])):
        count_prepares.clear()
        options = ("--max-lag", str(max_lag))
        assert _fit_bytes(data_dir, tmp_path / f"lag{max_lag}.json", *options) == pristine(
            *options)
        assert count_prepares == computed
        # one entry, of the largest lag count asked for so far
        largest = max(largest, max_lag)
        assert _kept(data_dir) == [summaries_entry(data_dir).name]
        assert np.load(summaries_entry(data_dir)).shape[0] == largest


def test_analyze_of_fewer_lags_computes_nothing(data_dir, tmp_path, count_prepares):
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data_dir), "--max-lag", "2",
                 "--out", str(tmp_path / "first.json")]) == 0
    assert main(["fit", "--data", str(data_dir), "--variant", "n", "--lambda", "0.05",
                 "--max-lag", "1", "--out", str(fit)]) == 0
    copy = shutil.copytree(data_dir, tmp_path / "copy",
                           ignore=shutil.ignore_patterns(dataset_mod.SIDECAR_DIR))
    outputs = []
    for data in (data_dir, copy):
        prefix = tmp_path / data.name
        assert main(["analyze", "--fit", str(fit), "--data", str(data),
                     "--out-prefix", str(prefix)]) == 0
        outputs.append([Path(f"{prefix}_{name}.csv").read_bytes()
                        for name in ("angles", "contributions")])
    # the L=2 fit computed; the L=1 fit and its analysis mapped; the copy computed
    assert count_prepares == [2, 1]
    assert outputs[0] == outputs[1]


def test_an_entry_of_the_previous_layout_is_a_miss_once(data_dir, tmp_path, pristine,
                                                        count_prepares):
    # the code before kept the same arrays as a directory <digest>-<tag>/
    # holding blocks.npy and grams.npy; such an entry costs one parse, and
    # the keep that follows removes it
    reference = pristine()
    _fit_bytes(data_dir, tmp_path / "first.json")
    entry = summaries_entry(data_dir)
    summaries = np.load(entry)
    spoil_entry(entry, "previous_layout")
    assert _kept(data_dir) == [entry.with_suffix("").name]
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "migrated.json") == reference
    assert count_prepares == [2]
    assert _kept(data_dir) == [entry.name]
    assert np.array_equal(np.load(entry), summaries)
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "again.json") == reference
    assert count_prepares == []


def test_an_entry_of_the_old_layout_is_never_read_and_goes_at_the_first_publish(
        data_dir, tmp_path, pristine, count_prepares):
    # the layout that kept the parsed trials and, beside them, the summaries
    # for each lag count: <digest>/ with NNNNN.npy, shapes.npy and
    # summaries-<L>-<tag>/, here holding summaries that are all zeros
    old = data_dir / dataset_mod.SIDECAR_DIR / dataset_digest(data_dir)
    summaries = old / f"summaries-2-{core._summaries_tag()}"
    summaries.mkdir(parents=True)
    series = read_csv_dir(data_dir).series
    for i, x in enumerate(series):
        np.save(old / f"{i:05d}.npy", np.zeros_like(x))
    np.save(old / "shapes.npy", np.array([x.shape for x in series], dtype=np.int64))
    n, d = len(series), 2 * series[0].shape[1]
    np.save(summaries / "blocks.npy", np.zeros((2, n, d, d)))
    np.save(summaries / "grams.npy", np.zeros((2, n, d, d)))
    np.save(summaries / "energies.npy", np.zeros((n, 2)))
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "fit.json") == pristine()
    assert count_prepares == [2]
    assert _kept(data_dir) == [summaries_entry(data_dir).name]


def test_summaries_of_other_code_are_a_miss(data_dir, monkeypatch, count_prepares):
    before = _load(data_dir)
    energies = np.array(before.energies)
    del before
    summarise = core._lag_summaries

    def doubled(x, out):
        # other code: the same block covariances with twice the Grams, so
        # twice the energies
        summarise(x, out)
        out[:, x.shape[1]:] *= 2.0

    monkeypatch.setattr(core, "_lag_summaries", doubled)
    count_prepares.clear()
    for computed in ([2], []):
        prep = _load(data_dir)
        assert count_prepares == computed
        assert np.array_equal(prep.energies, 2.0 * energies)
        count_prepares.clear()
    # only the summaries of the code that runs are kept
    assert _kept(data_dir) == [summaries_entry(data_dir).name]
    monkeypatch.setattr(core, "_lag_summaries", summarise)
    assert np.array_equal(_load(data_dir).energies, energies)
    assert count_prepares == [2]


def test_the_tag_reads_the_code_but_not_its_docstring(monkeypatch):
    # editing the docstring recompiles the function with another first
    # constant and __doc__; the summaries are those of the same code
    summarise = core._lag_summaries
    code, tag = summarise.__code__, core._summaries_tag()
    assert code.co_consts[0] == summarise.__doc__
    monkeypatch.setattr(summarise, "__code__",
                        code.replace(co_consts=("Another docstring.", *code.co_consts[1:])))
    monkeypatch.setattr(summarise, "__doc__", "Another docstring.")
    assert core._summaries_tag() == tag
    # the 2.0 that symmetrises G(0) and the Grams is read
    consts = list(code.co_consts)
    consts[consts.index(2.0)] = 3.0
    monkeypatch.setattr(summarise, "__code__", code.replace(co_consts=tuple(consts)))
    assert core._summaries_tag() != tag
    monkeypatch.undo()
    assert summarise.__code__ is code and core._summaries_tag() == tag


def test_a_read_only_entry_computes_the_summaries_and_writes_nothing(
        data_dir, tmp_path, pristine, read_only, count_prepares):
    reference = pristine()
    # an entry of one lag serves no fit at two
    _load(data_dir, 1)
    root = data_dir / dataset_mod.SIDECAR_DIR
    before = sorted(p.name for p in root.rglob("*"))
    read_only(root)
    read_only(summaries_entry(data_dir))
    count_prepares.clear()
    for k in range(2):
        assert _fit_bytes(data_dir, tmp_path / f"fit{k}.json") == reference
    assert count_prepares == [2, 2]
    assert sorted(p.name for p in root.rglob("*")) == before


def test_a_read_only_directory_runs_every_fit_and_writes_nothing(
        data_dir, tmp_path, pristine, monkeypatch, read_only, count_prepares):
    # the parse needs no temporary directory: any use of one fails here
    (tmp_path / "file").write_text("not a directory")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file" / "tmp"))
    monkeypatch.setattr(cli_mod, "SearchGrid",
                        functools.partial(cli_mod.SearchGrid, m_values=(1.4, 2.0)))
    runs = [("--variant", "fcpca"), ("--variant", "e"),
            ("--variant", "n", "--lambda", "0.05"), ("--variant", "t", "--alpha", "0.2"),
            ("--variant", "n", "--lambda", "auto"), ("--variant", "fcpca", "--auto"),
            ("--max-lag", "1"), ("--max-lag", "3")]
    references = [pristine(*options) for options in runs]
    before = sorted(p.name for p in data_dir.iterdir())
    read_only(data_dir)
    count_prepares.clear()
    for k, (options, reference) in enumerate(zip(runs, references)):
        assert _fit_bytes(data_dir, tmp_path / f"fit{k}.json", *options) == reference
    assert len(count_prepares) == len(runs)
    assert sorted(p.name for p in data_dir.iterdir()) == before


@pytest.mark.parametrize("fault", ["disk_full", "entry_removed"])
def test_summaries_that_cannot_be_written_leave_the_fit_and_no_scratch(
        data_dir, tmp_path, pristine, monkeypatch, count_prepares, fault):
    reference = pristine()
    save = np.save

    def failing(path, array, *args, **kwargs):
        if Path(path).name.startswith(dataset_mod._TMP_PREFIX):
            if fault == "disk_full":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            # another process removes the whole sidecar meanwhile
            shutil.rmtree(Path(path).parent)
        return save(path, array, *args, **kwargs)

    monkeypatch.setattr(np, "save", failing)
    count_prepares.clear()
    assert _fit_bytes(data_dir, tmp_path / "fit.json") == reference
    assert count_prepares == [2]
    root = data_dir / dataset_mod.SIDECAR_DIR
    if fault == "disk_full":
        assert _kept(data_dir) == []
    else:
        assert not root.exists()
    assert not [p for p in root.rglob(f"{dataset_mod._TMP_PREFIX}*")]


def test_an_edited_trial_drops_the_old_summaries(data_dir, tmp_path, count_prepares):
    _fit_bytes(data_dir, tmp_path / "before.json")
    old = summaries_entry(data_dir)
    trial = data_dir / "trial_002.csv"
    trial.write_text("\n".join(trial.read_text().splitlines()[:-1]) + "\n")
    copy = shutil.copytree(data_dir, tmp_path / "edited",
                           ignore=shutil.ignore_patterns(dataset_mod.SIDECAR_DIR))
    count_prepares.clear()
    assert (_fit_bytes(data_dir, tmp_path / "after.json")
            == _fit_bytes(copy, tmp_path / "copy.json"))
    assert count_prepares == [2, 2]
    assert not old.exists()
    assert _kept(data_dir) == [summaries_entry(data_dir).name]


def test_no_summaries_are_kept_for_trials_edited_while_loading(data_dir, monkeypatch,
                                                               count_prepares):
    _load(data_dir, 1)
    digest = dataset_digest(data_dir)
    before = _kept(data_dir)
    load = dataset_mod._load_trial

    def edit_while_parsing(path):
        x = load(path)
        with Path(path).open("a") as fh:
            fh.write("1,2,3\n")
        return x

    monkeypatch.setattr(dataset_mod, "_load_trial", edit_while_parsing)
    count_prepares.clear()
    # more lags than are kept, so the trials are parsed again
    prep, loaded = core._load_prepared(data_dir, digest, 2)
    assert loaded == dataset_digest(data_dir) != digest
    assert count_prepares == [2] and prep.n_series == 6
    assert _kept(data_dir) == before


@pytest.mark.parametrize("options", [
    ("--variant", "t", "--auto"),
    ("--variant", "n", "--lambda", "auto"),
], ids=["auto", "lambda_auto"])
def test_selection_runs_give_the_same_bytes_cold_and_warm(data_dir, tmp_path, monkeypatch,
                                                          count_prepares, options):
    # two-point grids keep the search as quick as a few plain fits
    monkeypatch.setattr(cli_mod, "SearchGrid", functools.partial(
        cli_mod.SearchGrid, m_values=(1.4, 2.0), alpha_values=(0.1, 0.3)))
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
