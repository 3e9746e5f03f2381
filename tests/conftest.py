import builtins
import os
from pathlib import Path

# One BLAS thread, set before numpy loads: the acceptance benchmarks run
# replications on a process pool, and BLAS threads on top of that pool
# oversubscribe the cores (tier-1 took about four times as long unpinned on
# two cores).  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rfcpca.core as core  # noqa: E402
import rfcpca.dataset as dataset_mod  # noqa: E402
from rfcpca.dataset import MtsDataset  # noqa: E402
from rfcpca.rng import make_rng  # noqa: E402
from scipy import signal  # noqa: E402


def planted_dataset(seed, n_per_group=4, p=4, t=80, noise=0.05, phi=0.9):
    """Two groups living on orthogonal single-channel subspaces.

    The latent is an AR(1) with strong positive lag correlation, so the
    block-covariance spectrum decays and the 95% cut has to pick sides.
    """
    rng = make_rng(seed)
    series = []
    for i in range(2 * n_per_group):
        z = signal.lfilter([1.0], [1.0, -phi], rng.standard_normal(t + 50))[50:]
        e = np.zeros(p)
        e[i // n_per_group] = 1.0
        series.append(np.outer(z, e) + noise * rng.standard_normal((t, p)))
    labels = np.repeat([0, 1], n_per_group)
    return MtsDataset(series=series, labels=labels), labels


def planted_with_outliers(seed, n_clean_per_group=4, p=8, t=80, n_outliers=2,
                          scale=0.8):
    """Planted two-group data plus gross outliers appended at the end.

    Outliers are broadband white-noise series: several times a clean
    trial's energy, spread over every channel-lag direction, so they sit
    far from both cluster subspaces without any single direction carrying
    enough mass to be absorbed into the weighted covariances.
    """
    dataset, labels = planted_dataset(seed, n_clean_per_group, p, t)
    rng = make_rng(seed + 7777)
    series = list(dataset.series)
    for _ in range(n_outliers):
        series.append(scale * rng.standard_normal((t, p)))
    n = len(series)
    outliers = np.arange(n - n_outliers, n)
    labels = np.concatenate([labels, np.full(n_outliers, -1)])
    contaminated = np.zeros(n, dtype=bool)
    contaminated[outliers] = True
    return MtsDataset(series=series, labels=labels, contaminated=contaminated), outliers


def full_blocks(rows):
    """The block covariances [[G(0), G(l)], [G(l)^T, G(0)]] whose upper block
    rows [G(0), G(l)] are ``rows``, stacked as (..., p, 2p)."""
    rows = np.asarray(rows)
    p = rows.shape[-2]
    lower = np.concatenate([np.swapaxes(rows[..., p:], -1, -2), rows[..., :p]], axis=-1)
    return np.concatenate([rows, lower], axis=-2)


@pytest.fixture
def small_planted():
    return planted_dataset(7)


@pytest.fixture
def read_only(monkeypatch):
    """Makes a directory or file read-only, also for a process that may write
    anywhere: no directory is made in it and no file opened there to write."""
    made = []
    mkdir, open_ = os.mkdir, builtins.open

    def refused(target):
        return (isinstance(target, (str, os.PathLike))
                and any(Path(target).is_relative_to(path) for path in made))

    def refuse_mkdir(target, *args, **kwargs):
        if refused(target):
            raise PermissionError(13, "Permission denied", str(target))
        return mkdir(target, *args, **kwargs)

    def refuse_open(file, mode="r", *args, **kwargs):
        if refused(file) and set(mode) & set("wxa+"):
            raise PermissionError(13, "Permission denied", str(file))
        return open_(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", refuse_mkdir)
    monkeypatch.setattr(builtins, "open", refuse_open)

    def make(path):
        path.chmod(0o555)
        made.append(path)

    yield make
    for path in made:
        path.chmod(0o755)


SIDECAR_SPOILS = ("truncated", "empty_file", "wrong_shape", "wrong_dtype",
                  "object_array", "non_finite", "missing_array", "missing_trial",
                  "shapes_as_objects", "square_blocks", "directory_for_entry",
                  "dangling_symlink", "previous_layout", "file_for_sidecar")


class _Unpickled(Exception):
    pass


def _refuse_unpickling():
    raise _Unpickled("a sidecar file was unpickled")


class _Trap:
    """Raises when it is unpickled."""

    def __reduce__(self):
        return _refuse_unpickling, ()


def summaries_entry(data_dir):
    """The sidecar entry, a ``.npy`` file, that keeps the summaries of the
    trials now in ``data_dir``."""
    digest, tag = dataset_mod.dataset_digest(data_dir), core._summaries_tag()
    return Path(data_dir) / dataset_mod.SIDECAR_DIR / f"{digest}-{tag}.npy"


def spoil_entry(entry, how):
    """Spoil a sidecar entry of kept summaries the way ``how``, one of
    ``SIDECAR_SPOILS``, names.  The file is rewritten in place, so no array
    mapped from the entry may be read afterwards.

    ``wrong_shape`` drops the last row of every 3p x 2p matrix,
    ``missing_trial`` leaves a whole array that summarises one trial fewer,
    and ``shapes_as_objects`` puts an object array of the entry's own shape
    in its place.  ``square_blocks`` keeps the full 2p x 2p block
    covariances in place of their upper block rows, a layout of earlier
    code, under the current tag.  ``previous_layout`` replaces the file by
    the directory ``<digest>-<tag>`` of the same arrays split in two,
    ``blocks.npy`` and ``grams.npy``, the layout of the code before this one.
    """
    if how in ("truncated", "empty_file"):
        entry.write_bytes(entry.read_bytes()[:-8] if how == "truncated" else b"")
        return
    if how == "missing_array":
        entry.unlink()
        return
    if how == "file_for_sidecar":
        dataset_mod._remove(entry.parent)
        entry.parent.write_text("not a directory")
        return
    x = np.load(entry)
    p = x.shape[3] // 2
    if how == "wrong_shape":
        np.save(entry, x[:, :, :-1])
    elif how == "wrong_dtype":
        np.save(entry, x.astype(np.float32))
    elif how == "object_array":
        np.save(entry, np.array([_Trap(), None], dtype=object), allow_pickle=True)
    elif how == "non_finite":
        x[0, 0] = np.nan
        np.save(entry, x)
    elif how == "missing_trial":
        np.save(entry, x[:, :-1])
    elif how == "shapes_as_objects":
        np.save(entry, np.full(x.shape, _Trap(), dtype=object), allow_pickle=True)
    elif how == "square_blocks":
        np.save(entry, np.concatenate([full_blocks(x[:, :, :p]), x[:, :, p:]], axis=2))
    elif how == "directory_for_entry":
        entry.unlink()
        entry.mkdir()
        (entry / "notes.txt").write_text("not an entry")
    elif how == "dangling_symlink":
        entry.unlink()
        entry.symlink_to(entry.with_name("missing.npy"))
    elif how == "previous_layout":
        entry.unlink()
        old = entry.with_suffix("")
        old.mkdir()
        np.save(old / "blocks.npy", x[:, :, :p])
        np.save(old / "grams.npy", x[:, :, p:])
    else:
        raise AssertionError(how)
