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
    """Makes a directory read-only, also for a process that may write anywhere."""
    made = []
    mkdir = os.mkdir

    def refuse(target, *args, **kwargs):
        if any(Path(target).is_relative_to(path) for path in made):
            raise PermissionError(13, "Permission denied", str(target))
        return mkdir(target, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", refuse)

    def make(path):
        path.chmod(0o555)
        made.append(path)

    yield make
    for path in made:
        path.chmod(0o755)


SIDECAR_SPOILS = ("truncated", "empty_file", "wrong_shape", "wrong_dtype",
                  "object_array", "non_finite", "missing_array", "missing_trial",
                  "shapes_as_objects", "square_blocks", "file_for_entry",
                  "file_for_sidecar")


class _Unpickled(Exception):
    pass


def _refuse_unpickling():
    raise _Unpickled("a sidecar file was unpickled")


class _Trap:
    """Raises when it is unpickled."""

    def __reduce__(self):
        return _refuse_unpickling, ()


def summaries_entry(data_dir):
    """The sidecar entry that keeps the summaries of the trials now in ``data_dir``."""
    return dataset_mod._summaries_entry(data_dir, dataset_mod.dataset_digest(data_dir),
                                        core._summaries_tag())


def spoil_entry(entry, how):
    """Spoil a sidecar entry of kept summaries the way ``how``, one of
    ``SIDECAR_SPOILS``, names.  Files are rewritten in place, so no array
    mapped from the entry may be read afterwards.

    ``missing_trial`` leaves whole arrays that summarise one trial fewer, and
    ``shapes_as_objects`` puts an object array in place of the Grams, whose
    shape must match that of the block covariances.  ``square_blocks`` keeps
    the full (L, N, 2p, 2p) block covariances in place of their upper block
    rows, the layout of earlier code, under the current tag.
    """
    first = entry / "blocks.npy"
    if how == "truncated":
        first.write_bytes(first.read_bytes()[:-8])
    elif how == "empty_file":
        first.write_bytes(b"")
    elif how == "wrong_shape":
        np.save(first, np.load(first)[:-1])
    elif how == "wrong_dtype":
        np.save(first, np.load(first).astype(np.float32))
    elif how == "object_array":
        np.save(first, np.array([_Trap(), None], dtype=object), allow_pickle=True)
    elif how == "non_finite":
        x = np.load(first)
        x[0, 0] = np.nan
        np.save(first, x)
    elif how == "missing_array":
        first.unlink()
    elif how == "missing_trial":
        for key in ("blocks", "grams"):
            np.save(entry / f"{key}.npy", np.load(entry / f"{key}.npy")[:, :-1])
    elif how == "shapes_as_objects":
        np.save(entry / "grams.npy", np.array([_Trap()], dtype=object),
                allow_pickle=True)
    elif how == "square_blocks":
        np.save(first, full_blocks(np.load(first)))
    elif how == "file_for_entry":
        dataset_mod._remove(entry)
        entry.write_text("not a directory")
    elif how == "file_for_sidecar":
        dataset_mod._remove(entry.parent)
        entry.parent.write_text("not a directory")
    else:
        raise AssertionError(how)
