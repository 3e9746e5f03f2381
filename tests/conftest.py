import os

# One BLAS thread, set before numpy loads: the acceptance benchmarks run
# replications on a process pool, and BLAS threads on top of that pool
# oversubscribe the cores (tier-1 took about four times as long unpinned on
# two cores).  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

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


@pytest.fixture
def small_planted():
    return planted_dataset(7)
