"""Dataset container and the on-disk trial format (one CSV per trial)."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput

TRIAL_PATTERN = "trial_{:03d}.csv"

# trial directories at least this large are parsed on a process pool.
# Below it, starting the pool and sending the arrays back cost about what
# the split saves: on 2 cores, 20 trials of 7.3 MB parsed in 0.14 s serially
# and 0.16 s on the pool, and 14.6 MB in 0.23 s and 0.15 s.
_PARALLEL_MIN_BYTES = 8 << 20

# the BLAS thread counts a process reads once, when it loads numpy
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class MtsDataset:
    """A collection of real-valued series, each T_i x p, with optional truth.

    ``labels`` are ground-truth group labels and ``contaminated`` flags the
    trials altered by an artifact injector; both stay None for real data.
    """

    series: list = field(default_factory=list)
    labels: np.ndarray | None = None
    contaminated: np.ndarray | None = None

    def __post_init__(self):
        self.series = [np.asarray(x, dtype=float) for x in self.series]
        if not self.series:
            raise ValueError("dataset needs at least one series")
        p = self.series[0].shape[1]
        for i, x in enumerate(self.series):
            if x.ndim != 2 or x.shape[1] != p:
                raise DimensionMismatch(f"series {i} has shape {x.shape}, expected (T, {p})")
            if not np.isfinite(x).all():
                raise NonFiniteInput(f"series {i} contains non-finite entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.series):
                raise DimensionMismatch("one label per series required")
        if self.contaminated is not None:
            self.contaminated = np.asarray(self.contaminated, dtype=bool)
            if len(self.contaminated) != len(self.series):
                raise DimensionMismatch("one contamination flag per series required")

    @property
    def n_series(self) -> int:
        return len(self.series)

    @property
    def n_channels(self) -> int:
        return self.series[0].shape[1]

    @property
    def lengths(self) -> list[int]:
        return [x.shape[0] for x in self.series]

    def copy(self) -> "MtsDataset":
        return MtsDataset(
            series=[x.copy() for x in self.series],
            labels=None if self.labels is None else self.labels.copy(),
            contaminated=None if self.contaminated is None else self.contaminated.copy(),
        )

    def contaminated_indices(self) -> np.ndarray:
        if self.contaminated is None:
            return np.array([], dtype=int)
        return np.flatnonzero(self.contaminated)


def channel_names(p: int) -> list[str]:
    return [f"ch{j + 1:02d}" for j in range(p)]


def write_csv_dir(dataset: MtsDataset, out_dir) -> list[Path]:
    """Write one CSV per trial (rows = time, columns = channels, header row)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join(channel_names(dataset.n_channels))
    paths = []
    for i, x in enumerate(dataset.series):
        path = out_dir / TRIAL_PATTERN.format(i)
        np.savetxt(path, x, delimiter=",", header=header, comments="", fmt="%.17g")
        paths.append(path)
    return paths


def _load_trial(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_workers(n_tasks: int) -> int:
    """Processes for a pool over ``n_tasks`` independent tasks; 1 means run
    them in this process.

    The size is capped by the usable CPUs, the ones this process may run on
    (a ``taskset`` or cpuset limit counts).  A pool worker never starts a
    pool of its own.
    """
    import multiprocessing  # on first use, like the pool itself

    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(n_tasks, _usable_cpus()))


def _os_threads() -> int | None:
    """Threads this process runs, as the operating system counts them, or
    None where it does not say."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _fork_pool_workers(n_tasks: int) -> int:
    """Processes for a forked pool over ``n_tasks`` tasks that call BLAS;
    1 means run them in this process.

    Such a pool starts only where the platform forks (a spawned pool imports
    numpy again in every worker and fails in a caller script without a
    ``__main__`` guard), with a BLAS thread variable set to 1, and from a
    process that runs one thread.  A second thread could hold a lock the
    child inherits.  A BLAS that runs threads of its own, as OpenBLAS does
    from the moment numpy loads unless told otherwise, would run them again
    in every worker: one p=32 burst replication took 39.3 s that way on 2
    cores, against 8.7 s serially.  The operating system's count sees those
    threads even where the variable came too late or is one this BLAS does
    not read; the variable covers a BLAS that starts its threads on first use.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if "1" not in (os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS):
        return 1
    if _os_threads() != 1:
        return 1
    return _pool_workers(n_tasks)


def _process_pool(workers: int, method: str = "fork", **kwargs):
    """A ``ProcessPoolExecutor`` of ``workers`` processes started by ``method``.

    ``fork`` falls back to ``spawn`` where the platform has no fork.  A
    forked worker starts from this process's memory: the imported package
    and whatever the caller prepared reach it without pickling, while spawn
    and forkserver import numpy again in every worker of every pool (0.2-0.3 s
    more per pool on 2 cores).  ``kwargs`` go to the executor.
    """
    # imported on first use: `import rfcpca` would otherwise load the
    # process machinery (about 20 ms) for every caller
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if method not in multiprocessing.get_all_start_methods():
        method = "spawn"
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method),
                               **kwargs)


def _parse_workers(paths) -> int:
    """Pool size for parsing ``paths``; 1 means parse in this process.

    Text parsing holds the interpreter lock, so only processes overlap it.
    A small directory, or a call from inside a pool worker, parses serially.
    """
    if sum(path.stat().st_size for path in paths) < _PARALLEL_MIN_BYTES:
        return 1
    return _pool_workers(len(paths))


def read_csv_dir(data_dir) -> MtsDataset:
    """Load every trial_*.csv in a directory, in sorted filename order.

    Large directories are parsed on a process pool, one trial per task; the
    arrays, their order and the error a bad trial raises are the same as
    from a serial parse.
    """
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("trial_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no trial_*.csv files under {data_dir}")
    workers = _parse_workers(paths)
    if workers == 1:
        series = [_load_trial(path) for path in paths]
    else:
        # Python 3.12+ warns when a process with other threads forks; a
        # worker here only parses text and calls no BLAS routine, the
        # library whose threads those usually are
        with _process_pool(workers) as pool:
            series = list(pool.map(_load_trial, paths))
    return MtsDataset(series=series)


def dataset_digest(data_dir) -> str:
    """SHA-256 over the bytes of all trial files in sorted filename order.

    Binds fitted models to the exact data they were computed from.
    """
    data_dir = Path(data_dir)
    digest = hashlib.sha256()
    for path in sorted(data_dir.glob("trial_*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
