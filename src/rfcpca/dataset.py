"""Dataset container and the on-disk trial format (one CSV per trial)."""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput, RFCPCAError

TRIAL_PATTERN = "trial_{:03d}.csv"

# parsed trials are kept in this directory beside the trial files, one
# entry per dataset digest (see load_csv_dir)
SIDECAR_DIR = ".rfcpca-parsed"
_SHAPES_FILE = "shapes.npy"
# entries being written; never taken for an entry of another digest
_TMP_PREFIX = ".tmp-"

# trial directories at least this large are parsed on a process pool.
# Below it, starting the pool costs about what the split saves: on 2 cores,
# a first load of 20 trials of 7.4 MB took 0.23 s serially and 0.27 s on the
# pool, and of 14.8 MB 0.33 s and 0.19 s.
_PARALLEL_MIN_BYTES = 8 << 20

# how long a forked pool's start waits for threads Python has joined to
# leave the operating system's thread count (see _runs_one_thread)
_JOINED_THREADS_WAIT_S = 0.1

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
        first = self.series[0].shape
        p = first[1] if len(first) == 2 else "p"
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


def _runs_one_thread() -> bool:
    """Whether this process runs one thread, as the operating system counts.

    A thread that Python has joined stays in that count for a few ms more
    (3-5 ms for the threads of a pool just shut down), so while Python runs
    no other thread the count is read again for up to
    ``_JOINED_THREADS_WAIT_S``.  A live Python thread ends the wait at once;
    a thread Python does not know of, such as a BLAS thread, stays counted
    until the wait runs out.
    """
    import threading
    import time

    deadline = time.monotonic() + _JOINED_THREADS_WAIT_S
    while True:
        threads = _os_threads()
        if threads == 1:
            return True
        if threads is None or threading.active_count() > 1 or time.monotonic() > deadline:
            return False
        time.sleep(0.001)


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
    workers = _pool_workers(n_tasks)
    if workers == 1 or not _runs_one_thread():
        return 1
    return workers


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


def _trial_paths(data_dir: Path) -> list[Path]:
    return sorted(data_dir.glob("trial_*.csv"))


def _load_trial(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _parse_trial(task) -> tuple[int, int]:
    """Parse the trial at ``path`` into the ``.npy`` file ``out``; returns its shape.

    Pool workers run it, so a parsed trial reaches the caller as a file to
    map, never through the pool's pipe.
    """
    path, out = task
    x = _load_trial(path)
    np.save(out, x)
    return x.shape


def _series_file(entry: Path, i: int) -> Path:
    return entry / f"{i:05d}.npy"


def _map_entry(entry: Path, n: int) -> list[np.ndarray]:
    """The ``n`` parsed trials of a sidecar entry, memory-mapped read-only.

    Raises OSError, EOFError or ValueError for an entry that is missing,
    truncated, holds other than one float64 array of the recorded shape per
    trial, or holds objects (which are never unpickled).
    """
    shapes = np.load(entry / _SHAPES_FILE, allow_pickle=False)
    if shapes.dtype != np.int64 or shapes.shape != (n, 2):
        raise ValueError(f"{entry} does not record {n} trial shapes")
    series = []
    for i, shape in enumerate(shapes.tolist()):
        path = _series_file(entry, i)
        x = np.load(path, mmap_mode="r", allow_pickle=False)
        if x.dtype != np.float64 or list(x.shape) != shape:
            raise ValueError(f"{path} is not a float64 array of shape {shape}")
        series.append(x)
    return series


def _remove(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def _publish(tmp: Path, entry: Path) -> None:
    """Move the parsed entry ``tmp`` into place at ``entry`` and drop the
    entries of other digests.  Leaves ``tmp`` where it is when it cannot."""
    try:
        if entry.exists() or entry.is_symlink():
            # a spoiled entry: the caller found it unusable
            _remove(entry)
        tmp.rename(entry)
    except OSError:
        return
    for other in entry.parent.iterdir():
        if other.name != entry.name and not other.name.startswith(_TMP_PREFIX):
            try:
                _remove(other)
            except OSError:
                pass


def _parse_dir(data_dir: Path, paths: list[Path], digest: str) -> tuple[MtsDataset, str]:
    """Parse every trial into a new sidecar entry and load the dataset from it.

    Large directories are parsed on a process pool, one trial per task; the
    arrays, their order and the error a bad trial raises are the same as from
    a serial parse.  The entry is published under ``digest`` only when the
    files still hash to it after the parse; the digest returned is the one
    taken after the parse.
    """
    root = data_dir / SIDECAR_DIR
    try:
        root.mkdir(exist_ok=True)
        # not mkdtemp, whose directories only their owner may read: an entry
        # is made like any other directory, for everyone who reads the trials
        tmp = root / f"{_TMP_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
        tmp.mkdir()
        publishable = True
    except OSError:
        # a trial directory that cannot be written, or a file in the way
        tmp, publishable = Path(tempfile.mkdtemp(prefix="rfcpca-parsed-")), False
    try:
        tasks = [(path, _series_file(tmp, i)) for i, path in enumerate(paths)]
        workers = _parse_workers(paths)
        if workers == 1:
            shapes = [_parse_trial(task) for task in tasks]
        else:
            # Python 3.12+ warns when a process with other threads forks; a
            # worker here only parses text and calls no BLAS routine, the
            # library whose threads those usually are
            with _process_pool(workers) as pool:
                shapes = list(pool.map(_parse_trial, tasks))
        np.save(tmp / _SHAPES_FILE, np.array(shapes, dtype=np.int64).reshape(len(paths), 2))
        # mapped before the entry moves: a mapping stays valid across the
        # rename, and across the removal of an entry never published
        dataset = MtsDataset(series=_map_entry(tmp, len(paths)))
        after = dataset_digest(data_dir)
        if publishable and after == digest:
            _publish(tmp, root / digest)
        return dataset, after
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_csv_dir(data_dir) -> tuple[MtsDataset, str]:
    """Load every trial_*.csv in a directory, in sorted filename order, and
    return the dataset with its ``dataset_digest``.

    Each trial file is read once to hash it.  The parsed trials are kept
    beside them, in ``<data_dir>/.rfcpca-parsed/<digest>/``, one ``.npy``
    file per trial, and a later load of the same bytes memory-maps those
    files instead of parsing the text again.  An entry that is missing,
    partial or spoiled, or a directory that cannot be written, means the
    trials are parsed again; either way the arrays are those ``_load_trial``
    parses, and ``MtsDataset`` validates them.
    """
    data_dir = Path(data_dir)
    paths = _trial_paths(data_dir)
    if not paths:
        raise FileNotFoundError(f"no trial_*.csv files under {data_dir}")
    digest = dataset_digest(data_dir)
    try:
        series = _map_entry(data_dir / SIDECAR_DIR / digest, len(paths))
        return MtsDataset(series=series), digest
    except (OSError, EOFError, ValueError, RFCPCAError):
        pass  # no usable entry
    return _parse_dir(data_dir, paths, digest)


def read_csv_dir(data_dir) -> MtsDataset:
    """The dataset of ``load_csv_dir``, without its digest."""
    return load_csv_dir(data_dir)[0]


def dataset_digest(data_dir) -> str:
    """SHA-256 over the bytes of all trial files in sorted filename order.

    Binds fitted models to the exact data they were computed from, and keys
    the sidecar of parsed trials.
    """
    digest = hashlib.sha256()
    for path in _trial_paths(Path(data_dir)):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
