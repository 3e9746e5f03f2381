"""Dataset container and the on-disk trial format (one CSV per trial)."""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput, RFCPCAError

TRIAL_PATTERN = "trial_{:03d}.csv"

# parsed trials, and the summaries fits prepare from them, are kept in this
# directory beside the trial files, one entry per dataset digest (see
# load_csv_dir and core._load_prepared)
SIDECAR_DIR = ".rfcpca-parsed"
_SHAPES_FILE = "shapes.npy"
# entries being written, .tmp-<pid>-<hex>; never taken for an entry of another digest
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


def _start_worker(parent: int, initializer, initargs) -> None:
    """Pool worker start: die with the pool's process, then run ``initializer``.

    A worker holds its own task pipe open, so it would outlive a parent
    killed by SIGKILL.  On Linux it asks for SIGKILL when its parent dies,
    and exits if the parent died before it asked.  Elsewhere, macOS among
    them, such workers are left running.
    """
    if sys.platform.startswith("linux"):
        import ctypes  # here, not at `import rfcpca`
        import signal

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)
    if initializer is not None:
        initializer(*initargs)


def _process_pool(workers: int, method: str = "fork", initializer=None, initargs=()):
    """A ``ProcessPoolExecutor`` of ``workers`` processes started by ``method``.

    ``fork`` falls back to ``spawn`` where the platform has no fork.  A
    forked worker starts from this process's memory: the imported package
    and whatever the caller prepared reach it without pickling, while spawn
    and forkserver import numpy again in every worker of every pool (0.2-0.3 s
    more per pool on 2 cores).  Each worker runs ``_start_worker``, then
    ``initializer(*initargs)``; it dies with the caller's thread.
    """
    # imported on first use: `import rfcpca` would otherwise load the
    # process machinery (about 20 ms) for every caller
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if method not in multiprocessing.get_all_start_methods():
        method = "spawn"
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method),
                               initializer=_start_worker,
                               initargs=(os.getpid(), initializer, initargs))


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


def _map_array(path: Path, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The array of the ``.npy`` file at ``path``, memory-mapped read-only.

    Raises OSError, EOFError or ValueError for a file that is missing or
    truncated, holds other than one ``dtype`` array of ``shape``, or holds
    objects (which are never unpickled).
    """
    x = np.load(path, mmap_mode="r", allow_pickle=False)
    if x.dtype != dtype or x.shape != tuple(shape):
        raise ValueError(f"{path} is not a {np.dtype(dtype)} array of shape {tuple(shape)}")
    # a plain array over the mapping, as np.asarray gives for any other input
    return np.asarray(x)


def _map_shapes(entry: Path, n: int) -> list[list[int]]:
    """The (T_i, p) shapes of the ``n`` parsed trials of a sidecar entry."""
    return _map_array(entry / _SHAPES_FILE, (n, 2), np.int64).tolist()


def _map_entry(entry: Path, n: int) -> list[np.ndarray]:
    """The ``n`` parsed trials of a sidecar entry, memory-mapped read-only;
    raises as ``_map_array`` does for a missing or spoiled entry."""
    return [_map_array(_series_file(entry, i), shape)
            for i, shape in enumerate(_map_shapes(entry, n))]


def _remove(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def _orphaned(name: str) -> bool:
    """Whether ``name`` is a ``.tmp-<pid>-<hex>`` entry whose process no
    longer runs on this host, as after a parse killed midway."""
    pid = name[len(_TMP_PREFIX):].split("-", 1)[0]
    # signal 0 only checks for the process, except on Windows, where it kills
    if os.name != "posix" or not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # PermissionError: another user's process
        pass
    return False


def _scratch_dir(parent: Path) -> Path:
    """A new ``.tmp-<pid>-<hex>`` directory in ``parent``, made like any
    other directory there (not by mkdtemp, whose directories only their owner
    may read); raises OSError where none can be made."""
    tmp = parent / f"{_TMP_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
    tmp.mkdir()
    return tmp


def _publish(tmp: Path, target: Path, stale) -> None:
    """Move the scratch directory ``tmp`` into place at ``target``, then
    drop the other entries of its directory whose name ``stale`` accepts and
    the scratch directories of dead processes.  Leaves ``tmp`` where it is
    when it cannot."""
    try:
        if target.exists() or target.is_symlink():
            # a spoiled entry: the caller found it unusable
            _remove(target)
        tmp.rename(target)
    except OSError:
        return
    for other in target.parent.iterdir():
        if other.name == target.name:
            continue
        if (_orphaned(other.name) if other.name.startswith(_TMP_PREFIX)
                else stale(other.name)):
            try:
                _remove(other)
            except OSError:
                pass


def _write_arrays(parent: Path, name: str, arrays: dict, stale) -> None:
    """Keep ``arrays`` as ``<key>.npy`` files in the new directory
    ``parent/name``, written into a scratch directory and renamed into place,
    so a reader sees all of them or none; ``stale`` is as for ``_publish``.

    Writes nothing where it cannot, as in a read-only directory, on a full
    disk or when another process removes ``parent`` meanwhile, and leaves no
    scratch directory behind.
    """
    try:
        tmp = _scratch_dir(parent)
    except OSError:
        return
    try:
        for key, array in arrays.items():
            np.save(tmp / f"{key}.npy", array)
        _publish(tmp, parent / name, stale)
    except OSError:
        pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


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
        tmp, publishable = _scratch_dir(root), True
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
            # entries of other digests hold bytes no longer in the directory
            _publish(tmp, root / digest, lambda name: True)
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
    paths = _listed_trials(data_dir)
    return _load_digested(data_dir, paths, dataset_digest(data_dir))


def _listed_trials(data_dir: Path) -> list[Path]:
    """The trial files of ``data_dir``; raises FileNotFoundError when there are none."""
    paths = _trial_paths(data_dir)
    if not paths:
        raise FileNotFoundError(f"no trial_*.csv files under {data_dir}")
    return paths


def _load_digested(data_dir: Path, paths: list[Path], digest: str) -> tuple[MtsDataset, str]:
    """``load_csv_dir`` of the trials ``paths`` of ``data_dir``, which hashed
    to ``digest``; the digest returned is that of the trials loaded (see
    ``_parse_dir``)."""
    try:
        series = _map_entry(_sidecar_entry(data_dir, digest), len(paths))
        return MtsDataset(series=series), digest
    except (OSError, EOFError, ValueError, RFCPCAError):
        pass  # no usable entry
    return _parse_dir(data_dir, paths, digest)


def _sidecar_entry(data_dir, digest: str) -> Path:
    """The sidecar entry that keeps what was read from the trials of
    ``data_dir`` whose ``dataset_digest`` is ``digest``."""
    return Path(data_dir) / SIDECAR_DIR / digest


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
