"""Dataset container, the on-disk trial format (one CSV per trial), the
sidecar that keeps each trial set's lag summaries beside its trials, and the
process-pool rules."""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput

TRIAL_PATTERN = "trial_{:03d}.csv"

# the lag summaries fits prepare from a trial set (see core._load_prepared)
# are kept in this directory beside the trial files, as one entry, the .npy
# file "<digest>-<tag>.npy" of the (L, N, 3p, 2p) array _lag_summaries fills
SIDECAR_DIR = ".rfcpca-parsed"
# scratch names, .tmp-<pid>-<hex>[.npy]; never taken for a kept entry
_TMP_PREFIX = ".tmp-"

# trial directories at least this large are parsed on a process pool.
# Below it, starting the pool costs about what the split saves: on 2 cores,
# read_csv_dir of 20 trials of 7.4 MiB took 0.21 s serially and 0.20 s on
# the pool, and of 14.8 MiB 0.29 s and 0.24 s (medians of 11).
_PARALLEL_MIN_BYTES = 8 << 20

# each thread of dataset_digest reads its trial files through one buffer of
# this size.  Hashing 98 MB on 2 cores took 0.052 s through 1 MiB buffers and
# 0.051 s through these, but four CLI fits peaked 1.1 MB above a one-thread
# digest with 1 MiB, and 0.3 MB with these
_DIGEST_BUFFER_BYTES = 1 << 18

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
        for i, x in enumerate(self.series):
            error = _series_error(i, x, self.series[0].shape)
            if error is not None:
                raise error
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

    def contaminated_indices(self) -> np.ndarray:
        if self.contaminated is None:
            return np.array([], dtype=int)
        return np.flatnonzero(self.contaminated)


def _series_error(i: int, x: np.ndarray, first: tuple) -> Exception | None:
    """The error series ``i`` of a dataset whose first series has the shape
    ``first`` raises, or None: it must be T x p, with the p of the first
    series, and finite."""
    p = first[1] if len(first) == 2 else "p"
    if x.ndim != 2 or x.shape[1] != p:
        return DimensionMismatch(f"series {i} has shape {x.shape}, expected (T, {p})")
    if not np.isfinite(x).all():
        return NonFiniteInput(f"series {i} contains non-finite entries")
    return None


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
    """Processes, or threads, for a pool over ``n_tasks`` independent tasks;
    1 means run them in this thread.

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

    A spawned worker still importing a main script without a ``__main__``
    guard (``_inheriting``, as spawn's start check reads it) is refused: its
    parent, killing it as the parent's pool breaks, could leak its semaphores.
    """
    # imported on first use: `import rfcpca` would otherwise load the
    # process machinery (about 20 ms) for every caller
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if getattr(multiprocessing.current_process(), "_inheriting", False):
        raise RuntimeError("no process pool starts while a spawned worker imports its main module")
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
    """The T x p array of the trial file at ``path``; a file without data
    rows raises ValueError naming it."""
    import warnings

    with warnings.catch_warnings():
        # the error below says it, once, and names the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if x.size == 0:
        raise ValueError(f"{path} holds no data rows")
    return x


def _save_trial(path, out) -> None:
    """Parse the trial at ``path`` into the ``.npy`` file ``out``."""
    np.save(out, _load_trial(path))


def _parse_dir(data_dir: Path, paths: list[Path]):
    """The arrays ``_load_trial`` parses from ``paths``, yielded one at a time
    in their order; the error of a trial that does not parse is raised where
    its array would come.

    Large directories are parsed on a process pool, one trial per task; the
    arrays, their order and the errors are the same as from a serial parse.
    The workers write their arrays into a scratch directory of the sidecar,
    which this process maps one file at a time, as its worker finishes, and
    removes once the stream ends, however it ends.  Arrays sent back through
    the pool's pipe would instead queue up in this process as the workers
    finish (when every parsed trial was held, that raised the peak memory of
    a first fit of 20 trials of 4000 x 64 on 2 cores from 88 MB to 93-98 MB).
    Where no scratch directory can be made, as in a read-only directory, the
    trials are parsed in this process.  This generator holds no array once
    the next is asked for.
    """
    workers = _parse_workers(paths)
    tmp = None
    if workers > 1:
        try:
            tmp = _scratch_dir(data_dir)
        except OSError:
            pass
    if tmp is None:
        for path in paths:
            yield _load_trial(path)
        return
    try:
        files = [tmp / f"{i:05d}.npy" for i in range(len(paths))]
        # Python 3.12+ warns when a process with other threads forks; a
        # worker here only parses text and calls no BLAS routine, the
        # library whose threads those usually are
        pool = _process_pool(workers)
        try:
            # at most workers + 1 trials are handed out ahead of the stream:
            # the pool queues whatever it is given to its workers, and a task
            # a worker has taken cannot be cancelled
            ahead = workers + 1
            tasks = [pool.submit(_save_trial, path, file)
                     for path, file in zip(paths[:ahead], files)]
            for i, file in enumerate(files):
                tasks[i].result()  # waits for this trial's worker; raises its error
                if i + ahead < len(files):
                    tasks.append(pool.submit(_save_trial, paths[i + ahead], files[i + ahead]))
                # a mapping stays valid once its file is removed
                yield _map_array(file)
        finally:
            # once a trial fails, or the stream is dropped midway, the trials
            # no worker has started are not parsed; the started ones finish
            pool.shutdown(cancel_futures=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class _TrialStream:
    """The trials of a directory as ``core._Prepared`` reads a dataset:
    ``n_series``, and ``series``, one pass over the arrays ``_parse_dir``
    parses.  ``_Prepared`` checks each array as ``MtsDataset`` checks its
    series.  Nothing is parsed before ``series`` is iterated.  Raises
    FileNotFoundError where there are no trials.
    """

    def __init__(self, data_dir):
        data_dir = Path(data_dir)
        paths = _listed_trials(data_dir)
        self.n_series = len(paths)
        self.series = _parse_dir(data_dir, paths)


def _listed_trials(data_dir: Path) -> list[Path]:
    """The trial files of ``data_dir``; raises FileNotFoundError when there are none."""
    paths = _trial_paths(data_dir)
    if not paths:
        raise FileNotFoundError(f"no trial_*.csv files under {data_dir}")
    return paths


def read_csv_dir(data_dir) -> MtsDataset:
    """The dataset of every trial_*.csv in a directory, in sorted filename
    order: the arrays ``_parse_dir`` yields, which ``MtsDataset`` validates.
    Raises FileNotFoundError where there are no trials."""
    data_dir = Path(data_dir)
    return MtsDataset(series=list(_parse_dir(data_dir, _listed_trials(data_dir))))


def _map_array(path: Path) -> np.ndarray:
    """The float64 array of the ``.npy`` file at ``path``, memory-mapped read-only.

    Raises OSError, EOFError or ValueError for a file that is missing or
    truncated, holds another dtype, or holds objects (which are never
    unpickled).
    """
    x = np.load(path, mmap_mode="r", allow_pickle=False)
    if x.dtype != np.float64:
        raise ValueError(f"{path} is not a float64 array")
    # a plain array over the mapping, as np.asarray gives for any other input
    return np.asarray(x)


def _kept_summaries(data_dir, tag: str, max_lag: int) -> tuple | None:
    """The digest that names the one entry of the sidecar of ``data_dir``,
    made by the code ``tag`` names, and the first ``max_lag`` lags of its
    summaries, as ``(digest, summaries)``: the (L, N, 3p, 2p) array
    ``_keep_summaries`` takes, mapped read-only and not copied.  None when
    the sidecar holds other names too (scratch names aside), or no whole,
    finite ``<digest>-<tag>.npy`` file keeps that many lags for as many
    series as there are trials.  Nothing is hashed: whether the trials hash
    to the digest is for the caller to check.
    """
    root = Path(data_dir) / SIDECAR_DIR
    suffix = f"-{tag}.npy"
    try:
        names = [name for name in os.listdir(root) if not name.startswith(_TMP_PREFIX)]
    except OSError:
        return None
    if len(names) != 1 or not names[0].endswith(suffix):
        return None
    try:
        summaries = _map_array(root / names[0])
    except (OSError, EOFError, ValueError):
        return None
    shape = summaries.shape
    if not (summaries.ndim == 4 and shape[1] == len(_trial_paths(Path(data_dir)))
            and 2 * shape[2] == 3 * shape[3] and 0 < max_lag <= shape[0]):
        return None
    summaries = summaries[:max_lag]
    # lag by lag: one mask of the whole array raised repeat fits' peak by 0.2-0.4 MB
    if not all(np.isfinite(lag).all() for lag in summaries):
        return None
    return names[0][:-len(suffix)], summaries


def _keep_summaries(data_dir, digest: str, tag: str, summaries) -> None:
    """Keep the lag summaries of the trials of ``data_dir`` that hash to
    ``digest``, made by the code ``tag`` names, as the one entry of its
    sidecar: ``summaries``, the (L, N, 3p, 2p) array ``_lag_summaries``
    fills, in the file ``<digest>-<tag>.npy``.

    The array is saved to a scratch file that ``os.replace`` moves onto the
    entry (a directory on its name is removed first), so a reader sees the
    old entry or the new one.  Every other name of the sidecar then goes
    except the scratch names of running processes.  Writes nothing where it
    cannot, as in a read-only directory, on a full disk or when another
    process removes the sidecar meanwhile, and leaves no scratch file behind.
    """
    root = Path(data_dir) / SIDECAR_DIR
    entry = root / f"{digest}-{tag}.npy"
    tmp = root / f"{_TMP_PREFIX}{os.getpid()}-{os.urandom(4).hex()}.npy"
    try:
        root.mkdir(exist_ok=True)
        try:
            np.save(tmp, summaries)
            if entry.is_dir():  # a spoiled entry, which no file can replace
                _remove(entry)
            os.replace(tmp, entry)
        finally:
            tmp.unlink(missing_ok=True)
        for other in root.iterdir():
            if other == entry or (other.name.startswith(_TMP_PREFIX)
                                  and not _orphaned(other.name)):
                continue
            try:
                _remove(other)
            except OSError:
                pass
    except OSError:
        pass


def _remove(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def _orphaned(name: str) -> bool:
    """Whether ``name`` is a ``.tmp-<pid>-<hex>`` scratch name whose process
    no longer runs on this host, as after a write killed midway."""
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


def _scratch_dir(data_dir: Path) -> Path:
    """A new ``.tmp-<pid>-<hex>`` directory for the files of a pooled parse in
    the sidecar of ``data_dir``, which is made if need be, like any other
    directory there (not by mkdtemp, whose directories only their owner may
    read); raises OSError where none can be made."""
    root = data_dir / SIDECAR_DIR
    root.mkdir(exist_ok=True)
    tmp = root / f"{_TMP_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
    tmp.mkdir()
    return tmp


def dataset_digest(data_dir) -> str:
    """SHA-256 over, for each trial file in sorted filename order, its name
    followed by the 32-byte SHA-256 of its bytes.

    Binds fitted models to the exact data they were computed from, and keys
    the sidecar of kept summaries.  A one-level hash tree binds the same
    bytes, names and order as one pass over them all, and its files can be
    hashed at once: the files are shared out among ``_pool_workers`` threads,
    this one included, which overlap because reading a file and hashing
    bytes release the interpreter lock.  Every thread has ended when this
    returns, so a forked pool may start next (see ``_fork_pool_workers``).
    Raises FileNotFoundError where there are no trials, as ``read_csv_dir``
    does, and the error of the first file in that order that cannot be read.
    """
    import threading  # loaded by `import rfcpca.cli` already

    paths = _listed_trials(Path(data_dir))
    file_digests = [None] * len(paths)
    errors = {}
    tasks = iter(range(len(paths)))
    lock = threading.Lock()

    def hash_files():
        # each file is read through one buffer, not whole, and not mapped: a
        # mapped file that shrinks while it is read ends the process with SIGBUS
        buffer = bytearray(_DIGEST_BUFFER_BYTES)
        view = memoryview(buffer)
        while True:
            with lock:
                # files are taken in order and none after a failure, so every
                # file before a failed one has been hashed or has failed too
                i = None if errors else next(tasks, None)
            if i is None:
                return
            try:
                digest = hashlib.sha256()
                with paths[i].open("rb", buffering=0) as fh:
                    while n := fh.readinto(buffer):
                        digest.update(view[:n])
                file_digests[i] = digest.digest()
            except BaseException as exc:  # raised again in the calling thread
                with lock:
                    errors[i] = exc

    threads = [threading.Thread(target=hash_files)
               for _ in range(_pool_workers(len(paths)) - 1)]
    try:
        for thread in threads:
            thread.start()
        hash_files()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[min(errors)]
    digest = hashlib.sha256()
    for path, file_digest in zip(paths, file_digests):
        digest.update(path.name.encode() + file_digest)
    return digest.hexdigest()
