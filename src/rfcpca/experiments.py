"""Seeded benchmark experiments over the synthetic contaminated-EEG data.

One replication generates a clean dataset, contaminates it, and runs all
four variants with automatic hyperparameter selection; results are scored
against the generator's ground truth.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

from .dataset import _BLAS_THREAD_VARS, MtsDataset, _pool_workers, _process_pool
from .evaluation import evaluate_fit
from .rng import derive_seed
from .selection import DEFAULT_ALPHA_GRID, DEFAULT_M_GRID, SearchGrid, grid_search
from .simulate import generate_clean_dataset, inject_bursts, inject_eyeblinks

VARIANTS = ("fcpca", "e", "n", "t")

# Variance fraction used by the benchmark fits.  The synthetic trials are
# exact five-factor mixtures, so the cluster subspaces must capture the
# clean structure almost fully for artifact energy to dominate the
# reconstruction errors; at 0.95 the retained axes drop 1-4% of genuine
# oscillator quadrature mass and the contaminated-to-clean error ratio
# collapses to ~3, far below the regime the artifact amplitudes produce
# (tens of times the clean residual).  0.99 restores the high-ratio
# regime, while per-trial artifact directions still carry too little
# weighted-covariance mass to be absorbed into the axes; pushing further
# (0.995+) starts absorbing them and masks the artifacts.
BENCHMARK_V = 0.99

_GEN_STREAM = 0xD5
_ART_STREAM = 0xA7
_FIT_STREAM = 0xF1


def make_benchmark_dataset(kind: str, p: int, t_spec, seed: int,
                           n_per_group: int = 10, rho: float | None = None,
                           eta: float = 5.0, fs: float = 100.0):
    """Clean dataset plus the requested contamination; returns (data, manifest)."""
    clean, manifest = generate_clean_dataset(n_per_group, p, t_spec, fs=fs,
                                             seed=derive_seed(seed, _GEN_STREAM))
    art_seed = derive_seed(seed, _ART_STREAM)
    if kind == "burst":
        return inject_bursts(clean, manifest, rho=0.20 if rho is None else rho,
                             eta=eta, seed=art_seed)
    if kind == "eyeblink":
        return inject_eyeblinks(clean, manifest, rho=0.40 if rho is None else rho,
                                seed=art_seed)
    if kind == "none":
        return clean, manifest
    raise ValueError(f"unknown contamination kind {kind!r}")


def auto_fit(dataset: MtsDataset, variant: str, seed: int, s: int = 2,
             restarts: int = 3, m_values=DEFAULT_M_GRID,
             alpha_values=DEFAULT_ALPHA_GRID, v: float = BENCHMARK_V,
             max_lag: int = 2):
    """Grid-search fit of one variant with the benchmark's default grids."""
    grid = SearchGrid(variant=variant, s_values=(s,), m_values=m_values,
                      alpha_values=alpha_values, lam="elbow")
    return grid_search(dataset, grid, seed=seed, restarts=restarts, v=v, max_lag=max_lag)


def benchmark_replication(kind: str, p: int, t_spec, seed: int,
                          n_per_group: int = 10, rho: float | None = None,
                          variants=VARIANTS, s: int = 2, restarts: int = 3,
                          m_values=DEFAULT_M_GRID, alpha_values=DEFAULT_ALPHA_GRID,
                          v: float = BENCHMARK_V):
    """Score all variants on one seeded contaminated dataset.

    Hyperparameter protocol: the baseline and each robust variant with a
    hyperparameter of its own (the trimmed variant's level, the noise
    variant's multiplier-and-fuzziness pair) select by their own validity
    criterion over the default grids.  The exponential variant has no
    extra hyperparameter and inherits the baseline's fuzziness: its
    bounded loss makes the index's fuzziness comparison degenerate, since
    near-crisp low-fuzziness fits maximise prototype separation exactly by
    assigning saturated outliers confidently.  Returns one row per variant
    with the selected values and the accuracy / outlier-recall metrics.
    """
    dataset, _ = make_benchmark_dataset(kind, p, t_spec, seed,
                                        n_per_group=n_per_group, rho=rho)
    truth = dataset.contaminated_indices()
    base_fit, base_report = auto_fit(dataset, "fcpca",
                                     seed=derive_seed(seed, _FIT_STREAM, 0),
                                     s=s, restarts=restarts, m_values=m_values, v=v)
    m_star = base_report.winner["m"]
    rows = []
    for k, variant in enumerate(variants):
        if variant == "fcpca":
            fit, report = base_fit, base_report
        else:
            variant_m = (m_star,) if variant == "e" else m_values
            fit, report = auto_fit(dataset, variant,
                                   seed=derive_seed(seed, _FIT_STREAM, k),
                                   s=s, restarts=restarts, m_values=variant_m,
                                   alpha_values=alpha_values, v=v)
        ev = evaluate_fit(fit, dataset.labels, truth)
        rows.append({
            "kind": kind,
            "p": p,
            "seed": seed,
            "variant": variant,
            "m": report.winner["m"],
            "alpha": report.winner.get("alpha"),
            "lambda": report.winner.get("lambda"),
            "cvi": report.winner["cvi"],
            "acc": ev.acc_rand,
            "ari": ev.acc_adjusted_rand,
            "out_recall": ev.outlier_recall,
            "false_positives": ev.false_positives,
            "n_flagged": len(ev.flagged),
        })
    return rows


def _mean(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _replication_task(args):
    kind, p, t_spec, rep_seed, n_per_group, rho, variants = args
    return benchmark_replication(kind, p, t_spec, rep_seed,
                                 n_per_group=n_per_group, rho=rho, variants=variants)


def _pool_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` on a pool of ``workers`` processes.

    The pool already puts one replication on each core, so every worker
    loads BLAS with one thread, unless the caller set a thread count in the
    environment.  A forked worker would keep the BLAS of this process,
    already loaded, so workers are spawned: each imports numpy afresh under
    this process's environment, which holds the defaults while the pool runs.
    """
    added = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        with _process_pool(workers, "spawn") as pool:
            return list(pool.map(fn, items))
    finally:
        for var in added:
            os.environ.pop(var, None)


def run_benchmark(kind: str, p_values, t_spec, replications: int, seed: int,
                  n_per_group: int = 10, rho: float | None = None,
                  variants=VARIANTS, progress=None, workers: int | None = None):
    """Replicate the benchmark over seeds and channel counts.

    Replications are independent and run on a process pool, by default one
    worker per usable CPU; results are assembled in grid order, so the
    output does not depend on worker scheduling.  Returns (per-replication
    rows, summary rows averaged per variant and p).
    """
    tasks = [(kind, p, t_spec, derive_seed(seed, p, r), n_per_group, rho, variants)
             for p in p_values for r in range(replications)]
    if workers is None:
        workers = _pool_workers(len(tasks))
    all_rows = []
    if workers > 1:
        results = _pool_map(_replication_task, tasks, workers)
    else:
        results = [_replication_task(t) for t in tasks]
    for task, rows in zip(tasks, results):
        all_rows.extend(rows)
        if progress is not None:
            progress(task[1], task[3], rows)
    summary = []
    for p in p_values:
        for variant in variants:
            sub = [row for row in all_rows if row["p"] == p and row["variant"] == variant]
            summary.append({
                "kind": kind,
                "p": p,
                "variant": variant,
                "replications": len(sub),
                "acc_mean": _mean([row["acc"] for row in sub]),
                "out_recall_mean": _mean([row["out_recall"] for row in sub]),
                "alpha_mean": _mean([row["alpha"] for row in sub]),
                "false_positives_mean": _mean([row["false_positives"] for row in sub]),
            })
    return all_rows, summary


def write_rows_csv(rows, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    fields = list(rows[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path
