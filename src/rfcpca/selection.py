"""Cluster validity index and exhaustive hyperparameter search.

The validity index divides the fitted objective by N times the minimal
pairwise distance between subspace prototypes; lower is better.  The grid
search evaluates every candidate tuple with a fixed number of restarts and
returns the converged candidate with the smallest index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import FitResult, _Prepared, fit_fcpca
from .covariance import DEFAULT_MAX_LAG, DEFAULT_VARIANCE_FRACTION, ClusterSubspaces
from .dataset import MtsDataset, _fork_pool_workers, _process_pool
from .exceptions import (
    AllCandidatesFailed,
    DegenerateScale,
    DegenerateSeparation,
    EmptyClusterError,
    SingleCluster,
    TooFewRetained,
)
from .rng import derive_seed
from .robust import fit_rfcpca_e, fit_rfcpca_n, fit_rfcpca_t, select_lambda_elbow

DEFAULT_M_GRID = (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5)
DEFAULT_S_GRID = (2, 3, 4, 5, 6)
DEFAULT_ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)

_GRID_STREAM = 0x62D5


@dataclass(frozen=True)
class SearchGrid:
    """Candidate hyperparameters for one variant.

    ``s_values`` counts substantive clusters (the noise variant adds its
    noise cluster on top).  ``alpha_values`` only applies to the trimmed
    variant; ``lam`` is either a fixed noise multiplier or "elbow".
    """

    variant: str = "fcpca"
    s_values: tuple = DEFAULT_S_GRID
    m_values: tuple = DEFAULT_M_GRID
    alpha_values: tuple = DEFAULT_ALPHA_GRID
    lam: float | str = "elbow"

    def __post_init__(self):
        if self.variant not in ("fcpca", "e", "n", "t"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.s_values or not self.m_values:
            raise ValueError("grid lists must be nonempty")
        if self.variant == "t" and not self.alpha_values:
            raise ValueError("the trimmed variant needs alpha candidates")

    def candidates(self):
        for s in self.s_values:
            for m in self.m_values:
                if self.variant == "t":
                    for alpha in self.alpha_values:
                        yield {"s": s, "m": m, "alpha": alpha}
                else:
                    yield {"s": s, "m": m}


@dataclass
class SelectionReport:
    """Per-candidate records and the winning tuple from a grid search."""

    records: list = field(default_factory=list)
    winner: dict | None = None

    def to_json(self, **kwargs) -> str:
        return json.dumps({"records": self.records, "winner": self.winner}, **kwargs)


def prototype_separation(subspaces: ClusterSubspaces) -> float:
    """Minimum over cluster pairs of sum_l |P_s(l) - P_s'(l)|_F^2."""
    s_count = subspaces.n_clusters
    if s_count < 2:
        raise SingleCluster("need at least two substantive clusters")
    projectors = [subspaces.projectors(s) for s in range(s_count)]
    best = np.inf
    for a in range(s_count):
        for b in range(a + 1, s_count):
            d = sum(
                float(((pa - pb) ** 2).sum())
                for pa, pb in zip(projectors[a], projectors[b])
            )
            best = min(best, d)
    return best


def cvi(fit: FitResult) -> float:
    """Validity index: final objective over N times the prototype separation.

    The numerator is the variant's own converged objective (trimmed sum for
    the trimmed variant, noise-penalised sum for the noise variant); the
    denominator always uses the full object count so values stay comparable
    across trimming levels.
    """
    d_min = prototype_separation(fit.subspaces)
    if d_min < 1e-12:
        raise DegenerateSeparation("cluster prototypes coincide")
    return fit.objective_trace[-1] / (fit.n_series * d_min)


def _fit_candidate(prep, grid, cand, seed, lam, **fit_kwargs):
    s, m = cand["s"], cand["m"]
    if grid.variant == "fcpca":
        return fit_fcpca(prep, s, m=m, seed=seed, **fit_kwargs)
    if grid.variant == "e":
        return fit_rfcpca_e(prep, s, m=m, seed=seed, **fit_kwargs)
    if grid.variant == "t":
        return fit_rfcpca_t(prep, s, m=m, alpha=cand["alpha"], seed=seed, **fit_kwargs)
    return fit_rfcpca_n(prep, s, m=m, lam=lam, seed=seed, **fit_kwargs)


def _evaluate_candidate(prep, grid, seed, restarts, fit_kwargs, idx, cand):
    """Record of the ``idx``-th grid candidate and its fit, or None when it cannot win.

    The restart with the best (converged, lowest objective) fit represents
    the candidate; a candidate whose elbow sweep or restarts all failed,
    that did not converge, or whose validity index is undefined cannot win.
    """
    record = dict(cand)
    record["variant"] = grid.variant
    lam = None
    if grid.variant == "n":
        if grid.lam == "elbow":
            try:
                elbow = select_lambda_elbow(prep, cand["s"], m=cand["m"],
                                            seed=derive_seed(seed, _GRID_STREAM, idx),
                                            **fit_kwargs)
            except (EmptyClusterError, DegenerateScale) as exc:
                record.update({"converged": False, "cvi": None,
                               "error": type(exc).__name__})
                return record, None
            lam = elbow.lambda_star
            record["elbow_curve"] = elbow.curve
        else:
            lam = float(grid.lam)
        record["lambda"] = lam
    tuple_best = None
    error_name = None
    for r in range(restarts):
        child = derive_seed(seed, idx, r)
        try:
            fit = _fit_candidate(prep, grid, cand, child, lam, **fit_kwargs)
        except (EmptyClusterError, DegenerateScale, TooFewRetained) as exc:
            error_name = type(exc).__name__
            continue
        if tuple_best is None:
            tuple_best = fit
            continue
        # a converged restart always beats a non-converged one; among
        # equals the lower final objective wins
        better = (fit.converged, -fit.objective_trace[-1]) > (
            tuple_best.converged, -tuple_best.objective_trace[-1])
        if better:
            tuple_best = fit
    if tuple_best is None:
        record.update({"converged": False, "cvi": None, "error": error_name})
        return record, None
    record["converged"] = bool(tuple_best.converged)
    record["objective"] = tuple_best.objective_trace[-1]
    record["error"] = error_name
    try:
        record["cvi"] = cvi(tuple_best)
    except (SingleCluster, DegenerateSeparation) as exc:
        record["cvi"] = None
        record["error"] = type(exc).__name__
    if record["cvi"] is None or not record["converged"]:
        return record, None
    return record, tuple_best


# (prep, grid, seed, restarts, fit_kwargs) of the search a pool worker serves
_worker_search = None


def _init_worker(*search):
    global _worker_search
    _worker_search = search


def _evaluate_in_worker(indexed_cand):
    return _evaluate_candidate(*_worker_search, *indexed_cand)


def _candidate_results(search, candidates):
    """``(record, fit or None)`` of each ``(idx, cand)``, in grid order.

    The candidates run on a forked process pool when ``_fork_pool_workers``
    allows more than one worker: with BLAS set to one thread and this
    process running no other, one worker per usable CPU.  Otherwise they run
    in this process.  Each candidate's work is seeded by its grid index
    alone, so both ways give the same bytes.
    """
    workers = _fork_pool_workers(len(candidates))
    if workers == 1:
        for indexed_cand in candidates:
            yield _evaluate_candidate(*search, *indexed_cand)
        return
    # forked workers inherit the prepared summaries with the initializer's
    # arguments instead of receiving a pickled copy with every task
    with _process_pool(workers, initializer=_init_worker, initargs=search) as pool:
        yield from pool.map(_evaluate_in_worker, candidates)


def grid_search(dataset: MtsDataset, grid: SearchGrid, seed: int = 0,
                restarts: int = 3, v: float = DEFAULT_VARIANCE_FRACTION,
                max_lag: int = DEFAULT_MAX_LAG, max_iter: int = 1000,
                tol: float = 1e-3):
    """Evaluate every grid candidate and return (best fit, report).

    Each candidate is fitted ``restarts`` times with deterministically
    derived seeds; the restart with the lowest final objective represents
    the candidate, and candidates are ranked by the validity index, ties
    going to the earlier candidate in grid order.  Candidates that error,
    never converge, or have coincident prototypes are recorded but cannot
    win.  For the noise variant, each candidate's noise multiplier comes
    from its own elbow sweep unless a fixed value was supplied.  Candidates
    may run on a process pool (see ``_candidate_results``); the results do
    not depend on it.
    """
    fit_kwargs = {"v": v, "max_lag": max_lag, "max_iter": max_iter, "tol": tol}
    search = (_Prepared(dataset, max_lag), grid, seed, restarts, fit_kwargs)
    records = []
    best_fit = None
    best_record = None
    for record, fit in _candidate_results(search, list(enumerate(grid.candidates()))):
        records.append(record)
        if fit is not None and (best_record is None or record["cvi"] < best_record["cvi"]):
            best_record = record
            best_fit = fit
    if best_fit is None:
        raise AllCandidatesFailed("no grid candidate converged with a valid index")
    return best_fit, SelectionReport(records=records, winner=best_record)
