"""Cluster validity index and exhaustive hyperparameter search.

The validity index divides the fitted objective by N times the minimal
pairwise distance between subspace prototypes; lower is better.  The grid
search evaluates every candidate tuple with ``RESTARTS`` seeded restarts and
returns the converged candidate with the smallest index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import FitResult, _prepare, fit_fcpca
from .covariance import DEFAULT_VARIANCE_FRACTION, ClusterSubspaces
from .dataset import MtsDataset, _fork_pool_workers, _process_pool
from .exceptions import (
    AllCandidatesFailed,
    DegenerateScale,
    DegenerateSeparation,
    EmptyClusterError,
    SingleCluster,
)
from .rng import derive_seed
from .robust import (RESTARTS, _best_restart, fit_rfcpca_e, fit_rfcpca_n, fit_rfcpca_t,
                     select_lambda_elbow)

# the baseline and the exponential, noise-cluster and trimmed variants
VARIANTS = ("fcpca", "e", "n", "t")

DEFAULT_M_GRID = (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5)
DEFAULT_ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)

_GRID_STREAM = 0x62D5


@dataclass(frozen=True)
class SearchGrid:
    """Candidate hyperparameters for one variant.

    ``s_values`` counts substantive clusters (the noise variant adds its
    noise cluster on top).  ``alpha_values`` only applies to the trimmed
    variant; ``lam`` is either a fixed noise multiplier or "elbow".
    """

    variant: str
    s_values: tuple
    m_values: tuple = DEFAULT_M_GRID
    alpha_values: tuple = DEFAULT_ALPHA_GRID
    lam: float | str = "elbow"

    def __post_init__(self):
        if self.variant not in VARIANTS:
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


def _fit_candidate(prep, variant, cand, seed, lam, v):
    """One fit of ``variant`` at the candidate's s and m (and alpha, if trimmed)."""
    s, m = cand["s"], cand["m"]
    if variant == "fcpca":
        return fit_fcpca(prep, s, m=m, v=v, seed=seed)
    if variant == "e":
        return fit_rfcpca_e(prep, s, m=m, v=v, seed=seed)
    if variant == "t":
        return fit_rfcpca_t(prep, s, m=m, alpha=cand["alpha"], v=v, seed=seed)
    return fit_rfcpca_n(prep, s, m=m, v=v, lam=lam, seed=seed)


def _evaluate_candidate(prep, grid, seed, v, idx, cand):
    """Record of the ``idx``-th grid candidate and its fit, or None when it cannot win.

    The best restart (:func:`robust._best_restart`) represents the
    candidate; a candidate whose elbow sweep or restarts all failed,
    that did not converge, or whose validity index is undefined cannot win.
    """
    record = dict(cand)
    record["variant"] = grid.variant
    lam = None
    if grid.variant == "n":
        if grid.lam == "elbow":
            try:
                elbow = select_lambda_elbow(prep, cand["s"], m=cand["m"], v=v,
                                            seed=derive_seed(seed, _GRID_STREAM, idx))
            except (EmptyClusterError, DegenerateScale) as exc:
                record.update({"converged": False, "cvi": None,
                               "error": type(exc).__name__})
                return record, None
            lam = elbow.lambda_star
            record["elbow_curve"] = elbow.curve
        else:
            lam = float(grid.lam)
        record["lambda"] = lam
    tuple_best, failure = _best_restart(
        lambda child: _fit_candidate(prep, grid.variant, cand, child, lam, v),
        (derive_seed(seed, idx, r) for r in range(RESTARTS)))
    error_name = None if failure is None else type(failure).__name__
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


# (prep, grid, seed, v) of the search a pool worker serves
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
                v: float = DEFAULT_VARIANCE_FRACTION):
    """Evaluate every grid candidate and return (best fit, report).

    Each candidate is fitted ``RESTARTS`` times with deterministically
    derived seeds; the best restart (converged first, then the lowest final
    objective) represents the candidate, and candidates are ranked by the
    validity index, ties going to the earlier candidate in grid order.
    Candidates that error, never converge, or have coincident prototypes are
    recorded but cannot win.  For the noise variant, each candidate's noise
    multiplier comes from its own elbow sweep unless a fixed value was
    supplied.  Candidates may run on a process pool (see
    ``_candidate_results``); the results do not depend on it.  Lags as for
    ``core.fit_fcpca``.
    """
    search = (_prepare(dataset), grid, seed, v)
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
