"""Robust variants: exponential loss, noise cluster, and trimming.

All three reuse the subspace machinery of the baseline; they differ in how
reconstruction errors enter the objective and the membership update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    HARDEN_THRESHOLD,
    NOISE_FLAG_THRESHOLD,
    _STALL_LIMIT,
    FitResult,
    MembershipMatrix,
    _errors_from_grams,
    _fit_squared_loss,
    _per_object_loss,
    _Prepared,
    _subspaces_from_weights,
    _trim_mask,
    fit_fcpca,
    init_memberships,
    ratio_memberships,
)
from .covariance import DEFAULT_MAX_LAG, DEFAULT_VARIANCE_FRACTION
from .dataset import MtsDataset
from .exceptions import DegenerateScale, EmptyClusterError, TooFewRetained
from .rng import derive_seed

# default multiplier grid for the noise-distance selection: 20 halvings of 1
DEFAULT_LAMBDA_GRID = tuple(0.5**i for i in range(20))

# cap on the plain iterations run before the noise cluster is switched on
DEFAULT_BURN_IN = 100

# patience for the exponential variant, whose subspace half-step is not an
# exact minimiser of the bounded loss and may stall instead of converging
_STALL_PATIENCE = 5


@dataclass(frozen=True)
class NoiseConfig:
    """Noise-cluster settings: multiplier and distance-update schedule."""

    lam: float
    update_schedule: str = "every_iteration"  # or "once"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.update_schedule not in ("every_iteration", "once"):
            raise ValueError("schedule must be 'every_iteration' or 'once'")


@dataclass(frozen=True)
class TrimConfig:
    """A trimming decision: proportion, retained count, and retained indices."""

    alpha: float
    n_retained: int
    retained: np.ndarray


class LambdaElbow(NamedTuple):
    lambda_star: float
    curve: list  # (lambda, outlier fraction) pairs, lambda descending
    no_elbow: bool


def estimate_beta(errors: np.ndarray) -> float:
    """Scale for the exponential loss: inverse mean of per-object best errors."""
    errors = np.asarray(errors, dtype=float)
    mean_min = float(errors.min(axis=1).mean())
    if mean_min < 1e-300:
        raise DegenerateScale("all series are perfectly reconstructed; beta is undefined")
    return 1.0 / mean_min


def exponential_loss(errors: np.ndarray, beta: float) -> np.ndarray:
    """Bounded loss 1 - exp(-beta * r2), elementwise in [0, 1)."""
    return -np.expm1(-beta * np.asarray(errors, dtype=float))


def update_memberships_exponential(errors: np.ndarray, m: float, beta: float) -> MembershipMatrix:
    """Membership update under the bounded exponential loss."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return MembershipMatrix(ratio_memberships(exponential_loss(errors, beta), m), m)


def fit_rfcpca_e(dataset: MtsDataset, n_clusters: int, m: float = 2.0,
                 v: float = DEFAULT_VARIANCE_FRACTION, seed: int = 0,
                 max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                 init_u: np.ndarray | None = None,
                 max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit with the exponential (bounded) reconstruction loss.

    The scale beta is estimated once, from the errors of the first
    iteration's subspaces, and held constant so the objective trace stays
    comparable across iterations.
    """
    prep = dataset if isinstance(dataset, _Prepared) else _Prepared(dataset, max_lag)
    n = prep.n_series
    if init_u is not None:
        u = MembershipMatrix(init_u, m).u.copy()
    else:
        u = init_memberships(n, n_clusters, seed, m).u
    beta = None
    trace: list[float] = []
    converged = False
    best = np.inf
    stall = 0
    errors = None
    subspaces = None
    for _ in range(max_iter):
        subspaces = _subspaces_from_weights(prep.blocks, u, m, v)
        errors = _errors_from_grams(prep, subspaces)
        if beta is None:
            beta = estimate_beta(errors)
        loss = exponential_loss(errors, beta)
        u_prev = u
        u = ratio_memberships(loss, m)
        trace.append(float(_per_object_loss(loss, u, m).sum()))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        if np.abs(u - u_prev).max() < 1e-9:
            converged = True
            break
        if trace[-1] < best:
            best = trace[-1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_PATIENCE:
                converged = True
                break
    memberships = MembershipMatrix(u, m)
    flagged = np.flatnonzero(u.max(axis=1) < HARDEN_THRESHOLD)
    return FitResult(
        memberships=memberships,
        subspaces=subspaces,
        errors=errors,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
        variant="e",
        variant_params={"beta": beta},
        flagged=flagged,
        seed=seed,
    )


def update_memberships_noise(errors: np.ndarray, m: float, delta_sq: float) -> MembershipMatrix:
    """Membership update with an extra noise cluster at fixed distance.

    Equivalent to the plain ratio update on the error matrix augmented with
    a constant delta^2 column; the noise column comes out as the remainder
    1 - sum of regular memberships.
    """
    if delta_sq <= 0:
        raise ValueError("delta^2 must be positive")
    errors = np.asarray(errors, dtype=float)
    augmented = np.hstack([errors, np.full((errors.shape[0], 1), delta_sq)])
    return MembershipMatrix(ratio_memberships(augmented, m), m)


def update_noise_distance(errors: np.ndarray, lam: float) -> float:
    """delta^2 = lam / (N * S_regular) * sum of all regular-cluster errors."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    errors = np.asarray(errors, dtype=float)
    total = float(errors.sum())
    if total <= 0.0:
        raise DegenerateScale("all reconstruction errors vanish; noise distance undefined")
    n, s_regular = errors.shape
    return lam * total / (n * s_regular)


def _burn_in(prep: _Prepared, u: np.ndarray, n_regular: int, m: float, v: float,
             tol: float, max_steps: int) -> np.ndarray:
    """Noise-variant start state: burned-in regular memberships, empty noise column.

    The regular columns of ``u`` are renormalised to sum to one per row, then
    plain alternating iterations run on them until their objective settles
    (at most ``max_steps``).  Nothing here depends on the noise multiplier.
    """
    n = prep.n_series
    u_reg = u[:, :n_regular]
    row_sums = u_reg.sum(axis=1, keepdims=True)
    u_reg = np.where(row_sums > 0, u_reg / np.where(row_sums > 0, row_sums, 1.0),
                     1.0 / n_regular)
    prev_j = np.inf
    for _ in range(max_steps):
        subspaces = _subspaces_from_weights(prep.blocks, u_reg, m, v)
        reg_errors = _errors_from_grams(prep, subspaces)
        u_prev = u_reg
        u_reg = ratio_memberships(reg_errors, m)
        j = float(_per_object_loss(reg_errors, u_reg, m).sum())
        if abs(j - prev_j) < tol or np.abs(u_reg - u_prev).max() < 1e-9:
            break
        prev_j = j
    return np.hstack([u_reg, np.zeros((n, 1))])


def fit_rfcpca_n(dataset: MtsDataset, n_regular: int, m: float = 2.0,
                 v: float = DEFAULT_VARIANCE_FRACTION, lam: float = 1.0,
                 seed: int = 0, max_iter: int = DEFAULT_MAX_ITER,
                 tol: float = DEFAULT_TOL, schedule: str = "every_iteration",
                 init_u: np.ndarray | None = None, burn_in: int = DEFAULT_BURN_IN,
                 max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit with a dedicated noise cluster (total clusters = n_regular + 1).

    Objects whose best regular-cluster error exceeds the noise distance
    drift into the noise column; those with noise membership >= 0.5 are
    flagged as outliers.

    Before the noise cluster is switched on, plain alternating iterations
    run on the regular clusters until their objective settles (``burn_in``
    caps the count).  Without this, the very first noise distance is
    computed from the blended random-init subspaces, whose error scale is
    far below that of formed clusters, and the noise cluster can
    permanently swallow a whole genuine cluster.  ``burn_in=0`` skips the
    burn-in: the caller then supplies already burned-in memberships as
    ``init_u`` (their regular columns are only renormalised).
    """
    config = NoiseConfig(lam=lam, update_schedule=schedule)
    prep = dataset if isinstance(dataset, _Prepared) else _Prepared(dataset, max_lag)
    n = prep.n_series
    s_total = n_regular + 1
    if init_u is not None:
        u = MembershipMatrix(init_u, m).u.copy()
    else:
        u = init_memberships(n, s_total, seed, m).u
    u = _burn_in(prep, u, n_regular, m, v, tol, burn_in)
    delta_sq = None
    trace: list[float] = []
    converged = False
    errors = None
    subspaces = None
    best = np.inf
    stall = 0
    for _ in range(max_iter):
        subspaces = _subspaces_from_weights(prep.blocks, u[:, :n_regular], m, v)
        errors = _errors_from_grams(prep, subspaces)
        if delta_sq is None or config.update_schedule == "every_iteration":
            delta_sq = update_noise_distance(errors, lam)
        u_prev = u
        u = update_memberships_noise(errors, m, delta_sq).u
        regular_term = float(_per_object_loss(errors, u[:, :n_regular], m).sum())
        noise_term = float(delta_sq * (u[:, -1] ** m).sum())
        trace.append(regular_term + noise_term)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        # memberships at a fixed point: the objective cannot move any more
        if np.abs(u - u_prev).max() < 1e-9:
            converged = True
            break
        if trace[-1] < best:
            best = trace[-1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                break
    memberships = MembershipMatrix(u, m)
    flagged = np.flatnonzero(u[:, -1] >= NOISE_FLAG_THRESHOLD)
    return FitResult(
        memberships=memberships,
        subspaces=subspaces,
        errors=errors,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
        variant="n",
        variant_params={"lambda": lam, "delta_sq": delta_sq, "schedule": config.update_schedule},
        flagged=flagged,
        seed=seed,
    )


# stream tag separating elbow fits from other derived seeds
_ELBOW_STREAM = 0x3E1B


def select_lambda_elbow(dataset: MtsDataset, n_regular: int, m: float = 2.0,
                        v: float = DEFAULT_VARIANCE_FRACTION,
                        lam_grid=DEFAULT_LAMBDA_GRID, seed: int = 0,
                        max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                        max_lag: int = DEFAULT_MAX_LAG) -> LambdaElbow:
    """Pick the noise multiplier at the elbow of the outlier-fraction curve.

    Fits the noise variant at every grid value (descending) and records the
    fraction of objects flagged as noise.  The curve is flat while genuine
    members stay put, then jumps as the noise cluster starts absorbing them;
    the selected lambda is the grid value immediately before the largest
    single-step jump.  A fit that collapses (regular clusters emptied out by
    a tiny lambda) counts as fraction 1.0.

    All grid fits start from one shared baseline state: the regular
    clusters fitted without a noise cluster, best of three seeded restarts.
    Independent random inits per lambda would let isolated fits land in
    poor local optima and put spurious spikes on the curve.  The noise
    variant's burn-in does not depend on lambda, so it runs once on that
    baseline and every grid fit starts from the one burned-in state
    (``burn_in=0``); a burn-in that empties a cluster counts as a collapse
    of every grid fit.
    """
    lam_grid = list(lam_grid)
    if len(lam_grid) < 3:
        raise ValueError("lambda grid needs at least 3 values")
    if any(b >= a for a, b in zip(lam_grid, lam_grid[1:])):
        raise ValueError("lambda grid must be strictly decreasing")
    prep = dataset if isinstance(dataset, _Prepared) else _Prepared(dataset, max_lag)
    n = prep.n_series
    base = None
    for r in range(3):
        cand = fit_fcpca(prep, n_regular, m=m, v=v,
                         seed=derive_seed(seed, _ELBOW_STREAM, 999, r),
                         max_iter=max_iter, tol=tol, max_lag=max_lag)
        if base is None or cand.objective_trace[-1] < base.objective_trace[-1]:
            base = cand
    try:
        shared_init = _burn_in(prep, base.memberships.u, n_regular, m, v, tol,
                               DEFAULT_BURN_IN)
    except EmptyClusterError:
        # every grid fit would have collapsed in this same burn-in
        curve = [(lam, 1.0) for lam in lam_grid]
        return LambdaElbow(lambda_star=lam_grid[0], curve=curve, no_elbow=True)
    fractions = []
    for k, lam in enumerate(lam_grid):
        try:
            fit = fit_rfcpca_n(prep, n_regular, m=m, v=v, lam=lam,
                               seed=derive_seed(seed, _ELBOW_STREAM, k),
                               init_u=shared_init, max_iter=max_iter, tol=tol,
                               burn_in=0, max_lag=max_lag)
            fractions.append(len(fit.flagged) / n)
        except (EmptyClusterError, DegenerateScale):
            fractions.append(1.0)
    curve = list(zip(lam_grid, fractions))
    jumps = np.diff(fractions)
    if np.all(jumps == 0.0):
        return LambdaElbow(lambda_star=lam_grid[0], curve=curve, no_elbow=True)
    pre_jump = int(np.argmax(jumps))
    return LambdaElbow(lambda_star=lam_grid[pre_jump], curve=curve, no_elbow=False)


def select_trim_set(per_object_loss: np.ndarray, alpha: float,
                    min_retained: int = 1) -> TrimConfig:
    """Retain the floor(N * (1 - alpha)) objects with the smallest losses.

    Ties are broken toward lower indices.
    """
    loss = np.asarray(per_object_loss, dtype=float)
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    n = loss.shape[0]
    n_keep = int(np.floor(n * (1.0 - alpha)))
    if n_keep < min_retained:
        raise TooFewRetained(f"retaining {n_keep} of {n} objects is below the minimum {min_retained}")
    mask = _trim_mask(loss, n_keep)
    return TrimConfig(alpha=alpha, n_retained=n_keep, retained=np.flatnonzero(mask))


def fit_rfcpca_t(dataset: MtsDataset, n_clusters: int, m: float = 2.0,
                 alpha: float = 0.2, v: float = DEFAULT_VARIANCE_FRACTION,
                 seed: int = 0, max_iter: int = DEFAULT_MAX_ITER,
                 tol: float = DEFAULT_TOL, init_u: np.ndarray | None = None,
                 max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit with trimming: the worst-fitting objects are excluded each iteration.

    Memberships are still updated for every object (for reporting), but only
    the retained set drives the subspaces and the objective.  With alpha = 0
    the result is bit-identical to the baseline fit.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    return _fit_squared_loss(dataset, n_clusters, m, v, seed, max_iter, tol,
                             alpha=alpha, variant="t", init_u=init_u, max_lag=max_lag)
