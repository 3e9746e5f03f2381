"""Robust variants: exponential loss, noise cluster, and trimming.

Each variant is a policy for the one alternation loop of :mod:`core`:

- exponential (``e``): the loss is 1 - exp(-beta r2), with beta fixed from
  the first iteration's errors.  From the second iteration on, the subspace
  step weighs object i in cluster s by u_is^m exp(-beta r2_is) at the
  previous iteration's errors, so a poorly reconstructed object loses its
  pull on the axes.  A run that stops improving for five iterations counts
  as converged.
- noise cluster (``n``): the loss is the errors plus a column at the noise
  distance delta^2, recomputed every iteration; that column has no
  subspace.  A burn-in, the same loop on the regular clusters alone, runs
  before the noise cluster is switched on.
- trimming (``t``): only the floor(N(1 - alpha)) objects with the smallest
  losses drive the subspaces and the objective.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    MAX_ITER,
    FitResult,
    _alternate,
    _fit_result,
    _prepare,
    _Prepared,
    _start,
    _subspaces_from_weights,
    fit_fcpca,
)
from .covariance import DEFAULT_MAX_LAG, DEFAULT_VARIANCE_FRACTION
from .dataset import MtsDataset
from .exceptions import DegenerateScale, EmptyClusterError, InvalidShape, TooFewRetained
from .rng import derive_seed

# multiplier grid of the noise-distance selection: 20 halvings of 1
DEFAULT_LAMBDA_GRID = tuple(0.5**i for i in range(20))

# cap on the plain iterations run before the noise cluster is switched on
DEFAULT_BURN_IN = 100

# patience for the exponential variant: its reweighted subspace step
# minimises the tangent majoriser of the bounded loss only at a fixed rank,
# and the variance-fraction rank may move, so a run may stall instead of
# converging
_STALL_PATIENCE = 5


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


def _exponential_weights(u: np.ndarray, errors: np.ndarray, beta: float,
                         m: float) -> np.ndarray:
    """Subspace-step weights w, with w^m proportional to u^m exp(-beta r2) per column.

    u^m exp(-beta r2) is, up to the factor beta, the slope in r2 of the
    objective term u^m (1 - exp(-beta r2)) at the given errors, so the
    weighted covariances minimise that term's tangent majoriser.  Each
    column is scaled by exp(beta min_i r2_is), which leaves its weighted
    average unchanged and keeps the factor of its best-fitting object at 1,
    so the weights cannot all underflow to zero.
    """
    shifted = errors - errors.min(axis=0)
    return u * np.exp(-beta * shifted / m)


def fit_rfcpca_e(dataset: MtsDataset, n_clusters: int, m: float = 2.0,
                 v: float = DEFAULT_VARIANCE_FRACTION, seed: int = 0,
                 max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit with the exponential (bounded) reconstruction loss.

    The scale beta is estimated once, from the errors of the first
    iteration's subspaces, and held constant so the objective trace stays
    comparable across iterations.  The first subspace step uses the plain
    memberships; every later one weighs each object by u^m exp(-beta r2) at
    the previous iteration's errors (:func:`_exponential_weights`), the
    majorise-minimise step of the bounded loss, so a contaminated object's
    errors do not steer the axes.
    """
    prep, u = _start(dataset, n_clusters, m, seed, max_lag)
    params = {"beta": None}

    def loss(errors):
        if params["beta"] is None:
            params["beta"] = estimate_beta(errors)
        return exponential_loss(errors, params["beta"])

    def reweight(u_sub, errors):
        return _exponential_weights(u_sub, errors, params["beta"], m)

    run = _alternate(prep, u, m, v, MAX_ITER, loss=loss,
                     patience=_STALL_PATIENCE, stall_converges=True,
                     reweight=reweight)
    return _fit_result(run, m, "e", params, seed)


def _noise_augment(errors: np.ndarray, delta_sq: float) -> np.ndarray:
    """The error matrix with a constant delta^2 column for the noise cluster."""
    return np.hstack([errors, np.full((errors.shape[0], 1), delta_sq)])


def update_noise_distance(errors: np.ndarray, lam: float) -> float:
    """delta^2 = lam / (N * S_regular) * sum of all regular-cluster errors;
    DegenerateScale where the errors vanish or delta^2 overflows."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    errors = np.asarray(errors, dtype=float)
    total = float(errors.sum())
    if total <= 0.0:
        raise DegenerateScale("all reconstruction errors vanish; noise distance undefined")
    n, s_regular = errors.shape
    with np.errstate(over="ignore"):
        delta_sq = lam * total / (n * s_regular)
    if not np.isfinite(delta_sq):
        raise DegenerateScale(f"noise distance overflows at lambda {lam}")
    return delta_sq


def _burn_in(prep: _Prepared, u: np.ndarray, n_regular: int, m: float, v: float,
             max_steps: int) -> np.ndarray:
    """Noise-variant start state: burned-in regular memberships, empty noise column.

    The regular columns of ``u`` are renormalised to sum to one per row, then
    plain alternating iterations run on them until their objective settles
    (at most ``max_steps``).  Nothing here depends on the noise multiplier.
    """
    u_reg = u[:, :n_regular]
    row_sums = u_reg.sum(axis=1, keepdims=True)
    u_reg = np.where(row_sums > 0, u_reg / np.where(row_sums > 0, row_sums, 1.0),
                     1.0 / n_regular)
    run = _alternate(prep, u_reg, m, v, max_steps, patience=None)
    return np.hstack([run.u, np.zeros((prep.n_series, 1))])


def fit_rfcpca_n(dataset: MtsDataset, n_regular: int, m: float = 2.0,
                 v: float = DEFAULT_VARIANCE_FRACTION, lam: float = 1.0,
                 seed: int = 0, max_lag: int = DEFAULT_MAX_LAG,
                 _start_state: tuple | None = None) -> FitResult:
    """Fit with a dedicated noise cluster (total clusters = n_regular + 1).

    Objects whose best regular-cluster error exceeds the noise distance
    drift into the noise column; those with noise membership >= 0.5 are
    flagged as outliers.

    Before the noise cluster is switched on, plain alternating iterations
    run on the regular clusters until their objective settles (at most
    ``DEFAULT_BURN_IN``).  Without this, the very first noise distance is
    computed from the blended random-init subspaces, whose error scale is
    far below that of formed clusters, and the noise cluster can
    permanently swallow a whole genuine cluster.  ``_start_state`` replaces
    the random start and the burn-in with the elbow sweep's shared start:
    burned-in memberships and the subspaces of their regular columns, or None.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if n_regular < 1:
        raise InvalidShape(f"need at least one regular cluster, got {n_regular}")
    if _start_state is None:
        prep, u = _start(dataset, n_regular + 1, m, seed, max_lag)
        u, first = _burn_in(prep, u, n_regular, m, v, DEFAULT_BURN_IN), None
    else:
        prep, (u, first) = _prepare(dataset, max_lag), _start_state
    params = {"lambda": lam, "delta_sq": None}

    def loss(errors):
        params["delta_sq"] = update_noise_distance(errors, lam)
        return _noise_augment(errors, params["delta_sq"])

    run = _alternate(prep, u, m, v, MAX_ITER, loss=loss, n_subspaces=n_regular,
                     first_subspaces=first)
    return _fit_result(run, m, "n", params, seed)


# stream tag separating elbow fits from other derived seeds
_ELBOW_STREAM = 0x3E1B


def select_lambda_elbow(dataset: MtsDataset, n_regular: int, m: float = 2.0,
                        v: float = DEFAULT_VARIANCE_FRACTION, seed: int = 0,
                        max_lag: int = DEFAULT_MAX_LAG) -> LambdaElbow:
    """Pick the noise multiplier at the elbow of the outlier-fraction curve.

    Fits the noise variant at every value of ``DEFAULT_LAMBDA_GRID``
    (descending) and records the fraction of objects flagged as noise.  The
    curve is flat while genuine members stay put, then jumps as the noise
    cluster starts absorbing them; the selected lambda is the grid value
    immediately before the largest single-step jump.  A fit that collapses
    (regular clusters emptied out by a tiny lambda) counts as fraction 1.0.

    All grid fits start from one shared baseline state: the regular
    clusters fitted without a noise cluster, best of three seeded restarts;
    a restart that empties a cluster is skipped, and the sweep raises its
    ``EmptyClusterError`` only when all three do.
    Independent random inits per lambda would let isolated fits land in
    poor local optima and put spurious spikes on the curve.  The noise
    variant's burn-in does not depend on lambda, so it runs once on that
    baseline and every grid fit starts from the one burned-in state, whose
    subspaces are computed once as well; a burn-in that empties a cluster
    counts as a collapse of every grid fit.
    """
    prep = _prepare(dataset, max_lag)
    n = prep.n_series
    base = None
    for r in range(3):
        try:
            cand = fit_fcpca(prep, n_regular, m=m, v=v,
                             seed=derive_seed(seed, _ELBOW_STREAM, 999, r))
        except EmptyClusterError as exc:
            # skipped as the grid skips a failed restart
            failure = exc
            continue
        if base is None or cand.objective_trace[-1] < base.objective_trace[-1]:
            base = cand
    if base is None:
        raise failure
    try:
        burned = _burn_in(prep, base.memberships.u, n_regular, m, v, DEFAULT_BURN_IN)
        # the weights every grid fit starts from: the burned-in regular
        # columns renormalised to sum to one per row
        start = _burn_in(prep, burned, n_regular, m, v, 0)
        first = _subspaces_from_weights(prep.blocks, start[:, :n_regular], m, v)
    except EmptyClusterError:
        # every grid fit would have collapsed in this same burn-in
        curve = [(lam, 1.0) for lam in DEFAULT_LAMBDA_GRID]
        return LambdaElbow(lambda_star=DEFAULT_LAMBDA_GRID[0], curve=curve, no_elbow=True)
    fractions = []
    for lam in DEFAULT_LAMBDA_GRID:
        try:
            fit = fit_rfcpca_n(prep, n_regular, m=m, v=v, lam=lam,
                               seed=seed, _start_state=(start, first))
            fractions.append(len(fit.flagged) / n)
        except (EmptyClusterError, DegenerateScale):
            fractions.append(1.0)
    curve = list(zip(DEFAULT_LAMBDA_GRID, fractions))
    jumps = np.diff(fractions)
    if np.all(jumps == 0.0):
        return LambdaElbow(lambda_star=DEFAULT_LAMBDA_GRID[0], curve=curve, no_elbow=True)
    pre_jump = int(np.argmax(jumps))
    return LambdaElbow(lambda_star=DEFAULT_LAMBDA_GRID[pre_jump], curve=curve, no_elbow=False)


def fit_rfcpca_t(dataset: MtsDataset, n_clusters: int, m: float = 2.0,
                 alpha: float = 0.2, v: float = DEFAULT_VARIANCE_FRACTION,
                 seed: int = 0, max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit with trimming: the worst-fitting objects are excluded each iteration.

    Memberships are still updated for every object (for reporting), but only
    the retained set drives the subspaces and the objective.  With alpha = 0
    the result is bit-identical to the baseline fit.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    prep, u = _start(dataset, n_clusters, m, seed, max_lag)
    n = prep.n_series
    n_keep = int(np.floor(n * (1.0 - alpha)))
    if n_keep < n_clusters:
        raise TooFewRetained(f"retaining {n_keep} of {n} objects cannot fill {n_clusters} clusters")
    run = _alternate(prep, u, m, v, MAX_ITER, n_keep=n_keep)
    params = {"alpha": alpha, "retained": np.flatnonzero(run.mask)}
    return _fit_result(run, m, "t", params, seed)
