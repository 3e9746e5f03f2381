"""The alternating optimiser shared by every variant.

One loop, :func:`_alternate`, alternates two coordinate updates until the
objective stabilises: cluster axes are the top eigenvectors of the
membership-weighted block covariances, and memberships follow the
closed-form ratio update from a loss of the reconstruction errors.  The
baseline fit, the three robust variants and the noise variant's burn-in
differ only in the policy they pass: a loss transform (identity, bounded
exponential, or errors plus a noise-cluster column), a retained set
(everything, or the objects with the smallest losses) and a stall rule.
:func:`flag_outliers` is the one per-variant outlier rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covariance import (
    DEFAULT_MAX_LAG,
    DEFAULT_VARIANCE_FRACTION,
    ClusterSubspaces,
    _lag_summaries,
    common_axes,
    weighted_common_covariance,
)
from .dataset import MtsDataset
from .exceptions import (
    DegenerateWeights,
    EmptyClusterError,
    InvalidShape,
    LagTooLarge,
    LagTooSmall,
)
from .rng import make_rng

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1000
HARDEN_THRESHOLD = 0.70
NOISE_FLAG_THRESHOLD = 0.50

# iterations without any objective improvement before a non-converging run
# (a cycling trim set) is abandoned; monotone runs never trigger this
_STALL_LIMIT = 25


@dataclass
class MembershipMatrix:
    """N x S row-stochastic fuzzy memberships with their fuzziness exponent."""

    u: np.ndarray
    m: float = 2.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 2:
            raise InvalidShape("memberships must be an N x S matrix")
        if self.m <= 1.0:
            raise ValueError("fuzziness m must exceed 1")
        if self.u.min() < -1e-12 or self.u.max() > 1.0 + 1e-12:
            raise InvalidShape("membership entries must lie in [0, 1]")
        if np.abs(self.u.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidShape("membership rows must sum to 1")

    @property
    def n_series(self) -> int:
        return self.u.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.u.shape[1]


@dataclass
class FitResult:
    """A converged clustering model.

    ``errors`` holds the reconstruction errors against the final subspaces
    for the substantive clusters (the noise cluster of the noise-augmented
    variant has no subspace and hence no error column).
    """

    memberships: MembershipMatrix
    subspaces: ClusterSubspaces
    errors: np.ndarray
    objective_trace: list
    iterations: int
    converged: bool
    variant: str
    variant_params: dict = field(default_factory=dict)
    flagged: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    seed: int | None = None

    @property
    def n_series(self) -> int:
        return self.memberships.n_series

    def hard_labels(self) -> np.ndarray:
        return np.argmax(self.memberships.u, axis=1)


def init_memberships(n_series: int, n_clusters: int, seed: int, m: float = 2.0) -> MembershipMatrix:
    """Random row-stochastic init: S i.i.d. uniforms per row, divided by their sum."""
    if n_clusters < 1 or n_clusters > n_series:
        raise InvalidShape(f"need 1 <= S <= N, got S={n_clusters}, N={n_series}")
    raw = make_rng(seed).random((n_series, n_clusters))
    return MembershipMatrix(raw / raw.sum(axis=1, keepdims=True), m)


def ratio_memberships(loss: np.ndarray, m: float) -> np.ndarray:
    """Closed-form fuzzy update u_is proportional to loss_is^(-1/(m-1)).

    Rows are computed in log space for stability under small m.  A row with
    exact-zero losses follows the limit convention: all membership goes to
    the zero entries, split equally if there are several.
    """
    loss = np.asarray(loss, dtype=float)
    n, s = loss.shape
    if m <= 1.0:
        raise ValueError("fuzziness m must exceed 1")
    u = np.empty_like(loss)
    zero = loss == 0.0
    has_zero = zero.any(axis=1)
    regular = ~has_zero
    if regular.any():
        with np.errstate(divide="ignore"):
            t = -np.log(loss[regular]) / (m - 1.0)
        t -= t.max(axis=1, keepdims=True)
        e = np.exp(t)
        u[regular] = e / e.sum(axis=1, keepdims=True)
    for i in np.flatnonzero(has_zero):
        u[i] = 0.0
        u[i, zero[i]] = 1.0 / zero[i].sum()
    return u


def _subspaces_from_weights(blocks, u, m, v) -> ClusterSubspaces:
    """Axes for every cluster and lag from weighted common covariances.

    ``blocks`` is the (N, L, 2p, 2p) stack of per-series block matrices and
    ``u`` the (N, S) weights whose columns are raised to ``m``.
    """
    n_lags = blocks.shape[1]
    axes = []
    for s in range(u.shape[1]):
        per_lag = []
        for lag_idx in range(n_lags):
            try:
                sigma = weighted_common_covariance(blocks[:, lag_idx], u[:, s], m)
            except DegenerateWeights as exc:
                raise EmptyClusterError(f"cluster {s} has no effective members") from exc
            per_lag.append(common_axes(sigma, v))
        axes.append(per_lag)
    return ClusterSubspaces(axes=axes, variance_fraction=v)


def _per_object_loss(errors, u, m):
    """Per-object objective terms sum_s u_is^m r2_is; their sum is the objective."""
    return (u**m * errors).sum(axis=1)


def _trim_mask(loss: np.ndarray, n_keep: int) -> np.ndarray:
    """Boolean mask of the n_keep smallest losses; ties go to lower indices."""
    order = np.argsort(loss, kind="stable")
    mask = np.zeros(loss.shape[0], dtype=bool)
    mask[order[:n_keep]] = True
    return mask


class _Prepared:
    """Per-series second-order summaries shared by every fitting iteration."""

    def __init__(self, dataset: MtsDataset, max_lag: int):
        if max_lag < 1:
            raise LagTooSmall(f"max lag must be at least 1, got {max_lag}")
        for i, t in enumerate(dataset.lengths):
            if t <= max_lag:
                raise LagTooLarge(f"series {i} has length {t} <= max lag {max_lag}")
        n, d = dataset.n_series, 2 * dataset.n_channels
        # stored lag-major and exposed as (N, L, 2p, 2p) views, so every
        # per-lag slice [:, l] that the fitting loop reads is C-contiguous
        # and numpy reduces over it without copying
        blocks = np.empty((max_lag, n, d, d))
        grams = np.empty((max_lag, n, d, d))
        self.energies = np.empty((n, max_lag))
        for i, x in enumerate(dataset.series):
            _lag_summaries(x, blocks[:, i], grams[:, i], self.energies[i])
        self.blocks = blocks.transpose(1, 0, 2, 3)
        self.grams = grams.transpose(1, 0, 2, 3)
        self.n_series = n
        self.max_lag = max_lag


def _errors_from_grams(prep: _Prepared, subspaces: ClusterSubspaces) -> np.ndarray:
    """Reconstruction errors r2_is via the Gram identity |XC|^2 = tr(C^T G C).

    The captured energy is evaluated in projector form, tr(C^T G C) =
    <G, C C^T>_F, so each (cluster, lag) costs one matrix-vector product over
    the flattened Gram matrices of all series.  Errors below roundoff level
    (relative to the object's total energy) are snapped to exact zero, so
    near-full-rank projections consistently hit the zero-error membership
    convention instead of feeding the update meaningless ratios of rounding
    noise.
    """
    n = prep.n_series
    s_count = subspaces.n_clusters
    errors = np.zeros((n, s_count))
    for s in range(s_count):
        for lag_idx in range(prep.max_lag):
            c = subspaces.axes[s][lag_idx]
            grams = prep.grams[:, lag_idx].reshape(n, -1)
            captured = grams @ (c @ c.T).ravel()
            errors[:, s] += prep.energies[:, lag_idx] - captured
    tiny = 1e-12 * prep.energies.sum(axis=1, keepdims=True)
    errors[errors <= tiny] = 0.0
    return errors


class _Run(NamedTuple):
    """Final state of one alternation run."""

    u: np.ndarray
    subspaces: ClusterSubspaces | None
    errors: np.ndarray | None
    trace: list
    converged: bool
    mask: np.ndarray | None


def _alternate(prep: _Prepared, u: np.ndarray, m: float, v: float, max_iter: int,
               tol: float, loss=None, n_subspaces: int | None = None,
               n_keep: int | None = None, patience: int | None = _STALL_LIMIT,
               stall_converges: bool = False,
               first_subspaces: ClusterSubspaces | None = None) -> _Run:
    """The one membership/subspace alternation behind every fit.

    Each iteration computes the subspaces from the retained objects'
    memberships, the reconstruction errors against them, the loss, the
    memberships from the loss, the retained set and the objective, then
    applies the stop rules.  The variant is a policy given by the remaining
    arguments:

    - ``loss`` maps the (N, S) errors to the (N, S') loss the memberships
      follow (default: the errors themselves); it is called once per
      iteration and may hold state, such as a scale fixed at the first call.
    - ``n_subspaces`` is the number of leading membership columns that own a
      subspace (default: all); the remaining columns, such as a noise
      cluster, enter only through the loss.
    - ``n_keep`` retains the objects with the ``n_keep`` smallest losses for
      the next subspace step and for the objective (default: all).
    - ``patience`` ends a run after that many iterations without a new best
      objective (None: never); ``stall_converges`` says whether such a run
      counts as converged.

    The run also stops, converged, when the objective changes by less than
    ``tol`` or the memberships reach a fixed point.  ``first_subspaces``, when
    given, must be the subspaces of the first iteration's weights; runs that
    share a start state compute them once.
    """
    n_sub = u.shape[1] if n_subspaces is None else n_subspaces
    mask = None if n_keep is None else np.ones(u.shape[0], dtype=bool)
    trace: list[float] = []
    converged = False
    subspaces = errors = None
    best = np.inf
    stall = 0
    for it in range(max_iter):
        if it == 0 and first_subspaces is not None:
            subspaces = first_subspaces
        else:
            weights = u[:, :n_sub] if mask is None else u[:, :n_sub] * mask[:, None]
            subspaces = _subspaces_from_weights(prep.blocks, weights, m, v)
        errors = _errors_from_grams(prep, subspaces)
        losses = errors if loss is None else loss(errors)
        u_prev = u
        u = ratio_memberships(losses, m)
        per_object = _per_object_loss(losses, u, m)
        if mask is None:
            trace.append(float(per_object.sum()))
        else:
            mask = _trim_mask(per_object, n_keep)
            trace.append(float(per_object[mask].sum()))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        # memberships at a fixed point: nothing downstream can move any more
        if np.abs(u - u_prev).max() < 1e-9:
            converged = True
            break
        if trace[-1] < best:
            best = trace[-1]
            stall = 0
        else:
            stall += 1
            if patience is not None and stall >= patience:
                converged = stall_converges
                break
    return _Run(u, subspaces, errors, trace, converged, mask)


def _prepare(dataset, max_lag: int) -> _Prepared:
    """The dataset's summaries; a :class:`_Prepared` passed in is reused."""
    return dataset if isinstance(dataset, _Prepared) else _Prepared(dataset, max_lag)


def _start(dataset, n_clusters: int, m: float, seed: int, init_u, max_lag: int):
    """Shared fit set-up: the prepared summaries and the starting memberships."""
    prep = _prepare(dataset, max_lag)
    if init_u is None:
        return prep, init_memberships(prep.n_series, n_clusters, seed, m).u
    u = MembershipMatrix(init_u, m).u.copy()
    if u.shape != (prep.n_series, n_clusters):
        raise InvalidShape("initial memberships have the wrong shape")
    return prep, u


def flag_outliers(fit: FitResult) -> np.ndarray:
    """Per-variant outlier rule, returned as a sorted index array.

    Exponential/baseline: no dominant membership (max below 0.70).
    Noise: noise-cluster membership at least 0.50.
    Trimmed: the complement of the retained set.
    """
    u = fit.memberships.u
    if fit.variant == "t":
        mask = np.ones(fit.n_series, dtype=bool)
        mask[np.asarray(fit.variant_params["retained"], dtype=int)] = False
        return np.flatnonzero(mask)
    if fit.variant == "n":
        return np.flatnonzero(u[:, -1] >= NOISE_FLAG_THRESHOLD)
    return np.flatnonzero(u.max(axis=1) < HARDEN_THRESHOLD)


def _fit_result(run: _Run, m: float, variant: str, params: dict, seed: int) -> FitResult:
    fit = FitResult(
        memberships=MembershipMatrix(run.u, m),
        subspaces=run.subspaces,
        errors=run.errors,
        objective_trace=run.trace,
        iterations=len(run.trace),
        converged=run.converged,
        variant=variant,
        variant_params=params,
        seed=seed,
    )
    fit.flagged = flag_outliers(fit)
    return fit


def fit_fcpca(dataset: MtsDataset, n_clusters: int, m: float = 2.0,
              v: float = DEFAULT_VARIANCE_FRACTION, seed: int = 0,
              max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
              init_u: np.ndarray | None = None,
              max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Fit the baseline fuzzy subspace clustering model.

    Alternates subspace and membership updates until the absolute change of
    the objective drops below ``tol`` or ``max_iter`` is reached.  The run
    is fully determined by (dataset, parameters, seed).
    """
    prep, u = _start(dataset, n_clusters, m, seed, init_u, max_lag)
    run = _alternate(prep, u, m, v, max_iter, tol)
    return _fit_result(run, m, "fcpca", {}, seed)
