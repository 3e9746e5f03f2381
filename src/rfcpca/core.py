"""Baseline alternating optimiser: memberships from errors, axes from memberships.

The fitting loop alternates two exact coordinate updates until the objective
stabilises: cluster axes are the top eigenvectors of the membership-weighted
block covariances, and memberships follow the closed-form ratio update from
the reconstruction errors.  Trimming is folded into the same engine (a zero
trimming proportion reproduces the baseline bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    DEFAULT_MAX_LAG,
    DEFAULT_VARIANCE_FRACTION,
    ClusterSubspaces,
    common_axes,
    embedding_grams,
    lagged_blocks,
    weighted_common_covariance,
)
from .dataset import MtsDataset
from .exceptions import (
    DegenerateWeights,
    EmptyClusterError,
    InvalidShape,
    LagTooLarge,
    TooFewRetained,
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


def update_memberships_fcpca(errors: np.ndarray, m: float) -> MembershipMatrix:
    """Membership update from squared reconstruction errors."""
    return MembershipMatrix(ratio_memberships(errors, m), m)


def update_subspaces(blocks: np.ndarray, memberships: MembershipMatrix,
                     v: float = DEFAULT_VARIANCE_FRACTION) -> ClusterSubspaces:
    """Axes for every cluster and lag from weighted common covariances.

    ``blocks`` is the (N, L, 2p, 2p) stack of per-series block matrices.
    """
    return _subspaces_from_weights(blocks, memberships.u, memberships.m, v)


def _subspaces_from_weights(blocks, u, m, v) -> ClusterSubspaces:
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


def objective_fcpca(errors: np.ndarray, memberships: MembershipMatrix, m: float | None = None) -> float:
    """Total weighted reconstruction error sum_i sum_s u_is^m r2_is."""
    m = memberships.m if m is None else m
    return float(_per_object_loss(errors, memberships.u, m).sum())


def _per_object_loss(errors, u, m):
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
        for i, t in enumerate(dataset.lengths):
            if t <= max_lag:
                raise LagTooLarge(f"series {i} has length {t} <= max lag {max_lag}")
        blocks = []
        grams = []
        energies = []
        for x in dataset.series:
            blocks.append(lagged_blocks(x, max_lag))
            g, e = embedding_grams(x, max_lag)
            grams.append(g)
            energies.append(e)
        # stored lag-major and exposed as (N, L, 2p, 2p) views, so every
        # per-lag slice [:, l] that the fitting loop reads is C-contiguous
        # and numpy reduces over it without copying
        self.blocks = np.stack(blocks, axis=1).transpose(1, 0, 2, 3)
        self.grams = np.stack(grams, axis=1).transpose(1, 0, 2, 3)
        self.energies = np.stack(energies)    # (N, L)
        self.n_series = self.blocks.shape[0]
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


def _fit_squared_loss(dataset: MtsDataset, n_clusters: int, m: float, v: float,
                      seed: int, max_iter: int, tol: float, alpha: float,
                      variant: str, init_u: np.ndarray | None = None,
                      max_lag: int = DEFAULT_MAX_LAG) -> FitResult:
    """Shared engine for the baseline and the trimmed variant.

    With alpha = 0 every object is always retained and the computation is
    bit-identical to the plain alternation.
    """
    prep = dataset if isinstance(dataset, _Prepared) else _Prepared(dataset, max_lag)
    n = prep.n_series
    n_keep = int(np.floor(n * (1.0 - alpha)))
    if n_keep < n_clusters:
        raise TooFewRetained(f"retaining {n_keep} of {n} objects cannot fill {n_clusters} clusters")
    if init_u is not None:
        u = MembershipMatrix(init_u, m).u.copy()
        if u.shape != (n, n_clusters):
            raise InvalidShape("initial memberships have the wrong shape")
    else:
        u = init_memberships(n, n_clusters, seed, m).u
    mask = np.ones(n, dtype=bool)
    trace: list[float] = []
    converged = False
    errors = None
    subspaces = None
    best = np.inf
    stall = 0
    for _ in range(max_iter):
        subspaces = _subspaces_from_weights(prep.blocks, u * mask[:, None], m, v)
        errors = _errors_from_grams(prep, subspaces)
        u_prev = u
        u = ratio_memberships(errors, m)
        loss = _per_object_loss(errors, u, m)
        if alpha > 0.0:
            mask = _trim_mask(loss, n_keep)
        trace.append(float(loss[mask].sum()))
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
            if stall >= _STALL_LIMIT:
                break
    memberships = MembershipMatrix(u, m)
    if variant == "t":
        flagged = np.flatnonzero(~mask)
        params = {"alpha": alpha, "retained": np.flatnonzero(mask)}
    else:
        flagged = np.flatnonzero(u.max(axis=1) < HARDEN_THRESHOLD)
        params = {}
    return FitResult(
        memberships=memberships,
        subspaces=subspaces,
        errors=errors,
        objective_trace=trace,
        iterations=len(trace),
        converged=converged,
        variant=variant,
        variant_params=params,
        flagged=flagged,
        seed=seed,
    )


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
    return _fit_squared_loss(dataset, n_clusters, m, v, seed, max_iter, tol,
                             alpha=0.0, variant="fcpca", init_u=init_u, max_lag=max_lag)
