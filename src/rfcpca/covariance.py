"""Lag-indexed second-order summaries of multivariate time series.

Every series is reduced to, per lag l = 1..L, the upper block row
[G(0), G(l)] (p x 2p) of its block covariance [[G(0), G(l)], [G(l)^T, G(0)]],
where G(l) is the lag-l cross-covariance, stacked over the 2p x 2p Gram
matrix Xhat(l)^T Xhat(l) of the lagged embedding, the (T - l) x 2p matrix
whose row t is [x_t, x_{t+l}]: one 3p x 2p matrix per lag.  The lower block
row is a mirror of the upper one and is never stored.  The embedding itself
is never formed: its total energy is the Gram trace and its reconstruction
error against orthonormal axes C is trace(G) - <G, C C^T>_F.  Cluster subspaces are the top eigenvectors of
membership-weighted averages of the block matrices, each rebuilt from the
weighted average of the upper block rows.

Conventions (fixed once, used everywhere):

* covariances are normalised by T (not T - l, not T - 1), so the lag-0
  block is the same matrix in every lag structure;
* per-channel means are computed once over the full series and reused for
  both the covariances and the Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateWeights, DimensionMismatch, EigFailure

DEFAULT_MAX_LAG = 2
DEFAULT_VARIANCE_FRACTION = 0.95

# eigenvalues below this multiple of the largest one count as rank-deficient
_RANK_EPS = 1e-10


def _lag_summaries(x, out) -> None:
    """The lag summaries of the finite T x p series ``x`` (T > L) at lags
    1..L, in one pass, written into ``out`` of shape (L, 3p, 2p).

    ``out[l - 1]`` stacks the upper block row [G(0), G(l)] (p x 2p) over the
    2p x 2p Gram, whose trace is the energy; this is the layout that fits
    read and the sidecar keeps.  The series is centred once and S0 = xc^T xc
    formed once.  Each lag then costs one cross product xc[:T-l]^T xc[l:]:
    over T it is the covariance G(l), stored beside G(0) = S0 / T
    (symmetrised so mirrored entries are bitwise equal), and as it stands
    the off-diagonal Gram block.  The diagonal Gram blocks are S0 less the l
    rows each half of the embedding leaves out.  Grams equal Xhat^T Xhat of
    the explicit embedding up to rounding.
    """
    t, p = x.shape
    xc = x - x.mean(axis=0)
    s0 = xc.T @ xc
    cov0 = s0 / t
    g0 = (cov0 + cov0.T) / 2.0
    for lag_idx in range(len(out)):
        lag = lag_idx + 1
        cross = xc[: t - lag].T @ xc[lag:]
        b = out[lag_idx, :p]
        b[:, :p] = g0
        b[:, p:] = cross / t
        head, tail = xc[:lag], xc[t - lag:]
        g = out[lag_idx, p:]
        g[:p, :p] = s0 - tail.T @ tail
        g[:p, p:] = cross
        g[p:, :p] = cross.T
        g[p:, p:] = s0 - head.T @ head
        g[...] = (g + g.T) / 2.0


def weighted_common_covariance(blocks, u_col, m: float) -> np.ndarray:
    """Membership-weighted average sum_i u_i^m B_i / sum_i u_i^m of block
    covariances B_i = [[G_i(0), G_i(l)], [G_i(l)^T, G_i(0)]].

    ``blocks`` is the (N, p, 2p) stack of the upper block rows
    [G_i(0), G_i(l)] at one lag and ``u_col`` the membership column for one
    cluster.  The weighted row R = [A, B] is one vector-matrix product over
    the series; the 2p x 2p result is [[A, B], [B^T, A]].
    """
    blocks = np.asarray(blocks, dtype=float)
    w = np.asarray(u_col, dtype=float) ** m
    if blocks.ndim != 3 or blocks.shape[0] != w.shape[0]:
        raise DimensionMismatch("blocks and weights disagree on the number of series")
    n, p, d = blocks.shape
    if d != 2 * p:
        raise DimensionMismatch(f"expected an (N, p, 2p) stack of upper block rows, "
                                f"got {blocks.shape}")
    total = w.sum()
    if total < 1e-12:
        raise DegenerateWeights("membership weights sum to zero")
    row = (w @ blocks.reshape(n, -1)).reshape(p, d) / total
    sigma = np.empty((d, d))
    sigma[:p] = row
    sigma[p:, :p] = row[:, p:].T
    sigma[p:, p:] = row[:, :p]
    return sigma


def common_axes(sigma, v: float = DEFAULT_VARIANCE_FRACTION) -> np.ndarray:
    """Orthonormal axes for the k largest eigenvalues of a symmetric matrix.

    k is the smallest count whose eigenvalues capture at least a fraction
    ``v`` of the total positive spectrum (negative eigenvalues are clamped
    to zero, a roundoff guard for averages of PSD matrices).  Each column's
    sign is normalised so its largest-magnitude entry is positive.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {sigma.shape}")
    # sigma - sigma.T is exactly antisymmetric, so its largest entry is its
    # largest magnitude
    if (sigma - sigma.T).max() > 1e-8:
        raise ValueError("matrix is not symmetric within 1e-8")
    if not 0.0 < v <= 1.0:
        raise ValueError("variance fraction must lie in (0, 1]")
    try:
        evals, evecs = np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigFailure(str(exc)) from exc
    # eigh sorts ascending: the spectrum is read in descending order, so
    # its first entry is the largest
    lam = np.maximum(evals[::-1], 0.0)
    lam[lam < _RANK_EPS * lam[0]] = 0.0
    cum = lam.cumsum()
    if cum[-1] <= 0.0:
        k = 1
    else:
        k = int(cum.searchsorted(v * cum[-1], side="left")) + 1
        k = min(max(k, 1), sigma.shape[0])
    axes = evecs[:, :-k - 1:-1]
    peak = np.abs(axes).argmax(axis=0)
    return axes * np.where(axes[peak, np.arange(k)] < 0.0, -1.0, 1.0)


@dataclass
class ClusterSubspaces:
    """Per-cluster, per-lag orthonormal axes and the retained-variance level.

    ``axes[s][l]`` is the 2p x k_{s,l} axis matrix for cluster s at lag
    index l (lag l+1).  Prototypes are the projectors C C^T, which compare
    clusters independently of their (possibly different) ranks.
    """

    axes: list = field(default_factory=list)
    variance_fraction: float = DEFAULT_VARIANCE_FRACTION

    @property
    def n_clusters(self) -> int:
        return len(self.axes)

    @property
    def n_lags(self) -> int:
        return len(self.axes[0]) if self.axes else 0

    def projector(self, s: int, lag_index: int) -> np.ndarray:
        c = self.axes[s][lag_index]
        return c @ c.T

    def projectors(self, s: int) -> list[np.ndarray]:
        return [self.projector(s, j) for j in range(self.n_lags)]

    def ranks(self) -> list[list[int]]:
        return [[c.shape[1] for c in per_lag] for per_lag in self.axes]
