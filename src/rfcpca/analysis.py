"""Post-hoc subspace diagnostics: principal angles and channel contributions."""

from __future__ import annotations

import numpy as np

from .core import FitResult, _prepare, _subspaces_from_weights
from .covariance import ClusterSubspaces
from .dataset import MtsDataset
from .exceptions import DimensionMismatch, EmptyClusterError, NotOrthonormal


def _check_orthonormal(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    gram = b.T @ b
    if not np.abs(gram - np.eye(b.shape[1])).max() <= 1e-8:
        raise NotOrthonormal("basis columns are not orthonormal within 1e-8")
    return b


def principal_angles(basis_a, basis_b) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2].

    The cosines are the singular values of B_a^T B_b, clamped to [0, 1]
    against roundoff.
    """
    a = _check_orthonormal(basis_a)
    b = _check_orthonormal(basis_b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("bases live in different ambient dimensions")
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sort(np.arccos(np.clip(sv, 0.0, 1.0)))


def axis_row_energies(axes) -> np.ndarray:
    """Per-row squared loading mass of an orthonormal axis matrix (length 2p)."""
    c = _check_orthonormal(axes)
    return (c * c).sum(axis=1)


def channel_contributions(axes, p: int) -> np.ndarray:
    """Per-channel loading mass, aggregating the past and future copies.

    Row j and row j + p of the axis matrix are the two lagged copies of
    channel j; their squared loadings are summed, so the total over
    channels equals the subspace rank k.
    """
    c = np.asarray(axes, dtype=float)
    if c.shape[0] != 2 * p:
        raise DimensionMismatch(f"axes have {c.shape[0]} rows, expected {2 * p}")
    energy = axis_row_energies(c)
    return energy[:p] + energy[p:]


def noise_subspace(dataset: MtsDataset, fit: FitResult) -> ClusterSubspaces:
    """Subspace fitted to the noise-weighted data of a noise-variant fit.

    Runs the same weighted-covariance pipeline with the noise-membership
    column as weights, giving the flagged activity its own axes for
    diagnostics alongside the regular clusters.  A dataset is summarised
    at the fit's lags; ``dataset`` may also be its prepared summaries.
    """
    if fit.variant != "n":
        raise ValueError("noise subspace diagnostics need a noise-variant fit")
    prep = _prepare(dataset, fit.subspaces.n_lags)
    weights = fit.memberships.u[:, -1:]
    try:
        return _subspaces_from_weights(prep.blocks, weights, fit.memberships.m,
                                       fit.subspaces.variance_fraction)
    except EmptyClusterError as exc:
        raise EmptyClusterError("the noise cluster has no effective members") from exc
