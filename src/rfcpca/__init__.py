"""Robust fuzzy subspace clustering for multivariate time series.

Series are summarised by lagged block covariances; clusters are fuzzy
memberships paired with common low-rank subspaces of the weighted
covariances.  Three robust variants (exponential loss, noise cluster,
trimming) handle contaminated trials, a validity index drives automatic
hyperparameter selection, and a deterministic synthetic-EEG generator with
two artifact models provides the benchmark.
"""

from types import ModuleType as _ModuleType

from .analysis import channel_contributions, noise_subspace, principal_angles
from .core import (
    FitResult,
    MembershipMatrix,
    fit_fcpca,
    flag_outliers,
    init_memberships,
)
from .covariance import (
    ClusterSubspaces,
    common_axes,
    weighted_common_covariance,
)
from .dataset import MtsDataset, dataset_digest, read_csv_dir, write_csv_dir
from .evaluation import (
    EvalReport,
    adjusted_rand_index,
    evaluate_fit,
    harden,
    outlier_recall,
    rand_index,
)
from .robust import (
    LambdaElbow,
    estimate_beta,
    fit_rfcpca_e,
    fit_rfcpca_n,
    fit_rfcpca_t,
    select_lambda_elbow,
    update_noise_distance,
)
from .selection import SearchGrid, SelectionReport, cvi, grid_search, prototype_separation
from .simulate import (
    BandSpec,
    SimManifest,
    ar2_coefficients,
    generate_clean_dataset,
    inject_bursts,
    inject_eyeblinks,
    mixing_matrix,
    simulate_latents,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
