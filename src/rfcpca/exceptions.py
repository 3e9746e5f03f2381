"""Exception types raised across the package."""


class RFCPCAError(Exception):
    """Base class for all package-specific errors."""


class LagTooLarge(RFCPCAError):
    """Requested lag is not smaller than the series length."""


class LagTooSmall(RFCPCAError, ValueError):
    """Requested maximum lag is below 1, so no lagged summary exists."""


class NonFiniteInput(RFCPCAError):
    """Input series contains NaN or infinite entries."""


class DegenerateWeights(RFCPCAError):
    """Membership weights sum to (numerically) zero: an empty cluster."""


class EigFailure(RFCPCAError):
    """Symmetric eigendecomposition failed to converge."""


class DimensionMismatch(RFCPCAError):
    """Array shapes are not compatible for the requested operation."""


class InvalidShape(RFCPCAError):
    """Requested matrix shape is invalid (e.g. more clusters than objects)."""


class EmptyClusterError(RFCPCAError):
    """A cluster lost all effective members during fitting."""


class DegenerateScale(RFCPCAError):
    """A scale estimate collapsed to zero (all errors vanished)."""


class TooFewRetained(RFCPCAError):
    """Trimming would retain fewer objects than there are clusters."""


class SingleCluster(RFCPCAError):
    """Prototype separation needs at least two substantive clusters."""


class DegenerateSeparation(RFCPCAError):
    """Cluster prototypes coincide; the validity index is undefined."""


class AllCandidatesFailed(RFCPCAError):
    """Every candidate in a hyperparameter grid errored or failed to converge."""


class InvalidBand(RFCPCAError):
    """Oscillator band parameters violate the sampling constraints."""


class BurstTooLong(RFCPCAError):
    """Burst duration does not fit into the shortest trial."""


class BlinkTooLong(RFCPCAError):
    """Blink duration does not fit into the shortest trial."""


class EmptyIndexSet(RFCPCAError):
    """Agreement metrics need a nonempty common index set."""


class NotOrthonormal(RFCPCAError):
    """A supplied basis is not orthonormal within tolerance."""
