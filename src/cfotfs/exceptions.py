"""Exception types raised across the package."""


class InfeasibleConfigError(ValueError):
    """A requested configuration cannot be realized (e.g. more distinct
    delay taps than delay bins)."""


class GuardWidthError(InfeasibleConfigError):
    """Doppler guard region spans the whole Doppler axis, leaving no room
    for data symbols."""


class EstimateStatisticsError(ValueError):
    """Inconsistent estimation statistics (estimate variance above the
    true channel variance)."""


class IdentityCheckError(RuntimeError):
    """A delay-Doppler operator identity was violated beyond tolerance."""


class PowerControlError(ValueError):
    """Power control is degenerate (an AP with no usable channel estimate)."""


class DistinctDelayError(ValueError):
    """An operation requiring pairwise-distinct delay taps was called on a
    path set with repeated taps."""
