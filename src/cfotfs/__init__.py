"""Downlink of cell-free massive MIMO with OTFS modulation: closed-form
per-user achievable rates under embedded-pilot MMSE channel estimation and
conjugate beamforming, validated against a matrix-level Monte Carlo oracle."""

from .channel import OtfsGrid, PathSet, max_doppler_index, sample_all_paths
from .estimation import (LinkStats, compute_link_stats, guard_overhead,
                         mmse_coeff, sample_estimate)
from .exceptions import (DistinctDelayError, EstimateStatisticsError,
                         GuardWidthError, IdentityCheckError,
                         InfeasibleConfigError, PowerControlError)
from .geometry import (Layout, NetworkConfig, apply_shadowing, path_loss_db,
                       place_network, wrapped_distance)
from .operators import (chi_kappa_tables, dd_operator,
                        verify_operator_identities)
from .rate import (PowerControl, RateReport, achievable_rate,
                   equal_power_control, power_constraint_load,
                   rate_distinct_delays)

__version__ = "0.1.0"
