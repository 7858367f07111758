"""Delay-Doppler channel sampling: path taps, fractional Doppler and
complex gains for every AP-user pair."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleConfigError
from .rng import as_rng, sample_cn

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class OtfsGrid:
    """Critically sampled delay-Doppler lattice.

    doppler_bins (N) symbols of duration T span the frame, delay_bins (M)
    subcarriers of spacing delta_f span the bandwidth, with T*delta_f = 1.
    """

    doppler_bins: int
    delay_bins: int
    delta_f_hz: float = 15e3
    carrier_hz: float = 4e9

    def __post_init__(self):
        if self.doppler_bins < 1 or self.delay_bins < 1:
            raise ValueError("grid dimensions must be positive")
        if self.delta_f_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("frequencies must be positive")

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.delta_f_hz

    @property
    def size(self) -> int:
        return self.doppler_bins * self.delay_bins

    @property
    def bandwidth_hz(self) -> float:
        return self.delay_bins * self.delta_f_hz

    @property
    def doppler_resolution_hz(self) -> float:
        return self.delta_f_hz / self.doppler_bins


@dataclass(frozen=True)
class DdPath:
    """One propagation path: integer delay/Doppler taps, fractional Doppler
    kappa in (-0.5, 0.5), gain variance and the sampled complex gain."""

    delay_tap: int
    doppler_tap: int
    frac_doppler: float
    variance: float
    gain: complex

    def __post_init__(self):
        if self.delay_tap < 0:
            raise ValueError("delay tap must be non-negative")
        if not abs(self.frac_doppler) < 0.5:
            raise ValueError("fractional Doppler must lie strictly in (-0.5, 0.5)")
        if self.variance <= 0:
            raise ValueError("path variance must be positive")


@dataclass
class PathSet:
    """All paths of one AP-user link, stored as parallel arrays."""

    ap: int
    user: int
    delay_taps: np.ndarray
    doppler_taps: np.ndarray
    frac_dopplers: np.ndarray
    variances: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        self.delay_taps = np.asarray(self.delay_taps, dtype=int)
        self.doppler_taps = np.asarray(self.doppler_taps, dtype=int)
        self.frac_dopplers = np.asarray(self.frac_dopplers, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        self.gains = np.asarray(self.gains, dtype=complex)
        n = len(self.delay_taps)
        if n < 1:
            raise ValueError("a path set needs at least one path")
        for arr in (self.doppler_taps, self.frac_dopplers, self.variances, self.gains):
            if len(arr) != n:
                raise ValueError("path arrays must have equal length")
        if np.any(self.variances <= 0):
            raise ValueError("path variances must be positive")
        if np.any(np.abs(self.frac_dopplers) >= 0.5):
            raise ValueError("fractional Doppler must lie strictly in (-0.5, 0.5)")

    @property
    def n_paths(self) -> int:
        return len(self.delay_taps)

    def path(self, i: int) -> DdPath:
        return DdPath(
            delay_tap=int(self.delay_taps[i]),
            doppler_tap=int(self.doppler_taps[i]),
            frac_doppler=float(self.frac_dopplers[i]),
            variance=float(self.variances[i]),
            gain=complex(self.gains[i]),
        )

    def has_distinct_delays(self) -> bool:
        return len(np.unique(self.delay_taps)) == self.n_paths


def max_doppler_index(speed_kmh: float, grid: OtfsGrid) -> int:
    """Largest integer Doppler tap reached at the given speed.

    The maximum Doppler shift f_c*v/c is measured against the Doppler
    resolution 1/(N*T) and rounded up.
    """
    if speed_kmh < 0:
        raise ValueError("speed must be non-negative")
    nu_max = grid.carrier_hz * (speed_kmh / 3.6) / SPEED_OF_LIGHT
    return int(math.ceil(nu_max / grid.doppler_resolution_hz))


def sample_paths(pair_beta: float, n_paths: int, l_max: int, k_max: int,
                 grid: OtfsGrid, seed=None, *, fractional: bool = True,
                 power_profile: str = "uniform", distinct_delays: bool = False,
                 ap: int = 0, user: int = 0) -> PathSet:
    """Draw one link's path set.

    Delay taps are uniform on {0..l_max} (a random subset without
    repetition when distinct_delays is set), Doppler taps uniform on
    {-k_max..k_max}, and fractional Doppler uniform on (-0.5, 0.5) when
    enabled. Per-path variances split pair_beta by the power profile:
    "uniform" gives pair_beta/n_paths each, "replicate" gives pair_beta
    to every path. Gains are complex normal with those variances.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if pair_beta <= 0:
        raise ValueError("pair_beta must be positive")
    if not 0 <= l_max <= grid.delay_bins - 1:
        raise ValueError("l_max must lie in [0, delay_bins - 1]")
    k_bound = max(grid.doppler_bins // 2 - 1, 0)
    if not 0 <= k_max <= k_bound:
        raise ValueError(f"k_max must lie in [0, {k_bound}] for this grid")
    if power_profile not in ("uniform", "replicate"):
        raise ValueError(f"unknown power profile {power_profile!r}")

    rng = as_rng(seed)
    if distinct_delays:
        if n_paths > l_max + 1:
            raise InfeasibleConfigError(
                f"cannot draw {n_paths} distinct delay taps from [0, {l_max}]")
        delays = rng.choice(l_max + 1, size=n_paths, replace=False)
    else:
        delays = rng.integers(0, l_max + 1, size=n_paths)
    dopplers = rng.integers(-k_max, k_max + 1, size=n_paths)
    if fractional:
        fracs = rng.uniform(-0.5, 0.5, size=n_paths)
    else:
        fracs = np.zeros(n_paths)
    if power_profile == "uniform":
        variances = np.full(n_paths, pair_beta / n_paths)
    else:
        variances = np.full(n_paths, pair_beta)
    gains = sample_cn(rng, variances)
    return PathSet(ap=ap, user=user, delay_taps=delays, doppler_taps=dopplers,
                   frac_dopplers=fracs, variances=variances, gains=gains)


def sample_all_paths(beta_pair: np.ndarray, n_paths: int, l_max: int,
                     k_max: int, grid: OtfsGrid, seed=None,
                     **kwargs) -> list:
    """Path sets for every (AP, user) pair of a beta_pair matrix, as a
    nested list indexed [p][q]."""
    rng = as_rng(seed)
    n_aps, n_users = beta_pair.shape
    return [
        [
            sample_paths(float(beta_pair[p, q]), n_paths, l_max, k_max, grid,
                         rng, ap=p, user=q, **kwargs)
            for q in range(n_users)
        ]
        for p in range(n_aps)
    ]


def stack_variances(pathsets: list) -> np.ndarray:
    """Per-path variance tensor beta[p, q, i]; requires a uniform path
    count across links."""
    counts = {ps.n_paths for row in pathsets for ps in row}
    if len(counts) != 1:
        raise ValueError("links have differing path counts; cannot stack")
    return np.array([[ps.variances for ps in row] for row in pathsets])
