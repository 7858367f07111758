"""Delay-Doppler channel sampling: path taps, fractional Doppler and
complex gains for every AP-user pair, held as (AP, user, path) arrays."""

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
    """Paths of one link (arrays shaped (L,)) or of a batch of links
    (shaped (..., L), e.g. (AP, user, path)). Indexing and iteration walk
    the link axes: paths[p, q] is one link, paths[:, q] all of user q's."""

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
        shape = self.delay_taps.shape
        if not shape or shape[-1] < 1:
            raise ValueError("a path set needs a path axis with at least one path")
        for arr in (self.doppler_taps, self.frac_dopplers, self.variances, self.gains):
            if arr.shape != shape:
                raise ValueError("path arrays must have equal shapes")
        if np.any(self.variances <= 0):
            raise ValueError("path variances must be positive")
        if np.any(np.abs(self.frac_dopplers) >= 0.5):
            raise ValueError("fractional Doppler must lie strictly in (-0.5, 0.5)")

    @property
    def n_paths(self) -> int:
        return self.delay_taps.shape[-1]

    def __iter__(self):
        return map(_view, zip(*self._link_arrays()))

    def __getitem__(self, index) -> "PathSet":
        key = (index if isinstance(index, tuple) else (index,)) + (slice(None),)
        return _view(arr[key] for arr in self._link_arrays())

    def _link_arrays(self) -> tuple:
        if self.delay_taps.ndim < 2:
            raise IndexError("a single link has no link axis; use path(i)")
        return (self.delay_taps, self.doppler_taps, self.frac_dopplers,
                self.variances, self.gains)

    def path(self, *index) -> DdPath:
        """Path at index (link indices, then the path), for dense operators."""
        return DdPath(
            delay_tap=int(self.delay_taps[index]),
            doppler_tap=int(self.doppler_taps[index]),
            frac_doppler=float(self.frac_dopplers[index]),
            variance=float(self.variances[index]),
            gain=complex(self.gains[index]),
        )


def _view(arrays) -> PathSet:
    """PathSet over validated array slices, skipping the validation."""
    paths = object.__new__(PathSet)
    (paths.delay_taps, paths.doppler_taps, paths.frac_dopplers,
     paths.variances, paths.gains) = arrays
    return paths


def max_doppler_index(speed_kmh: float, grid: OtfsGrid) -> int:
    """Largest integer Doppler tap reached at the given speed.

    The maximum Doppler shift f_c*v/c is measured against the Doppler
    resolution 1/(N*T) and rounded up.
    """
    if speed_kmh < 0:
        raise ValueError("speed must be non-negative")
    nu_max = grid.carrier_hz * (speed_kmh / 3.6) / SPEED_OF_LIGHT
    return int(math.ceil(nu_max / grid.doppler_resolution_hz))


def sample_all_paths(beta_pair, n_paths: int, l_max: int, k_max: int,
                     grid: OtfsGrid, seed=None, *, fractional: bool = True,
                     power_profile: str = "uniform",
                     distinct_delays: bool = False) -> PathSet:
    """Draw the path sets of every link of beta_pair (any shape: (P, Q)
    for a network, 0-d for one link) as one PathSet shaped
    beta_pair.shape + (n_paths,).

    Delay taps are uniform on {0..l_max} (a random subset without
    repetition when distinct_delays is set), Doppler taps uniform on
    {-k_max..k_max}, and fractional Doppler uniform on (-0.5, 0.5) when
    enabled. Per-path variances split each link's beta by the power
    profile: "uniform" gives beta/n_paths each, "replicate" gives beta to
    every path. Gains are complex normal with those variances. Links are
    drawn one after another in row-major order, each taking its delays,
    Doppler taps, fractions and gains from the stream in that order.
    """
    beta_pair = np.asarray(beta_pair, dtype=float)
    if n_paths < 1:
        raise ValueError("need at least one path")
    if np.any(beta_pair <= 0):
        raise ValueError("beta_pair must be positive")
    if not 0 <= l_max <= grid.delay_bins - 1:
        raise ValueError("l_max must lie in [0, delay_bins - 1]")
    k_bound = max(grid.doppler_bins // 2 - 1, 0)
    if not 0 <= k_max <= k_bound:
        raise ValueError(f"k_max must lie in [0, {k_bound}] for this grid")
    if power_profile not in ("uniform", "replicate"):
        raise ValueError(f"unknown power profile {power_profile!r}")
    if distinct_delays and n_paths > l_max + 1:
        raise InfeasibleConfigError(
            f"cannot draw {n_paths} distinct delay taps from [0, {l_max}]")

    rng = as_rng(seed)
    shape = beta_pair.shape + (n_paths,)
    share = n_paths if power_profile == "uniform" else 1
    variances = np.repeat(beta_pair[..., None] / share, n_paths, axis=-1)
    delays, dopplers = np.empty((2,) + shape, dtype=int)
    fracs = np.zeros(shape)
    gains = np.empty(shape, dtype=complex)
    for link in np.ndindex(*beta_pair.shape):
        if distinct_delays:
            delays[link] = rng.choice(l_max + 1, size=n_paths, replace=False)
        else:
            delays[link] = rng.integers(0, l_max + 1, size=n_paths)
        dopplers[link] = rng.integers(-k_max, k_max + 1, size=n_paths)
        if fractional:
            fracs[link] = rng.uniform(-0.5, 0.5, size=n_paths)
        gains[link] = sample_cn(rng, variances[link])
    return PathSet(delay_taps=delays, doppler_taps=dopplers,
                   frac_dopplers=fracs, variances=variances, gains=gains)
