"""Delay-Doppler channel sampling: path taps, fractional Doppler and
complex gains for every AP-user pair, held as (AP, user, path) arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleConfigError
from .rng import as_rng, cn_from_normals

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
        frequencies = (self.delta_f_hz, self.carrier_hz)
        if not all(0 < f < math.inf for f in frequencies):  # NaN fails too
            raise ValueError("frequencies must be positive and finite, got "
                             f"{frequencies}")

    @property
    def size(self) -> int:
        return self.doppler_bins * self.delay_bins

    @property
    def bandwidth_hz(self) -> float:
        return self.delay_bins * self.delta_f_hz

    @property
    def doppler_resolution_hz(self) -> float:
        return self.delta_f_hz / self.doppler_bins


@dataclass(slots=True)
class PathSet:
    """Paths of one link (arrays shaped (L,)) or of a batch of links
    (shaped (..., L), e.g. (AP, user, path)), as sample_all_paths draws
    them: integer delay taps, Dopplers k + kappa in units of the Doppler
    resolution (the integer tap plus its fraction) and complex gains.
    Read a path through the arrays: paths.doppler[p, q, i] is path i of
    link (p, q)."""

    delay_taps: np.ndarray
    doppler: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        self.delay_taps = np.asarray(self.delay_taps, dtype=int)
        self.doppler = np.asarray(self.doppler, dtype=float)
        self.gains = np.asarray(self.gains, dtype=complex)
        shape = self.delay_taps.shape
        if not shape or shape[-1] < 1:
            raise ValueError("a path set needs a path axis with at least one path")
        if self.doppler.shape != shape or self.gains.shape != shape:
            raise ValueError("path arrays must have equal shapes")
        if not np.all(np.isfinite(self.doppler)):
            raise ValueError("path Dopplers must be finite")

    # Iteration yields one-link views, rows then links. Nothing in the
    # library iterates; it stays for the benchmark's path_pair_counts,
    # which walks a network this way until the benchmark revision
    # (ROADMAP item 5) reads delay_taps directly.
    def __iter__(self):
        if self.delay_taps.ndim < 2:
            raise IndexError("a single link has no link axis to iterate")
        return map(_view, self.delay_taps, self.doppler, self.gains)


def _view(delay_taps, doppler, gains) -> PathSet:
    """PathSet over validated array slices, skipping the validation."""
    paths = object.__new__(PathSet)
    paths.delay_taps, paths.doppler, paths.gains = delay_taps, doppler, gains
    return paths


def max_doppler_index(speed_kmh: float, grid: OtfsGrid) -> int:
    """Largest integer Doppler tap reached at the given speed.

    The maximum Doppler shift f_c*v/c is measured against the Doppler
    resolution 1/(N*T) and rounded up.
    """
    if not 0 <= speed_kmh < math.inf:  # NaN fails too
        raise ValueError(f"speed must be non-negative and finite, got "
                         f"{speed_kmh}")
    nu_max = grid.carrier_hz * (speed_kmh / 3.6) / SPEED_OF_LIGHT
    return int(math.ceil(nu_max / grid.doppler_resolution_hz))


def check_tap_ranges(l_max: int, k_max: int, grid: OtfsGrid) -> None:
    """Raise ValueError unless the grid holds the tap ranges: l_max in
    [0, M - 1] and k_max in [0, max(N // 2 - 1, 0)]."""
    if not 0 <= l_max <= grid.delay_bins - 1:
        raise ValueError("l_max must lie in [0, delay_bins - 1]")
    k_bound = max(grid.doppler_bins // 2 - 1, 0)
    if not 0 <= k_max <= k_bound:
        raise ValueError(f"k_max must lie in [0, {k_bound}] for this grid")


def sample_all_paths(variances, l_max: int, k_max: int, grid: OtfsGrid,
                     seed=None, *, fractional: bool = True,
                     distinct_delays: bool = False) -> PathSet:
    """Draw the paths of every link as one PathSet shaped like variances,
    the per-path gain variances shaped (..., L): (P, Q, L) for a network,
    (L,) for one link.

    Delay taps are uniform on {0..l_max} (a random subset without
    repetition when distinct_delays is set), Doppler taps uniform on
    {-k_max..k_max}, and fractional Doppler uniform on [-0.5, 0.5) when
    enabled; a path's Doppler is its tap plus its fraction. Each gain is
    complex normal with its path's variance.

    Links are drawn one after another in row-major order, each with three
    generator calls into preallocated arrays: one array-bounded integers
    call, one random call and its 2 x L standard normals, real parts
    first. The integers call draws the L delay taps on [0, l_max], unless
    they must be distinct, then the L Doppler taps on [-k_max, k_max].
    The random call draws l_max + 1 sort keys when delays are distinct,
    then the L fractions when Doppler is fractional. A distinct link's
    delay taps are the first L entries of a stable argsort of its keys: a
    uniformly random ordered subset, as Generator.choice(l_max + 1, L,
    replace=False) gives. The fractions are shifted, added to the taps
    and the gains assembled once for the whole network. Without distinct
    delays this is the same stream as drawing delays, Doppler taps,
    uniform(-0.5, 0.5) fractions and the real and imaginary normals with
    one call each, bit for bit.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.ndim < 1 or variances.shape[-1] < 1:
        raise ValueError("variances need a path axis with at least one path, "
                         f"got shape {variances.shape}")
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise ValueError("path variances must be positive and finite")
    check_tap_ranges(l_max, k_max, grid)
    shape = variances.shape
    n_paths = shape[-1]
    if distinct_delays and n_paths > l_max + 1:
        raise InfeasibleConfigError(
            f"cannot draw {n_paths} distinct delay taps from [0, {l_max}]")

    rng = as_rng(seed)
    n_links = variances.size // n_paths
    # Bounds of each link's integers call: delay taps unless distinct,
    # then Doppler taps. Distinct delays sort keys instead.
    n_keys, n_delays = (l_max + 1, 0) if distinct_delays else (0, n_paths)
    low = np.r_[np.zeros(n_delays, dtype=int), np.full(n_paths, -k_max)]
    high = np.r_[np.full(n_delays, l_max), np.full(n_paths, k_max)] + 1
    draws = np.empty((n_links, low.size), dtype=int)
    uniforms = np.empty((n_links, n_keys + n_paths * fractional))
    normals = np.empty((n_links, 2, n_paths))
    for i in range(n_links):
        draws[i] = rng.integers(low, high)
        if uniforms.shape[1]:
            rng.random(out=uniforms[i])
        rng.standard_normal(out=normals[i])
    if distinct_delays:
        delays = np.argsort(uniforms[:, :n_keys], axis=1,
                            kind="stable")[:, :n_paths]
    else:
        delays = draws[:, :n_paths]
    # uniform(-0.5, 0.5) is -0.5 + 1.0 * random()
    fracs = uniforms[:, n_keys:] - 0.5 if fractional else 0.0
    doppler = draws[:, -n_paths:] + fracs  # integer taps plus fractions
    re, im = normals.swapaxes(0, 1).reshape((2,) + shape)
    return PathSet(delay_taps=delays.reshape(shape),
                   doppler=doppler.reshape(shape),
                   gains=cn_from_normals(variances, re, im))
