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
        if self.delta_f_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("frequencies must be positive")

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
    (shaped (..., L), e.g. (AP, user, path)). Read a path through the
    arrays: paths.delay_taps[p, q, i] is path i of link (p, q)."""

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
        if not np.all(np.isfinite(self.variances) & (self.variances > 0)):
            raise ValueError("path variances must be positive and finite")
        if not np.all(np.abs(self.frac_dopplers) < 0.5):
            raise ValueError("fractional Doppler must lie strictly in (-0.5, 0.5)")

    @property
    def n_paths(self) -> int:
        return self.delay_taps.shape[-1]

    def doppler(self, links=...) -> np.ndarray:
        """Doppler of every path in units of the Doppler resolution, the
        integer tap plus its fraction, over the selected links (all by
        default): paths.doppler(np.s_[:, q]) covers every AP of user q."""
        return self.doppler_taps[links] + self.frac_dopplers[links]

    # Iteration yields one-link views, rows then links. Nothing in the
    # library iterates; it stays for the benchmark's path_pair_counts,
    # which walks a network this way until the benchmark revision
    # (ROADMAP item 4) reads delay_taps directly.
    def __iter__(self):
        return map(_view, zip(*self._link_arrays()))

    def _link_arrays(self) -> tuple:
        if self.delay_taps.ndim < 2:
            raise IndexError("a single link has no link axis to iterate")
        return (self.delay_taps, self.doppler_taps, self.frac_dopplers,
                self.variances, self.gains)


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
                     distinct_delays: bool = False) -> PathSet:
    """Draw the path sets of every link of beta_pair (any shape: (P, Q)
    for a network, 0-d for one link) as one PathSet shaped
    beta_pair.shape + (n_paths,).

    Delay taps are uniform on {0..l_max} (a random subset without
    repetition when distinct_delays is set), Doppler taps uniform on
    {-k_max..k_max}, and fractional Doppler uniform on (-0.5, 0.5) when
    enabled. Each path carries beta/n_paths of its link's power, and its
    gain is complex normal with that variance.

    Links are drawn one after another in row-major order, each with three
    generator calls into preallocated arrays: its delay and Doppler taps
    (one array-bounded integers call, or a choice and an integers call
    for distinct delays), its fractions and its 2 x n_paths standard
    normals, real parts first. The fractions are shifted and the gains
    assembled once for the whole network afterwards. This is the same
    stream as drawing delays, Doppler taps, uniform(-0.5, 0.5) fractions
    and the real and imaginary normals with one call each, bit for bit.
    """
    beta_pair = np.asarray(beta_pair, dtype=float)
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not np.all(np.isfinite(beta_pair) & (beta_pair > 0)):
        raise ValueError("beta_pair must be positive and finite")
    if not 0 <= l_max <= grid.delay_bins - 1:
        raise ValueError("l_max must lie in [0, delay_bins - 1]")
    k_bound = max(grid.doppler_bins // 2 - 1, 0)
    if not 0 <= k_max <= k_bound:
        raise ValueError(f"k_max must lie in [0, {k_bound}] for this grid")
    if distinct_delays and n_paths > l_max + 1:
        raise InfeasibleConfigError(
            f"cannot draw {n_paths} distinct delay taps from [0, {l_max}]")

    rng = as_rng(seed)
    shape = beta_pair.shape + (n_paths,)
    n_links = beta_pair.size
    variances = np.repeat(beta_pair[..., None] / n_paths, n_paths, axis=-1)
    # Delay row then Doppler row of every link; bounds of both rows.
    taps = np.empty((2, n_links, n_paths), dtype=int)
    low = np.repeat([[0], [-k_max]], n_paths, axis=1)
    high = np.repeat([[l_max + 1], [k_max + 1]], n_paths, axis=1)
    fracs = np.zeros((n_links, n_paths))
    normals = np.empty((n_links, 2, n_paths))
    for i in range(n_links):
        if distinct_delays:
            taps[0, i] = rng.choice(l_max + 1, size=n_paths, replace=False)
            taps[1, i] = rng.integers(-k_max, k_max + 1, size=n_paths)
        else:
            taps[:, i] = rng.integers(low, high)
        if fractional:
            rng.random(out=fracs[i])
        rng.standard_normal(out=normals[i])
    if fractional:
        fracs -= 0.5  # uniform(-0.5, 0.5) is -0.5 + 1.0 * random()
    delays, dopplers = taps.reshape((2,) + shape)
    re, im = normals.swapaxes(0, 1).reshape((2,) + shape)
    return PathSet(delay_taps=delays, doppler_taps=dopplers,
                   frac_dopplers=fracs.reshape(shape), variances=variances,
                   gains=cn_from_normals(variances, re, im))
