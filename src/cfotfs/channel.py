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
    if speed_kmh < 0:
        raise ValueError("speed must be non-negative")
    nu_max = grid.carrier_hz * (speed_kmh / 3.6) / SPEED_OF_LIGHT
    return int(math.ceil(nu_max / grid.doppler_resolution_hz))


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
    call, its fractions and its 2 x L standard normals, real parts first.
    The integers call draws the L delay taps on [0, l_max], then the L
    Doppler taps on [-k_max, k_max]. With distinct_delays its delay part
    is the 2L - 1 draws numpy's Generator.choice(l_max + 1, L,
    replace=False) makes through the same bounded-integer routine:
    Floyd's L values on [0, j] for j = l_max + 1 - L .. l_max, then its
    shuffle's swap indices on [0, i] for i = L - 1 .. 1. Floyd's rule and
    the swaps then run once for all links (_floyd_shuffle). numpy takes
    another branch when l_max + 1 > 10000 and L > (l_max + 1) // 50;
    there each link calls choice, then integers for its Doppler taps.
    The fractions are shifted, added to the taps and the gains assembled
    once for the whole network. This is the same stream as drawing delays
    (with choice for distinct delays), Doppler taps, uniform(-0.5, 0.5)
    fractions and the real and imaginary normals with one call each, bit
    for bit.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.ndim < 1 or variances.shape[-1] < 1:
        raise ValueError("variances need a path axis with at least one path, "
                         f"got shape {variances.shape}")
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise ValueError("path variances must be positive and finite")
    if not 0 <= l_max <= grid.delay_bins - 1:
        raise ValueError("l_max must lie in [0, delay_bins - 1]")
    k_bound = max(grid.doppler_bins // 2 - 1, 0)
    if not 0 <= k_max <= k_bound:
        raise ValueError(f"k_max must lie in [0, {k_bound}] for this grid")
    shape = variances.shape
    n_paths = shape[-1]
    if distinct_delays and n_paths > l_max + 1:
        raise InfeasibleConfigError(
            f"cannot draw {n_paths} distinct delay taps from [0, {l_max}]")

    rng = as_rng(seed)
    n_links = variances.size // n_paths
    if distinct_delays:  # Floyd's values, then the shuffle's swap indices
        tops = np.r_[l_max + 1 - n_paths:l_max + 1, n_paths - 1:0:-1]
    else:
        tops = np.full(n_paths, l_max)
    # Bounds of each link's integers call: delay draws, then Doppler taps.
    low = np.r_[np.zeros_like(tops), np.full(n_paths, -k_max)]
    high = np.r_[tops, np.full(n_paths, k_max)] + 1
    # numpy's choice takes a tail shuffle here, which is not replayed.
    tail_shuffle = (distinct_delays and l_max + 1 > 10_000
                    and n_paths > (l_max + 1) // 50)
    draws = np.empty((n_links, low.size), dtype=int)
    fracs = np.zeros((n_links, n_paths))
    normals = np.empty((n_links, 2, n_paths))
    for i in range(n_links):
        if tail_shuffle:
            draws[i, :n_paths] = rng.choice(l_max + 1, size=n_paths,
                                            replace=False)
            draws[i, -n_paths:] = rng.integers(-k_max, k_max + 1, n_paths)
        else:
            draws[i] = rng.integers(low, high)
        if fractional:
            rng.random(out=fracs[i])
        rng.standard_normal(out=normals[i])
    if fractional:
        fracs -= 0.5  # uniform(-0.5, 0.5) is -0.5 + 1.0 * random()
    delays = draws[:, :n_paths]
    if distinct_delays and not tail_shuffle:
        delays = _floyd_shuffle(draws[:, :-n_paths], l_max)
    k = draws[:, -n_paths:]  # integer Doppler taps
    re, im = normals.swapaxes(0, 1).reshape((2,) + shape)
    return PathSet(delay_taps=delays.reshape(shape),
                   doppler=k.reshape(shape) + fracs.reshape(shape),
                   gains=cn_from_normals(variances, re, im))


def _floyd_shuffle(draws, l_max: int) -> np.ndarray:
    """Generator.choice(l_max + 1, L, replace=False) of every link, from
    the (links, 2L - 1) draws it takes: Floyd's L values, then the L - 1
    swap indices of its shuffle."""
    n_paths = (draws.shape[1] + 1) // 2
    values, swaps = draws[:, :n_paths], draws[:, n_paths:]
    taps = np.empty_like(values)
    for t in range(n_paths):
        # Floyd: a value already taken becomes the top of its range.
        taken = (taps[:, :t] == values[:, t, None]).any(axis=1)
        taps[:, t] = np.where(taken, l_max + 1 - n_paths + t, values[:, t])
    rows = np.arange(len(taps))
    for s, i in enumerate(range(n_paths - 1, 0, -1)):
        j = swaps[:, s]
        taps[rows, i], taps[rows, j] = taps[rows, j], taps[rows, i]
    return taps
