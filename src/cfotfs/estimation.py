"""Embedded-pilot channel estimation statistics.

Each user transmits one pilot symbol surrounded by zero guard bins; the
received guard region yields per-path observations whose linear MMSE
coefficient, estimate variance and residual interference constant are
computed in closed form from the network's large-scale coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import OtfsGrid
from .exceptions import (EstimateStatisticsError, GuardWidthError,
                         PilotOverheadError)
from .rng import as_rng, sample_cn


def guard_overhead(l_max: int, k_max: int, k_hat: int) -> int:
    """Pilot plus guard bins consumed per user.

    The guard block spans 2*l_max+1 delay bins and 4*k_max+4*k_hat+1
    Doppler bins, where k_hat widens the Doppler guard against
    fractional-Doppler spreading.
    """
    if min(l_max, k_max, k_hat) < 0:
        raise ValueError("guard widths must be non-negative")
    return (2 * l_max + 1) * (4 * k_max + 4 * k_hat + 1)


@dataclass
class PilotPlan:
    """Pilot locations and guard geometry shared by all links.

    mode "strict" requires non-overlapping guard regions (users cannot
    reuse each other's pilot/guard bins for data); mode "shared" lets data
    of other users occupy those bins, which is what the interference
    statistics below assume, and does not constrain placement.
    """

    locations: np.ndarray  # (K_u, 2) rows of (doppler bin, delay bin)
    l_max: int
    k_max: int
    k_hat: int
    pilot_power: float  # normalized SNR of the pilot symbol
    n_guard: int
    mode: str = "shared"


def plan_pilots(n_users: int, grid: OtfsGrid, l_max: int, k_max: int,
                k_hat: int, pilot_power: float = 1.0,
                mode: str = "shared") -> PilotPlan:
    """Place one pilot per user on a regular lattice.

    In strict mode the lattice pitch equals the guard widths so no two
    guard regions overlap; infeasible overhead raises PilotOverheadError.
    In shared mode placement is best effort (round-robin over the lattice)
    and only the guard geometry matters for the statistics.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if mode not in ("strict", "shared"):
        raise ValueError(f"unknown pilot mode {mode!r}")
    n_guard = guard_overhead(l_max, k_max, k_hat)
    m, n = grid.delay_bins, grid.doppler_bins
    delay_pitch = 2 * l_max + 1
    doppler_pitch = 4 * k_max + 4 * k_hat + 1
    slots_delay = m // delay_pitch
    slots_doppler = n // doppler_pitch
    capacity = slots_delay * slots_doppler
    if mode == "strict":
        if n_users * n_guard > grid.size:
            raise PilotOverheadError(
                f"{n_users} users need {n_users * n_guard} pilot+guard bins "
                f"but the frame has {grid.size}")
        if capacity < n_users:
            raise PilotOverheadError(
                f"only {capacity} non-overlapping guard slots fit the frame, "
                f"{n_users} needed")
    locations = np.empty((n_users, 2), dtype=int)
    for q in range(n_users):
        slot = q % max(capacity, 1)
        sk, sl = divmod(slot, max(slots_delay, 1))
        locations[q, 0] = (sk * doppler_pitch + doppler_pitch // 2) % n
        locations[q, 1] = (sl * delay_pitch + delay_pitch // 2) % m
    return PilotPlan(locations=locations, l_max=l_max, k_max=k_max,
                     k_hat=k_hat, pilot_power=pilot_power, n_guard=n_guard,
                     mode=mode)


def mmse_coeff(beta, rho_p: float, rho_u: float, xi):
    """Linear MMSE coefficient for a per-path gain observed through the
    pilot: sqrt(rho_p)*beta / (rho_p*beta + rho_u*xi + 1).

    The estimate variance is gamma = sqrt(rho_p)*beta*c, which never
    exceeds beta.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    if rho_p <= 0:
        raise ValueError("pilot power must be positive")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("interference constant xi must be non-negative")
    return np.sqrt(rho_p) * beta / (rho_p * beta + rho_u * xi + 1.0)


@dataclass
class LinkStats:
    """Per-path estimation statistics for the whole network.

    Arrays are indexed [p, q, i] except xi, indexed [p, q]. gamma is the
    estimate variance sqrt(rho_p)*beta*c; beta - gamma is the error
    variance.
    """

    beta: np.ndarray
    mmse_c: np.ndarray
    gamma: np.ndarray
    xi: np.ndarray
    rho_p: float
    rho_u: float

    @property
    def n_aps(self) -> int:
        return self.beta.shape[0]

    @property
    def n_users(self) -> int:
        return self.beta.shape[1]


def compute_link_stats(beta_paths: np.ndarray, plan: PilotPlan, rho_u: float,
                       grid: OtfsGrid) -> LinkStats:
    """MMSE statistics for every (AP, user, path) from the per-path
    variance tensor beta_paths[p, q, i]."""
    beta_paths = np.asarray(beta_paths, dtype=float)
    n_aps, n_users, _ = beta_paths.shape
    n = grid.doppler_bins
    guard_span = 4 * plan.k_max + 4 * plan.k_hat + 1
    if n <= guard_span:
        raise GuardWidthError(
            f"Doppler guard spans {guard_span} bins, frame only has {n}")
    # Pilot interference constant: every user's data spreads its link
    # power over the N Doppler bins, minus the share of user q's own data
    # that falls inside its guard. With g < N this is at least
    # P_q (N - g) / N^2 > 0.
    link_power = beta_paths.sum(axis=2)  # (P, Q)
    xi = link_power.sum(axis=1, keepdims=True) / n - guard_span / n**2 * link_power
    rho_p = plan.pilot_power
    c = mmse_coeff(beta_paths, rho_p, rho_u, xi[..., None])
    gamma = np.sqrt(rho_p) * beta_paths * c
    return LinkStats(beta=beta_paths, mmse_c=c, gamma=gamma, xi=xi,
                     rho_p=rho_p, rho_u=rho_u)


def sample_estimate(beta, gamma, seed=None, size=None):
    """Draw a (true gain, estimate) pair consistent with MMSE statistics.

    The estimate and the estimation error are independent complex normals
    with variances gamma and beta - gamma; their sum is the true gain.
    Returns (gain, estimate).
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0) or np.any(gamma > beta * (1 + 1e-12)):
        raise EstimateStatisticsError(
            "estimate variance must satisfy 0 <= gamma <= beta")
    rng = as_rng(seed)
    h_hat = sample_cn(rng, gamma, size)
    err = sample_cn(rng, np.maximum(beta - gamma, 0.0), size)
    return h_hat + err, h_hat
