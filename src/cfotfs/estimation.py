"""Embedded-pilot channel estimation statistics.

Each user transmits one pilot symbol surrounded by zero guard bins; the
received guard region yields per-path observations whose linear MMSE
coefficient, estimate variance and residual interference constant are
computed in closed form from the network's large-scale coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OtfsGrid
from .exceptions import EstimateStatisticsError, GuardWidthError
from .rng import as_rng, cn_from_normals


def _doppler_guard_span(k_max: int, k_hat: int) -> int:
    """Doppler bins of one pilot's guard, 4*k_max + 4*k_hat + 1, where
    k_hat widens it against fractional-Doppler spreading."""
    if min(k_max, k_hat) < 0:
        raise ValueError("guard widths must be non-negative")
    return 4 * k_max + 4 * k_hat + 1


def check_doppler_guard(k_max: int, k_hat: int, grid: OtfsGrid) -> int:
    """The Doppler guard span, raising GuardWidthError unless the frame's
    N Doppler bins leave room for data beside it."""
    guard_span = _doppler_guard_span(k_max, k_hat)
    if grid.doppler_bins <= guard_span:
        raise GuardWidthError(f"Doppler guard spans {guard_span} bins, "
                              f"frame only has {grid.doppler_bins}")
    return guard_span


def guard_overhead(l_max: int, k_max: int, k_hat: int) -> int:
    """Pilot plus guard bins consumed per user: 2*l_max+1 delay bins by
    the Doppler guard span."""
    if l_max < 0:
        raise ValueError("guard widths must be non-negative")
    return (2 * l_max + 1) * _doppler_guard_span(k_max, k_hat)


def mmse_coeff(beta, rho_p: float, rho_u: float, xi):
    """Linear MMSE coefficient for a per-path gain observed through the
    pilot: sqrt(rho_p)*beta / (rho_p*beta + rho_u*xi + 1).

    The estimate variance is gamma = sqrt(rho_p)*beta*c, which never
    exceeds beta.
    """
    beta = np.asarray(beta, dtype=float)
    bad = beta[~((beta > 0) & np.isfinite(beta))]
    if bad.size:
        raise ValueError(f"beta must be positive and finite, got {bad[0]}")
    if not 0 < rho_p < math.inf:  # NaN fails too
        raise ValueError("pilot power rho_p must be positive and finite, "
                         f"got {rho_p}")
    if not 0 <= rho_u < math.inf:
        raise ValueError("uplink power rho_u must be non-negative and "
                         f"finite, got {rho_u}")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("interference constant xi must be non-negative")
    return np.sqrt(rho_p) * beta / (rho_p * beta + rho_u * xi + 1.0)


@dataclass
class LinkStats:
    """Per-path estimation statistics for the whole network.

    Arrays are indexed [p, q, i] except xi, indexed [p, q]. gamma is the
    estimate variance sqrt(rho_p)*beta*c; beta - gamma is the error
    variance. The pipeline reads beta and gamma; mmse_c and xi are the
    intermediates gamma is formed from, kept so that tests check each
    against its own formula.
    """

    beta: np.ndarray
    mmse_c: np.ndarray
    gamma: np.ndarray
    xi: np.ndarray

    @property
    def n_aps(self) -> int:
        return self.beta.shape[0]

    @property
    def n_users(self) -> int:
        return self.beta.shape[1]


def compute_link_stats(beta_paths: np.ndarray, k_max: int, k_hat: int,
                       rho_p: float, rho_u: float, grid: OtfsGrid) -> LinkStats:
    """MMSE statistics for every (AP, user, path) from the per-path
    variance tensor beta_paths[p, q, i], with each user's embedded pilot
    sent at power rho_p inside a Doppler guard set by k_max and k_hat."""
    beta_paths = np.asarray(beta_paths, dtype=float)
    if beta_paths.ndim != 3:
        raise ValueError("path variances must be shaped (AP, user, path), "
                         f"got shape {beta_paths.shape}")
    n = grid.doppler_bins
    guard_span = check_doppler_guard(k_max, k_hat, grid)
    # Pilot interference constant: every user's data spreads its link
    # power over the N Doppler bins, minus the share of user q's own data
    # that falls inside its guard. With g < N this is at least
    # P_q (N - g) / N^2 > 0.
    link_power = beta_paths.sum(axis=2)  # (P, Q)
    xi = link_power.sum(axis=1, keepdims=True) / n - guard_span / n**2 * link_power
    c = mmse_coeff(beta_paths, rho_p, rho_u, xi[..., None])
    gamma = np.sqrt(rho_p) * beta_paths * c
    return LinkStats(beta=beta_paths, mmse_c=c, gamma=gamma, xi=xi)


def check_estimate_variances(beta, gamma) -> None:
    """Raise EstimateStatisticsError unless beta is finite and
    0 <= gamma <= beta (to 1e-12 relative) everywhere, which also rejects
    a NaN or infinite gamma."""
    if not np.all(np.isfinite(beta) & (gamma >= 0)
                  & (gamma <= beta * (1 + 1e-12))):
        raise EstimateStatisticsError(
            "estimate variance must satisfy 0 <= gamma <= beta, both finite")


def sample_estimate(beta, gamma, seed=None, trials=1):
    """Draw (true gain, estimate) pairs consistent with MMSE statistics.

    The estimate and the estimation error are independent complex normals
    with variances gamma and beta - gamma; their sum is the true gain.
    beta and gamma are (..., L) arrays (0-d for one path). One
    standard_normal(links + (4, trials, L)) call holds each link's
    estimate parts, then its error parts: the stream of one call per link
    in row-major order. Returns (gain, estimate), shaped (..., trials, L).
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    check_estimate_variances(beta, gamma)
    axis = max(beta.ndim - 1, 0)
    links, paths = beta.shape[:axis], beta.shape[axis:]
    z = as_rng(seed).standard_normal(links + (4, trials) + paths)
    re_hat, im_hat, re_err, im_err = np.moveaxis(z, axis, 0)
    h_hat = cn_from_normals(gamma.reshape(links + (1,) + paths), re_hat, im_hat)
    err_var = np.maximum(beta - gamma, 0.0).reshape(links + (1,) + paths)
    return h_hat + cn_from_normals(err_var, re_err, im_err), h_hat
