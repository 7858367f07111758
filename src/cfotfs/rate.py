"""Conjugate-beamforming power control and the closed-form per-user
downlink SINR and achievable rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import OtfsGrid
from .estimation import LinkStats
from .exceptions import DistinctDelayError, PowerControlError
from .operators import chi_kappa_tables


@dataclass
class PowerControl:
    """Per-(AP, user) downlink power coefficients eta[p, q], constrained so
    that sum_q sum_i eta[p, q] * gamma[p, q, i] <= 1 at every AP."""

    eta: np.ndarray

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        if np.any(self.eta < 0):
            raise ValueError("power coefficients must be non-negative")


def equal_power_control(stats: LinkStats) -> PowerControl:
    """Full-power rule with identical coefficients across users at each AP:
    eta[p, :] = 1 / sum_q sum_i gamma[p, q, i], meeting the per-AP power
    constraint with equality."""
    totals = stats.gamma.sum(axis=(1, 2))
    if np.any(totals <= 0):
        raise PowerControlError(
            "an AP has zero total estimate variance; power rule undefined")
    eta = np.repeat((1.0 / totals)[:, None], stats.n_users, axis=1)
    return PowerControl(eta=eta)


def power_constraint_load(stats: LinkStats, pc: PowerControl) -> np.ndarray:
    """Per-AP value of sum_q sum_i eta*gamma (must not exceed 1)."""
    return np.einsum("pq,pqi->p", pc.eta, stats.gamma)


@dataclass
class RateReport:
    """Per-user result: SINR profile over the delay coordinate of the bin
    (length M, the SINR at bin r being entry r mod M; length 1 when the
    distinct-delay fast path applies), spectral efficiency and
    throughput."""

    user: int
    sinr: np.ndarray
    rate_bps_hz: float
    throughput_bps: float


def _signal_and_interuser(q: int, stats: LinkStats, pc: PowerControl):
    """Desired-signal mean of user q and the bin-independent power that
    the other users' precoders deliver to it, both normalized by the
    downlink SNR."""
    eta_q = pc.eta[:, q]
    ds = float(np.sum(np.sqrt(eta_q)[:, None] * stats.gamma[:, q, :]))
    # Other users' precoders: eta' * (sum_i beta_pq,i) * (sum_j gamma_pq',j).
    gamma_sums = stats.gamma.sum(axis=2)  # (P, Q)
    others = np.einsum("pq,pq->p", pc.eta, gamma_sums) - eta_q * gamma_sums[:, q]
    iui = float(np.sum(stats.beta[:, q, :].sum(axis=1) * others))
    return ds, iui


def _user_terms(q: int, stats: LinkStats, pc: PowerControl,
                pathsets: list, grid: OtfsGrid):
    """SINR building blocks for user q.

    Returns (ds, bu, isi, iui): the desired-signal mean, and the
    beamforming-uncertainty and inter-symbol interference profiles over
    the delay coordinate of the bin (both coefficients are constant in
    the Doppler coordinate), plus the bin-independent inter-user power.
    All are normalized by the downlink SNR.
    """
    m = grid.delay_bins
    eta_q = pc.eta[:, q]
    gamma_q = stats.gamma[:, q, :]
    beta_q = stats.beta[:, q, :]
    bu = np.zeros(m)
    isi = np.zeros(m)
    for p in range(stats.n_aps):
        chi, kappa = chi_kappa_tables(pathsets[p][q], grid)
        bu += eta_q[p] * np.einsum("i,ijr,j->r", beta_q[p], chi, gamma_q[p])
        isi += eta_q[p] * np.einsum("i,ijr,j->r", beta_q[p], kappa, gamma_q[p])
    ds, iui = _signal_and_interuser(q, stats, pc)
    return ds, bu, isi, iui


def assemble_sinr(ds: float, interference, rho_d: float):
    """SINR from the desired-signal mean and the total interference power,
    both normalized by the downlink SNR rho_d."""
    return rho_d * ds**2 / (rho_d * np.asarray(interference) + 1.0)


def sinr_profile(q: int, stats: LinkStats, pc: PowerControl, pathsets: list,
                 rho_d: float, grid: OtfsGrid) -> np.ndarray:
    """Closed-form SINR of user q over the delay coordinate (length M);
    the value at bin r is entry r mod M."""
    ds, bu, isi, iui = _user_terms(q, stats, pc, pathsets, grid)
    return assemble_sinr(ds, bu + isi + iui, rho_d)


def sinr_bin(q: int, r: int, stats: LinkStats, pc: PowerControl,
             pathsets: list, rho_d: float, grid: OtfsGrid) -> float:
    """Closed-form SINR of user q at DD bin r."""
    if not 0 <= r < grid.size:
        raise ValueError("bin index outside grid")
    return float(sinr_profile(q, stats, pc, pathsets, rho_d, grid)[r % grid.delay_bins])


def closed_form_terms(q: int, r: int, stats: LinkStats, pc: PowerControl,
                      pathsets: list, grid: OtfsGrid):
    """The four SINR terms of user q at bin r (desired-signal mean,
    beamforming-uncertainty variance, inter-symbol and inter-user
    interference powers), normalized by the downlink SNR. Used by the
    Monte Carlo validator."""
    ds, bu, isi, iui = _user_terms(q, stats, pc, pathsets, grid)
    r2 = r % grid.delay_bins
    return ds, float(bu[r2]), float(isi[r2]), iui


def throughput(report_or_rate, grid: OtfsGrid) -> float:
    """Throughput in bit/s: total bandwidth M*delta_f times spectral
    efficiency. No overhead discount is applied."""
    rate = getattr(report_or_rate, "rate_bps_hz", report_or_rate)
    return grid.bandwidth_hz * float(rate)


def achievable_rate(q: int, stats: LinkStats, pc: PowerControl,
                    pathsets: list, rho_d: float, grid: OtfsGrid) -> RateReport:
    """Per-user achievable rate: mean of log2(1 + SINR) over all MN bins."""
    sinr = sinr_profile(q, stats, pc, pathsets, rho_d, grid)
    # Every Doppler coordinate repeats the profile, so its mean is the
    # mean over all MN bins.
    rate = float(np.mean(np.log2(1.0 + sinr)))
    return RateReport(user=q, sinr=sinr, rate_bps_hz=rate,
                      throughput_bps=rate * grid.bandwidth_hz)


def rate_distinct_delays(q: int, stats: LinkStats, pc: PowerControl,
                         pathsets: list, rho_d: float, grid: OtfsGrid) -> RateReport:
    """Fast path for links whose delay taps are pairwise distinct.

    Cross-path products then contribute no diagonal power and exactly unit
    row-sum power, so the SINR loses its bin dependence and needs no
    coefficient computation. Raises DistinctDelayError when a path set of
    user q repeats a delay tap.
    """
    for p in range(stats.n_aps):
        if not pathsets[p][q].has_distinct_delays():
            raise DistinctDelayError(
                f"link (ap={p}, user={q}) repeats a delay tap")
    ds, iui = _signal_and_interuser(q, stats, pc)
    intra = float(np.sum(pc.eta[:, q] * stats.beta[:, q, :].sum(axis=1)
                         * stats.gamma[:, q, :].sum(axis=1)))
    sinr = assemble_sinr(ds, intra + iui, rho_d)
    rate = float(np.log2(1.0 + sinr))
    return RateReport(user=q, sinr=np.array([sinr]), rate_bps_hz=rate,
                      throughput_bps=rate * grid.bandwidth_hz)
