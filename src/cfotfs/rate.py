"""Conjugate-beamforming power control and the closed-form per-user
downlink SINR and achievable rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import OtfsGrid, PathSet
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
    """Per-user result: the SINR (the same at every DD bin), spectral
    efficiency and throughput, the total bandwidth M*delta_f times the
    spectral efficiency with no overhead discount."""

    sinr: float
    rate_bps_hz: float
    throughput_bps: float


def check_index(kind: str, index: int, size: int) -> None:
    """Raise ValueError naming a user or bin index outside [0, size)."""
    if not 0 <= index < size:
        raise ValueError(f"{kind} index {index} outside 0..{size - 1}")


def _user_terms(q: int, stats: LinkStats, pc: PowerControl, chi, kappa):
    """SINR building blocks of user q, given the (P, L, L) coefficient
    tables chi and kappa of its links; the only code that forms them.

    Returns (ds, bu, isi, iui): the desired-signal mean, the
    beamforming-uncertainty and inter-symbol interference powers, and the
    inter-user power, all normalized by the downlink SNR. None depends on
    the DD bin.
    """
    eta_q = pc.eta[:, q]
    gamma_q = stats.gamma[:, q, :]
    beta_q = stats.beta[:, q, :]
    bu = float(np.einsum("p,pi,pij,pj->", eta_q, beta_q, chi, gamma_q))
    isi = float(np.einsum("p,pi,pij,pj->", eta_q, beta_q, kappa, gamma_q))
    ds = float(np.sum(np.sqrt(eta_q)[:, None] * gamma_q))
    # Other users' precoders: eta' * (sum_i beta_pq,i) * (sum_j gamma_pq',j).
    gamma_sums = stats.gamma.sum(axis=2)  # (P, Q)
    others = np.einsum("pq,pq->p", pc.eta, gamma_sums) - eta_q * gamma_sums[:, q]
    iui = float(np.sum(beta_q.sum(axis=1) * others))
    return ds, bu, isi, iui


def assemble_sinr(ds: float, interference, rho_d: float):
    """SINR from the desired-signal mean and the total interference power,
    both normalized by the downlink SNR rho_d."""
    return rho_d * ds**2 / (rho_d * np.asarray(interference) + 1.0)


def closed_form_terms(q: int, r: int, stats: LinkStats, pc: PowerControl,
                      pathsets: PathSet, grid: OtfsGrid):
    """The four SINR terms of user q at bin r (desired-signal mean,
    beamforming-uncertainty variance, inter-symbol and inter-user
    interference powers), normalized by the downlink SNR. One coefficient
    call covers every AP of the user. Used by the Monte Carlo validator."""
    check_index("bin", r, grid.size)
    check_index("user", q, stats.n_users)
    links = np.s_[:, q]
    chi, kappa = chi_kappa_tables(pathsets.delay_taps[links],
                                  pathsets.doppler[links], grid.doppler_bins)
    return _user_terms(q, stats, pc, chi, kappa)


def _report(terms, rho_d: float, grid: OtfsGrid) -> RateReport:
    ds, bu, isi, iui = terms
    sinr = assemble_sinr(ds, bu + isi + iui, rho_d)
    rate = float(np.log2(1.0 + sinr))
    return RateReport(sinr=float(sinr), rate_bps_hz=rate,
                      throughput_bps=rate * grid.bandwidth_hz)


def achievable_rate(q: int, stats: LinkStats, pc: PowerControl,
                    pathsets: PathSet, rho_d: float, grid: OtfsGrid) -> RateReport:
    """Per-user achievable rate log2(1 + SINR); the SINR is the same at
    every DD bin, so this is also the mean over all MN bins."""
    terms = closed_form_terms(q, 0, stats, pc, pathsets, grid)
    return _report(terms, rho_d, grid)


def rate_distinct_delays(q: int, stats: LinkStats, pc: PowerControl,
                         pathsets: PathSet, rho_d: float, grid: OtfsGrid) -> RateReport:
    """Fast path for links whose delay taps are pairwise distinct.

    Every cross-path pair then has (chi, kappa) = (0, 1) and every path
    paired with itself (1, 0): user q's tables are the constants (I, 1 - I)
    at every AP, with no coefficient computation. Raises DistinctDelayError
    naming the first link of user q that repeats a delay tap.
    """
    check_index("user", q, stats.n_users)
    taps = np.sort(pathsets.delay_taps[:, q], axis=1)
    repeats = np.any(taps[:, 1:] == taps[:, :-1], axis=1)
    if repeats.any():
        raise DistinctDelayError(
            f"link (ap={np.argmax(repeats)}, user={q}) repeats a delay tap")
    n_aps, n_paths = taps.shape
    eye = np.broadcast_to(np.eye(n_paths), (n_aps, n_paths, n_paths))
    return _report(_user_terms(q, stats, pc, eye, 1.0 - eye), rho_d, grid)
