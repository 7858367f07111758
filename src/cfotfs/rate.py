"""Conjugate-beamforming power control and the closed-form per-user
downlink SINR and achievable rate."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Realization:
    """One network realization: what the rate functions and oracle read.
    Frozen, since terms caches every user's SINR terms on first use."""

    grid: OtfsGrid
    pathsets: PathSet
    stats: LinkStats
    pc: PowerControl
    rho_d: float

    @cached_property
    def terms(self):
        """(ds, bu, isi, iui) of every user as (Q,) arrays, formed on first
        use from one chi_kappa_tables call over every link."""
        chi, kappa = chi_kappa_tables(self.pathsets.delay_taps,
                                      self.pathsets.doppler,
                                      self.grid.doppler_bins)
        return _user_terms(self.stats, self.pc, chi, kappa)


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


def _user_terms(stats: LinkStats, pc: PowerControl, chi, kappa):
    """SINR building blocks of every user, given the (P, Q, L, L)
    coefficient tables chi and kappa; the only code that forms them.

    Returns (ds, bu, isi, iui) as (Q,) arrays: the desired-signal mean,
    the beamforming-uncertainty and inter-symbol interference powers, and
    the inter-user power, all normalized by the downlink SNR. None depends
    on the DD bin.
    """
    eta, beta, gamma = pc.eta, stats.beta, stats.gamma
    weights = eta[..., None] * beta  # eta_pq beta_pq,i
    bu = np.einsum("pqi,pqij,pqj->q", weights, chi, gamma)
    isi = np.einsum("pqi,pqij,pqj->q", weights, kappa, gamma)
    ds = np.einsum("pq,pqi->q", np.sqrt(eta), gamma)
    # Other users' precoders: eta' * (sum_i beta_pq,i) * (sum_j gamma_pq',j).
    loads = eta * gamma.sum(axis=2)  # (P, Q)
    others = loads.sum(axis=1, keepdims=True) - loads
    iui = np.sum(beta.sum(axis=2) * others, axis=0)
    return ds, bu, isi, iui


def assemble_sinr(ds: float, interference, rho_d: float):
    """SINR from the desired-signal mean and the total interference power,
    both normalized by the downlink SNR rho_d."""
    return rho_d * ds**2 / (rho_d * np.asarray(interference) + 1.0)


def closed_form_terms(q: int, r: int, stats: LinkStats, pc: PowerControl,
                      pathsets: PathSet, grid: OtfsGrid):
    """The four SINR terms of user q at bin r (desired-signal mean,
    beamforming-uncertainty variance, inter-symbol and inter-user
    interference powers), normalized by the downlink SNR: user q's entries
    of Realization.terms, which no rho_d enters. Used by the Monte Carlo
    validator; the benchmark passes these six arguments positionally, the
    unused r too, so they stay until its revision (ROADMAP item 5)."""
    check_index("bin", r, grid.size)
    check_index("user", q, stats.n_users)
    terms = Realization(grid, pathsets, stats, pc, rho_d=np.nan).terms
    return tuple(float(t[q]) for t in terms)


def achievable_rate(q: int, realization: Realization) -> RateReport:
    """Per-user achievable rate log2(1 + SINR); the SINR is the same at
    every DD bin, so this is also the mean over all MN bins. Reads user
    q's entries of realization.terms."""
    check_index("user", q, realization.stats.n_users)
    ds, bu, isi, iui = (t[q] for t in realization.terms)
    sinr = float(assemble_sinr(ds, bu + isi + iui, realization.rho_d))
    rate = float(np.log2(1.0 + sinr))
    return RateReport(sinr=sinr, rate_bps_hz=rate,
                      throughput_bps=rate * realization.grid.bandwidth_hz)


def rate_distinct_delays(q: int, realization: Realization) -> RateReport:
    """achievable_rate after checking that user q's links have pairwise
    distinct delay taps; chi_kappa_tables returns exactly (I, 1 - I) on
    them and evaluates no Dirichlet kernel. Raises DistinctDelayError
    naming the first link of user q that repeats a delay tap.
    """
    check_index("user", q, realization.stats.n_users)
    taps = np.sort(realization.pathsets.delay_taps[:, q], axis=1)
    repeats = np.any(taps[:, 1:] == taps[:, :-1], axis=1)
    if repeats.any():
        raise DistinctDelayError(
            f"link (ap={np.argmax(repeats)}, user={q}) repeats a delay tap")
    return achievable_rate(q, realization)
