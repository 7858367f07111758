"""Matrix-level Monte Carlo oracle for the closed-form SINR.

Freezes taps (hence the path operators), resamples estimated gains and
estimation errors trial by trial, builds the true and estimated channel
matrices explicitly, and accumulates the four received-signal terms whose
closed forms the rate module evaluates: desired-signal mean, precoding
gain uncertainty, inter-symbol and inter-user interference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rate as rate_mod
from .channel import OtfsGrid, PathSet, sample_all_paths
from .estimation import LinkStats, compute_link_stats, sample_estimate
from .geometry import NetworkConfig, apply_shadowing, place_network
from .operators import dd_operator
from .rng import as_rng, substream


@dataclass
class ValidationInstance:
    """Frozen geometry and statistics for one validation run."""

    grid: OtfsGrid
    pathsets: PathSet
    stats: LinkStats
    pc: rate_mod.PowerControl
    rho_d: float


def random_instance(grid: OtfsGrid, n_aps: int, n_users: int, n_paths: int,
                    rho_d: float, rho_u: float, rho_p: float, seed=None, *,
                    l_max: int = None, k_max: int = 0, k_hat: int = 0,
                    fractional: bool = True, distinct_delays: bool = False,
                    area_side_km: float = 1.0) -> ValidationInstance:
    """Random geometry, paths and estimation statistics for validation.

    Runs the same pipeline as the experiment driver (placement, shadowing,
    path sampling, MMSE statistics, equal power control) on a
    grid small enough for dense channel matrices.
    """
    rng = as_rng(seed)
    l_max = grid.delay_bins - 1 if l_max is None else l_max
    net = NetworkConfig(num_aps=n_aps, num_users=n_users,
                        area_side_km=area_side_km)
    layout = apply_shadowing(place_network(net, rng), net, rng)
    pathsets = sample_all_paths(layout.beta_pair, n_paths, l_max, k_max,
                                grid, rng, fractional=fractional,
                                distinct_delays=distinct_delays)
    stats = compute_link_stats(pathsets.variances, k_max, k_hat, rho_p, rho_u,
                               grid)
    pc = rate_mod.equal_power_control(stats)
    return ValidationInstance(grid=grid, pathsets=pathsets, stats=stats,
                              pc=pc, rho_d=rho_d)


@dataclass
class TermEstimates:
    """Sample estimates of the four SINR terms with batch-means standard
    errors. All interference terms are normalized by the downlink SNR."""

    ds: complex
    ds_se: float
    bu_var: float
    bu_se: float
    isi_power: float
    isi_se: float
    iui_power: float
    iui_se: float
    trials: int
    low_trials: bool

    def empirical_sinr(self, rho_d: float) -> float:
        denom = self.bu_var + self.isi_power + self.iui_power + 1.0 / rho_d
        return float(abs(self.ds) ** 2 / denom)


def estimate_terms(instance: ValidationInstance, q: int, r: int, trials: int,
                   seed=None, batches: int = 10) -> TermEstimates:
    """Estimate the four SINR terms of user q at bin r by simulation.

    Per trial, every link draws a consistent (gain, estimate) pair through
    the orthogonal MMSE decomposition; the bin-r row of the user's true
    channel is paired against every user's estimated channel matrix.
    Trials are split into batches with independent substreams, so the
    estimates do not depend on execution order; standard errors come from
    the spread of the per-batch statistics. An integer seed keys the
    substreams directly; a Generator (or None) draws that key.
    """
    grid = instance.grid
    stats, pc = instance.stats, instance.pc
    mn = grid.size
    if not 0 <= r < mn:
        raise ValueError("bin index outside grid")
    if batches < 2:
        raise ValueError("need at least two batches for standard errors")
    n_aps, n_users = stats.n_aps, stats.n_users
    per_batch = trials // batches
    if per_batch < 1:
        raise ValueError("trials must be at least the number of batches")

    # Dense operator of every (AP, user, path), shaped (P, Q, L, MN, MN).
    paths = instance.pathsets
    t_stacks = np.empty(paths.delay_taps.shape + (mn, mn), dtype=complex)
    for index in np.ndindex(*paths.delay_taps.shape):
        t_stacks[index] = dd_operator(paths.path(*index), grid)
    if not isinstance(seed, (int, np.integer)):
        seed = int(as_rng(seed).integers(2**63))

    ds_b = np.zeros(batches, dtype=complex)
    bu_b = np.zeros(batches)
    isi_b = np.zeros(batches)
    iui_b = np.zeros(batches)
    for b in range(batches):
        rng = substream(seed, b)
        g_own = np.zeros((per_batch, mn), dtype=complex)
        g_cross = np.zeros((n_users, per_batch, mn), dtype=complex)
        for p in range(n_aps):
            row_h = None
            hats = []
            for qp in range(n_users):
                h, h_hat = sample_estimate(stats.beta[p, qp],
                                           stats.gamma[p, qp], rng,
                                           size=(per_batch, stats.beta.shape[2]))
                hats.append(h_hat)
                if qp == q:
                    # Bin-r row of the true channel H_pq.
                    row_h = np.einsum("ti,ic->tc", h, t_stacks[p, q, :, r, :])
            for qp in range(n_users):
                h_hat_full = np.einsum("ti,iab->tab", hats[qp], t_stacks[p, qp])
                v = np.einsum("tc,tdc->td", row_h, h_hat_full.conj())
                if qp == q:
                    g_own += np.sqrt(pc.eta[p, q]) * v
                else:
                    g_cross[qp] += np.sqrt(pc.eta[p, qp]) * v
        a = g_own[:, r]
        ds_b[b] = a.mean()
        bu_b[b] = a.var(ddof=1)
        isi_b[b] = (np.abs(g_own) ** 2).sum(axis=1).mean() - (np.abs(a) ** 2).mean()
        iui_b[b] = (np.abs(g_cross) ** 2).sum(axis=(0, 2)).mean()

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(batches))

    ds = complex(ds_b.mean())
    return TermEstimates(
        ds=ds, ds_se=float(np.sqrt((np.abs(ds_b - ds) ** 2).sum()
                                   / (batches - 1) / batches)),
        bu_var=float(bu_b.mean()), bu_se=se(bu_b),
        isi_power=float(isi_b.mean()), isi_se=se(isi_b),
        iui_power=float(iui_b.mean()), iui_se=se(iui_b),
        trials=per_batch * batches, low_trials=trials < 100,
    )


@dataclass
class BinCheck:
    """Closed form vs simulation at one (user, bin)."""

    user: int
    dd_bin: int
    sinr_closed: float
    sinr_empirical: float
    rel_error: float
    terms_closed: dict
    terms_empirical: dict
    term_std_errors: dict
    terms_within_3se: dict


@dataclass
class ValidationReport:
    """Outcome of a closed-form-vs-oracle run."""

    gate: float
    trials: int
    checks: list = field(default_factory=list)
    bin_dependence: dict = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max((c.rel_error for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.rel_error <= self.gate for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "passed": self.passed,
            "gate": self.gate,
            "trials": self.trials,
            "max_rel_error": self.max_rel_error,
            "bin_dependence": {str(k): v for k, v in self.bin_dependence.items()},
            "checks": [
                {
                    "user": c.user,
                    "bin": c.dd_bin,
                    "sinr_closed": c.sinr_closed,
                    "sinr_empirical": c.sinr_empirical,
                    "rel_error": c.rel_error,
                    "terms_closed": c.terms_closed,
                    "terms_empirical": c.terms_empirical,
                    "term_std_errors": c.term_std_errors,
                    "terms_within_3se": c.terms_within_3se,
                }
                for c in self.checks
            ],
        }, indent=2)


def _default_bins(grid: OtfsGrid, limit: int = 8) -> list:
    """Bins spread across both coordinates: all of them on small grids,
    otherwise a deterministic sample mixing delay and Doppler offsets."""
    if grid.size <= 2 * limit:
        return list(range(grid.size))
    m = grid.delay_bins
    picks = {0, m // 2, m - 1, m * (grid.doppler_bins // 2),
             m * (grid.doppler_bins // 2) + m // 2, grid.size - 1}
    step = max(grid.size // limit, 1)
    picks.update(range(0, grid.size, step))
    return sorted(picks)[:2 * limit]


def validate_rate(instance: ValidationInstance, trials: int, seed=None,
                  gate: float = 0.05, bins=None, users=None) -> ValidationReport:
    """Compare closed-form SINR against the simulation oracle.

    Checks every requested (user, bin): each of the four terms against its
    3-standard-error band and the assembled SINR against the relative
    gate. Also flags, per user, empirical SINR spread across bins that
    exceeds the statistical noise scale. Each (user, bin) simulates from
    the integer master seed offset by 7919 q + 104729 r; a Generator (or
    None) draws that master.
    """
    grid = instance.grid
    users = range(instance.stats.n_users) if users is None else users
    bins = _default_bins(grid) if bins is None else list(bins)
    if not isinstance(seed, (int, np.integer)):
        seed = int(as_rng(seed).integers(2**63))
    report = ValidationReport(gate=gate, trials=trials)
    for q in users:
        # The closed form takes the same value at every bin.
        ds_cf, bu_cf, isi_cf, iui_cf = rate_mod.closed_form_terms(
            q, 0, instance.stats, instance.pc, instance.pathsets, grid)
        sinr_cf = float(rate_mod.assemble_sinr(
            ds_cf, bu_cf + isi_cf + iui_cf, instance.rho_d))
        emp_sinrs = []
        noise_scales = []
        for r in bins:
            est = estimate_terms(instance, q, r, trials,
                                 seed=seed + 7919 * q + 104729 * r)
            sinr_emp = est.empirical_sinr(instance.rho_d)
            closed = {"ds": ds_cf, "bu": bu_cf, "isi": isi_cf, "iui": iui_cf}
            empirical = {"ds": est.ds.real, "bu": est.bu_var,
                         "isi": est.isi_power, "iui": est.iui_power}
            errors = {"ds": est.ds_se, "bu": est.bu_se,
                      "isi": est.isi_se, "iui": est.iui_se}
            within = {
                key: abs(empirical[key] - closed[key])
                <= 3.0 * errors[key] + 1e-15
                for key in closed
            }
            rel = abs(sinr_emp - sinr_cf) / sinr_cf if sinr_cf > 0 else abs(sinr_emp)
            report.checks.append(BinCheck(
                user=q, dd_bin=r, sinr_closed=sinr_cf, sinr_empirical=sinr_emp,
                rel_error=float(rel), terms_closed=closed,
                terms_empirical=empirical, term_std_errors=errors,
                terms_within_3se=within))
            emp_sinrs.append(sinr_emp)
            denom = est.bu_var + est.isi_power + est.iui_power + 1.0 / instance.rho_d
            se_den = np.sqrt(est.bu_se**2 + est.isi_se**2 + est.iui_se**2)
            noise_scales.append(sinr_emp * (2 * est.ds_se / max(abs(est.ds), 1e-300)
                                            + se_den / denom))
        spread = max(emp_sinrs) - min(emp_sinrs)
        report.bin_dependence[q] = bool(spread > 6.0 * max(noise_scales))
    return report
