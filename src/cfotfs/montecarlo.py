"""Matrix-level Monte Carlo oracle for the closed-form SINR.

Freezes taps (hence the dense path operators T), resamples estimated gains
and estimation errors trial by trial, and accumulates the four
received-signal terms whose closed forms the rate module evaluates:
desired-signal mean, precoding gain uncertainty, inter-symbol and
inter-user interference. Only row r of each channel product enters them,
so the oracle precomputes the row products T_pq,i[r, :] T_pq',j^H from the
dense operators and combines them with each trial's gains; it never forms
a channel matrix, and it draws the gains in the same order (batch, AP,
user) as a computation with explicit channel matrices would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import rate as rate_mod
from .channel import OtfsGrid, PathSet, sample_all_paths
from .estimation import LinkStats, compute_link_stats, sample_estimate
from .geometry import NetworkConfig, apply_shadowing, place_network
from .operators import dd_operator
from .rng import as_int_seed, as_rng, substream


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
                    l_max: int = None, k_max: int = 0,
                    fractional: bool = True,
                    distinct_delays: bool = False) -> ValidationInstance:
    """Random geometry, paths and estimation statistics for validation.

    Runs the same pipeline as the experiment driver (placement, shadowing,
    path sampling, MMSE statistics, equal power control) on a
    grid small enough for dense channel matrices, over the default
    network area and with a pilot guard set by k_max alone (k_hat = 0).
    """
    rng = as_rng(seed)
    l_max = grid.delay_bins - 1 if l_max is None else l_max
    net = NetworkConfig(num_aps=n_aps, num_users=n_users)
    layout = apply_shadowing(place_network(net, rng), net, rng)
    pathsets = sample_all_paths(layout.beta_pair, n_paths, l_max, k_max,
                                grid, rng, fractional=fractional,
                                distinct_delays=distinct_delays)
    stats = compute_link_stats(pathsets.variances, k_max, 0, rho_p, rho_u,
                               grid)
    pc = rate_mod.equal_power_control(stats)
    return ValidationInstance(grid=grid, pathsets=pathsets, stats=stats,
                              pc=pc, rho_d=rho_d)


# Trials are split into this many batches; standard errors come from the
# spread of the per-batch statistics.
BATCHES = 10


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

    def empirical_sinr(self, rho_d: float) -> float:
        denom = self.bu_var + self.isi_power + self.iui_power + 1.0 / rho_d
        return float(abs(self.ds) ** 2 / denom)


def estimate_terms(instance: ValidationInstance, q: int, r: int, trials: int,
                   seed=None) -> TermEstimates:
    """Estimate the four SINR terms of user q at bin r by simulation.

    The precoding for user q' reaches user q at bin r as the row
    sum_p sqrt(eta_pq') sum_ij h_pq,i conj(hhat_pq',j) T_pq,i[r, :] T_pq',j^H.
    The row products are built once per call, one AP's dense operators at
    a time, so a trial costs O(L^2 MN) per link. Per trial, every link
    draws a consistent (gain, estimate) pair through the orthogonal MMSE
    decomposition, AP by AP and user by user. Each batch of trials draws
    from its own substream, so the estimates do not depend on execution
    order. An integer seed keys the substreams directly; a Generator (or
    None) draws that key.
    """
    grid = instance.grid
    stats, pc, paths = instance.stats, instance.pc, instance.pathsets
    if not 0 <= r < grid.size:
        raise ValueError("bin index outside grid")
    per_batch = trials // BATCHES
    if per_batch < 1:
        raise ValueError("trials must be at least the number of batches")
    n_aps, n_users, n_paths = paths.delay_taps.shape

    # rows[p, q', i, j] = T_pq,i[r, :] T_pq',j^H, one AP's operators at a time.
    rows = np.empty((n_aps, n_users, n_paths, n_paths, grid.size), dtype=complex)
    ops = np.empty((n_users, n_paths, grid.size, grid.size), dtype=complex)
    doppler = paths.doppler()
    for p in range(n_aps):
        for k, i in np.ndindex(n_users, n_paths):
            ops[k, i] = dd_operator(paths.delay_taps[p, k, i],
                                    doppler[p, k, i], grid)
        rows[p] = np.einsum("ic,kjdc->kijd", ops[q, :, r, :].conj(), ops).conj()
    seed = as_int_seed(seed)

    ds_b = np.zeros(BATCHES, dtype=complex)
    bu_b, isi_b, iui_b = np.zeros((3, BATCHES))
    for b in range(BATCHES):
        rng = substream(seed, b)
        # (P, Q, 2, trials, L): true gains and estimates of every link.
        draws = np.array([[sample_estimate(stats.beta[p, k], stats.gamma[p, k],
                                           rng, size=(per_batch, n_paths))
                           for k in range(n_users)] for p in range(n_aps)])
        h, h_hat = draws[:, q, 0], draws[:, :, 1]
        # g[q', t]: bin-r row received by user q when precoding for q'.
        g = np.einsum("pk,pti,pktj,pkijd->ktd", np.sqrt(pc.eta),
                      h, h_hat.conj(), rows, optimize=True)
        a = g[q, :, r]
        ds_b[b] = a.mean()
        bu_b[b] = a.var(ddof=1)
        isi_b[b] = (np.abs(g[q]) ** 2).sum(axis=1).mean() - (np.abs(a) ** 2).mean()
        iui_b[b] = (np.abs(np.delete(g, q, axis=0)) ** 2).sum(axis=(0, 2)).mean()

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(BATCHES))

    return TermEstimates(
        ds=complex(ds_b.mean()), ds_se=se(ds_b),
        bu_var=float(bu_b.mean()), bu_se=se(bu_b),
        isi_power=float(isi_b.mean()), isi_se=se(isi_b),
        iui_power=float(iui_b.mean()), iui_se=se(iui_b),
        trials=per_batch * BATCHES,
    )


@dataclass
class BinCheck:
    """Closed form vs simulation at one (user, bin)."""

    user: int
    bin: int
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

    def to_dict(self) -> dict:
        """JSON-ready summary: verdict, gate, trials, worst error, the
        per-user bin-dependence flags and every check's fields."""
        return {
            "passed": self.passed,
            "gate": self.gate,
            "trials": self.trials,
            "max_rel_error": self.max_rel_error,
            "bin_dependence": {str(k): v for k, v in self.bin_dependence.items()},
            "checks": [asdict(c) for c in self.checks],
        }


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
    seed = as_int_seed(seed)
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
                user=q, bin=r, sinr_closed=sinr_cf, sinr_empirical=sinr_emp,
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
