"""Matrix-level Monte Carlo oracle for the closed-form SINR.

Freezes taps (hence the path operators T), resamples estimated gains and
estimation errors trial by trial, and accumulates the four
received-signal terms whose closed forms the rate module evaluates:
desired-signal mean, precoding gain uncertainty, inter-symbol and
inter-user interference. Only row r of each channel product enters them,
so once per call the oracle builds the row products T_pq,i[r, :] T_pq',j^H
from the paths' N x N Doppler blocks (operators.dd_blocks: row r of T is
nonzero in one delay column only), never from dense MN x MN operators,
on the D <= min(M, 2 l_max + 1) delay rows they occupy; a trial then
costs O(P L^2 D N) per user. It never forms a channel matrix, and each
batch draws all its gains with one sample_estimate call, in the same
order (AP, user) as a computation with explicit channel matrices would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import rate as rate_mod
from .channel import OtfsGrid, PathSet
from .estimation import sample_estimate
from .experiments import ChannelParams, realize_links
from .geometry import NetworkConfig
from .operators import dd_blocks
from .rng import as_int_seed, as_rng, substream


def random_instance(grid: OtfsGrid, n_aps: int, n_users: int, n_paths: int,
                    rho_d: float, rho_u: float, rho_p: float, seed=None, *,
                    l_max: int = None, k_max: int = 0,
                    fractional: bool = True,
                    distinct_delays: bool = False) -> rate_mod.Realization:
    """A random realization for validation.

    Runs the experiment driver's realization (experiments.realize_links)
    on a grid small enough for dense channel matrices, over the default
    network area and with a pilot guard set by k_max alone (k_hat = 0).
    """
    l_max = grid.delay_bins - 1 if l_max is None else l_max
    channel = ChannelParams(n_paths=n_paths, l_max=l_max, k_max=k_max,
                            k_hat=0, fractional=fractional,
                            distinct_delays=distinct_delays)
    return realize_links(NetworkConfig(num_aps=n_aps, num_users=n_users),
                         grid, channel, rho_d, rho_u, rho_p, as_rng(seed))


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

    @property
    def interference(self) -> float:
        return self.bu_var + self.isi_power + self.iui_power

    def empirical_sinr(self, rho_d: float) -> float:
        return float(rate_mod.assemble_sinr(abs(self.ds), self.interference,
                                            rho_d))


def _row_products(paths: PathSet, grid: OtfsGrid, q: int, r: int):
    """(R_q[:, r], R_q' for every user q') of the bin-r row products
    R_q'[(p, i, j), :] = T_pq,i[r, :] T_pq',j^H. Row r = r1*M + r2 of
    T_pq,i is row r1 of its Doppler block at column c2 = (r2 - l_i) mod M
    and zero elsewhere, so a row product is N values at delay row
    (c2 + l_j) mod M, from one dd_blocks call of P Q L L blocks. R_q'
    keeps the D <= min(M, 2 l_max + 1) delay rows that occur: (P L^2, N D).
    """
    m = grid.delay_bins
    r1, r2 = divmod(r, m)
    taps, doppler = paths.delay_taps, paths.doppler
    cols = (r2 - taps[:, q]) % m
    # blocks[p, q', i, j] = block of T_pq',j at user q's column cols[p, i].
    blocks = dd_blocks(taps[:, :, None, :], doppler[:, :, None, :],
                       cols[:, None, :, None], grid)
    # Conjugating user q's rows (i = j), not the blocks, saves a copy.
    values = np.einsum("piin,pkijcn->kpijc", blocks[:, q, :, :, r1].conj(),
                       blocks).conj()
    # By delay row, not by offset l_j - l_i: offsets M apart share a row.
    absolute = (cols[..., None] + taps.swapaxes(0, 1)[:, :, None]) % m
    delay_rows, inverse = np.unique(absolute, return_inverse=True)
    rows = np.zeros(values.shape + (delay_rows.size,), dtype=complex)
    np.put_along_axis(rows, inverse.reshape(absolute.shape + (1, 1)),
                      values[..., None], axis=-1)
    rows = rows.reshape(len(rows), -1, grid.doppler_bins * delay_rows.size)
    at_r = r1 * delay_rows.size + np.searchsorted(delay_rows, r2)
    return rows[q, :, at_r], rows


def estimate_terms(instance: rate_mod.Realization, q: int, r: int,
                   trials: int, seed=None) -> TermEstimates:
    """Estimate the four SINR terms of user q at bin r by simulation.

    The precoding for user q' reaches user q at bin r as the row
    g_q' = c_q' R_q', with per-trial coefficients
    c_q'[(p, i, j)] = sqrt(eta_pq') h_pq,i conj(hhat_pq',j) and row
    products R_q'[(p, i, j), :] = T_pq,i[r, :] T_pq',j^H. Once per call,
    _row_products builds them from the paths' Doppler blocks, on the
    D <= min(M, 2 l_max + 1) delay rows they occupy. A trial's bin-r sample
    is c_q R_q[:, r] and its row energy ||c_q' R_q'||^2: O(P L^2 D N) per
    user and trial. Each batch of trials draws every (gain, estimate) pair
    with one sample_estimate call on its own substream, so the estimates
    do not depend on execution order. An integer seed keys the substreams
    directly; a Generator (or None) draws that key. Raises ValueError for
    fewer than 2 * BATCHES trials, since each batch needs a sample
    variance, and EstimateStatisticsError unless 0 <= gamma <= beta.
    """
    grid = instance.grid
    stats, pc, paths = instance.stats, instance.pc, instance.pathsets
    rate_mod.check_index("user", q, stats.n_users)
    rate_mod.check_index("bin", r, grid.size)
    if trials < 2 * BATCHES:
        raise ValueError(f"trials must be at least {2 * BATCHES} (two per "
                         f"batch), got {trials}")
    per_batch = trials // BATCHES
    column, rows = _row_products(paths, grid, q, r)
    n_users = stats.n_users
    seed = as_int_seed(seed)
    scales = np.sqrt(pc.eta)

    a = np.empty((BATCHES, per_batch), dtype=complex)
    energy = np.empty((BATCHES, n_users, per_batch))
    for b in range(BATCHES):
        h, h_hat = sample_estimate(stats.beta, stats.gamma, substream(seed, b),
                                   trials=per_batch)
        coef = np.einsum("pk,pti,pktj->ktpij", scales, h[:, q],
                         h_hat.conj()).reshape(n_users, per_batch, -1)
        a[b] = coef[q] @ column
        # energy[b, q', t] = sum_d |g_q',d|^2 of trial t.
        g = (coef @ rows).view(float)
        energy[b] = np.einsum("ktd,ktd->kt", g, g)
    ds_b = a.mean(axis=1)
    bu_b = a.var(axis=1, ddof=1)
    isi_b = energy[:, q].mean(axis=1) - (np.abs(a) ** 2).mean(axis=1)
    iui_b = np.delete(energy, q, axis=1).sum(axis=1).mean(axis=1)

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


def validate_rate(instance: rate_mod.Realization, trials: int, seed=None,
                  gate: float = 0.05, bins=None, users=None) -> ValidationReport:
    """Compare closed-form SINR against the simulation oracle.

    Checks every requested (user, bin): each of the four terms against its
    3-standard-error band and the assembled SINR against the relative
    gate. Also flags, per user, empirical SINR spread across bins that
    exceeds the statistical noise scale. Each (user, bin) simulates from
    the integer master seed offset by 7919 q + 104729 r; a Generator (or
    None) draws that master. Raises ValueError unless the gate is positive
    and finite.
    """
    if not 0.0 < gate < np.inf:
        raise ValueError(f"gate must be positive and finite, got {gate!r}")
    grid = instance.grid
    users = range(instance.stats.n_users) if users is None else users
    bins = _default_bins(grid) if bins is None else list(bins)
    seed = as_int_seed(seed)
    # estimate_terms runs whole batches of trials.
    report = ValidationReport(gate=gate, trials=trials // BATCHES * BATCHES)
    for q in users:
        # The closed form takes the same value at every bin.
        ds_cf, bu_cf, isi_cf, iui_cf = rate_mod.closed_form_terms(
            q, 0, instance.stats, instance.pc, instance.pathsets, grid)
        sinr_cf = float(rate_mod.assemble_sinr(
            ds_cf, bu_cf + isi_cf + iui_cf, instance.rho_d))
        closed = {"ds": ds_cf, "bu": bu_cf, "isi": isi_cf, "iui": iui_cf}
        emp_sinrs = []
        noise_scales = []
        for r in bins:
            est = estimate_terms(instance, q, r, trials,
                                 seed=seed + 7919 * q + 104729 * r)
            sinr_emp = est.empirical_sinr(instance.rho_d)
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
            se_den = np.sqrt(est.bu_se**2 + est.isi_se**2 + est.iui_se**2)
            noise_scales.append(sinr_emp * (
                2 * est.ds_se / max(abs(est.ds), 1e-300)
                + se_den / (est.interference + 1.0 / instance.rho_d)))
        spread = max(emp_sinrs) - min(emp_sinrs)
        report.bin_dependence[q] = bool(spread > 6.0 * max(noise_scales))
    return report
