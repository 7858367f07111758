"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Statistical criteria run at fixed seeds so the whole suite is
deterministic; the trend criterion at full scale dominates the runtime
(a few minutes single-core, budget 30 minutes).
"""

import time

import numpy as np
import pytest
from dense_reference import per_bin_sinr

from cfotfs import experiments, montecarlo
from cfotfs.channel import OtfsGrid, max_doppler_index, sample_all_paths
from cfotfs.estimation import guard_overhead, mmse_coeff
from cfotfs.operators import verify_operator_identities
from cfotfs.rate import (achievable_rate, closed_form_terms,
                         power_constraint_load, rate_distinct_delays)


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def desk_validation_instance(seed, **kw):
    grid = OtfsGrid(doppler_bins=2, delay_bins=4)
    rho_d, rho_u, rho_p = experiments.normalized_powers(
        experiments.PowerParams(), grid)
    return montecarlo.random_instance(grid, n_aps=2, n_users=2, n_paths=2,
                                      rho_d=rho_d, rho_u=rho_u, rho_p=rho_p,
                                      seed=seed, **kw), rho_d


def test_criterion_01_operator_identities():
    started = time.monotonic()
    grid = OtfsGrid(doppler_bins=4, delay_bins=8)
    paths = sample_all_paths(np.ones(100), grid.delay_bins - 1,
                             grid.doppler_bins // 2 - 1, grid, seed=2026)
    result = verify_operator_identities(paths, grid, tol=1e-9)
    elapsed = time.monotonic() - started
    worst = max(result.unitarity_dev, result.diag_zero_dev,
                result.row_sum_dev)
    report(1, result.passed and elapsed < 10.0,
           f"100 paths on 8x4: unitarity {result.unitarity_dev:.2e}, "
           f"distinct-delay diagonal {result.diag_zero_dev:.2e} "
           f"({result.n_diag_pairs} pairs), row-sum {result.row_sum_dev:.2e}; "
           f"worst {worst:.2e} < 1e-9 in {elapsed:.1f} s")


def test_criterion_02_closed_form_vs_oracle():
    started = time.monotonic()
    base = 2718
    worst_z, worst_rel = 0.0, 0.0
    for i in range(10):
        inst, rho_d = desk_validation_instance(base + i,
                                               fractional=(i % 2 == 0))
        q, r = i % 2, (3 * i) % inst.grid.size
        est = montecarlo.estimate_terms(inst, q, r, trials=10_000,
                                        seed=base + 100 + i)
        closed = dict(zip(
            ("ds", "bu", "isi", "iui"),
            closed_form_terms(q, r, inst.stats, inst.pc, inst.pathsets,
                              inst.grid)))
        empirical = {"ds": est.ds.real, "bu": est.bu_var,
                     "isi": est.isi_power, "iui": est.iui_power}
        errors = {"ds": est.ds_se, "bu": est.bu_se, "isi": est.isi_se,
                  "iui": est.iui_se}
        for key in closed:
            if errors[key] > 0:
                worst_z = max(worst_z,
                              abs(empirical[key] - closed[key]) / errors[key])
        sinr_cf = achievable_rate(q, inst.stats, inst.pc, inst.pathsets,
                                  rho_d, inst.grid).sinr
        worst_rel = max(worst_rel,
                        abs(est.empirical_sinr(rho_d) - sinr_cf) / sinr_cf)
    elapsed = time.monotonic() - started
    report(2, worst_z <= 3.0 and worst_rel <= 0.05 and elapsed < 120.0,
           f"10 desk instances at 1e4 trials: worst term |z| {worst_z:.2f} "
           f"(<= 3 SE), worst SINR rel. error {worst_rel:.4f} (<= 0.05) "
           f"in {elapsed:.1f} s")


def test_criterion_03_distinct_delay_consistency():
    # The reference is the SINR at every bin of the grid, built from the
    # dense path operators rather than the rate module's coefficients.
    worst_rate_rel, worst_bin_spread, worst_sinr_rel = 0.0, 0.0, 0.0
    for seed in range(6):
        inst, rho_d = desk_validation_instance(500 + seed,
                                               distinct_delays=True)
        for q in range(inst.stats.n_users):
            full = achievable_rate(q, inst.stats, inst.pc, inst.pathsets,
                                   rho_d, inst.grid)
            fast = rate_distinct_delays(q, inst.stats, inst.pc,
                                        inst.pathsets, rho_d, inst.grid)
            per_bin = per_bin_sinr(q, inst.stats, inst.pc, inst.pathsets,
                                   rho_d, inst.grid)
            worst_rate_rel = max(
                worst_rate_rel,
                abs(fast.rate_bps_hz - full.rate_bps_hz) / full.rate_bps_hz)
            worst_bin_spread = max(worst_bin_spread,
                                   np.ptp(per_bin) / per_bin.mean())
            for rate_report in (fast, full):
                worst_sinr_rel = max(
                    worst_sinr_rel,
                    float(np.max(np.abs(per_bin - rate_report.sinr)))
                    / rate_report.sinr)
    report(3, max(worst_rate_rel, worst_bin_spread, worst_sinr_rel) <= 1e-9,
           "distinct-delay fast path vs closed form: rate rel. diff "
           f"{worst_rate_rel:.2e}; dense per-bin SINR spread "
           f"{worst_bin_spread:.2e}, worst rel. diff from both reports "
           f"{worst_sinr_rel:.2e} (all <= 1e-9)")


def test_criterion_04_mmse_sanity():
    rng = np.random.default_rng(404)
    worst = 0.0
    ok_bounds = True
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-13, 0)
        rho_p = 10.0 ** rng.uniform(0, 14)
        rho_u = 10.0 ** rng.uniform(-2, 13)
        xi = 10.0 ** rng.uniform(-14, 1)
        c = mmse_coeff(beta, rho_p, rho_u, xi)
        # Independent scalar Wiener solution: cross-moment over
        # observation power for y = sqrt(rho_p) h + effective noise.
        c_ref = (np.sqrt(rho_p) * beta) / (rho_p * beta + (rho_u * xi + 1.0))
        worst = max(worst, abs(c - c_ref) / c_ref)
        gamma = np.sqrt(rho_p) * beta * c
        ok_bounds = ok_bounds and 0.0 <= gamma <= beta * (1 + 1e-12)
    report(4, worst <= 1e-12 and ok_bounds,
           f"1000-point sweep: worst rel. deviation from scalar LMMSE "
           f"oracle {worst:.2e} (<= 1e-12), 0 <= gamma <= beta everywhere: "
           f"{ok_bounds}")


def test_criterion_05_noise_power():
    grid = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
    dbm = experiments.noise_power_dbm(grid, 9.0)
    report(5, abs(dbm - (-108.0)) <= 0.5,
           f"noise power for 30x15 kHz, F=9 dB: {dbm:.2f} dBm "
           "(-108 +/- 0.5)")


def test_criterion_06_doppler_index():
    grid = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3,
                    carrier_hz=4e9)
    k_max = max_doppler_index(500.0, grid)
    report(6, k_max == 3, f"max Doppler index at 500 km/h: {k_max} (== 3)")


def test_criterion_07_guard_overhead():
    a = guard_overhead(2, 3, 1)
    b = guard_overhead(0, 0, 0)
    report(7, a == 85 and b == 1,
           f"guard overhead: (l_max=2, k_max=3, k_hat=1) -> {a} (== 85), "
           f"(0, 0, 0) -> {b} (== 1)")


def test_criterion_08_power_constraint():
    config = experiments.desk_preset(seed=808)
    _, rho_u, rho_p = experiments.normalized_powers(config.powers,
                                                    config.grid)
    worst = 0.0
    for i in range(50):
        # The realization runs the same load check; the load is read again
        # here to report the worst deviation.
        _, stats, pc = experiments.realize_links(
            config.network, config.grid, config.channel, rho_u, rho_p,
            np.random.default_rng(808 + i))
        load = power_constraint_load(stats, pc)
        worst = max(worst, float(np.max(np.abs(load - 1.0))))
    report(8, worst <= 1e-12,
           f"50 desk realizations: worst per-AP deviation of "
           f"sum(eta*gamma) from 1 is {worst:.2e} (<= 1e-12)")


def _bootstrap_diff_lower(hi: np.ndarray, lo: np.ndarray, rng,
                          n_boot: int = 2000) -> float:
    """5th percentile of bootstrap resamples of mean(hi) - mean(lo),
    resampling realizations (clusters) independently."""
    idx_hi = rng.integers(0, len(hi), size=(n_boot, len(hi)))
    idx_lo = rng.integers(0, len(lo), size=(n_boot, len(lo)))
    diffs = hi[idx_hi].mean(axis=1) - lo[idx_lo].mean(axis=1)
    return float(np.percentile(diffs, 5.0))


@pytest.mark.slow
def test_criterion_09_paper_scale_trends():
    started = time.monotonic()
    config = experiments.paper_preset(seed=909)
    ap_counts = config.ap_counts
    user_counts = config.user_counts
    mode = config.modes[0]
    # Per-realization mean throughput (Mbit/s), keyed by (K_u, M_a).
    means = {}
    for n_users in user_counts:
        for n_aps in ap_counts:
            table = experiments.run_point(config, n_aps, n_users, mode)
            per_real = table.throughput.reshape(config.realizations,
                                                n_users).mean(axis=1) / 1e6
            means[(n_users, n_aps)] = per_real
            print(f"  M_a={n_aps:3d} K_u={n_users:2d}: "
                  f"mean {per_real.mean():.4f} Mbit/s")
    rng = np.random.default_rng(911)
    monotone_ok = True
    for n_users in user_counts:
        for lo_aps, hi_aps in zip(ap_counts, ap_counts[1:]):
            lower = _bootstrap_diff_lower(means[(n_users, hi_aps)],
                                          means[(n_users, lo_aps)], rng)
            monotone_ok = monotone_ok and lower >= 0.0
    separation_ok = True
    for n_aps in ap_counts:
        lower = _bootstrap_diff_lower(means[(user_counts[0], n_aps)],
                                      means[(user_counts[1], n_aps)], rng)
        separation_ok = separation_ok and lower > 0.0
    elapsed = time.monotonic() - started
    report(9, monotone_ok and separation_ok and elapsed < 1800.0,
           f"200-realization sweep (M_a in {ap_counts}, K_u in "
           f"{user_counts}, {mode} shadowing): throughput non-decreasing "
           f"in M_a ({monotone_ok}) and lower for more users "
           f"({separation_ok}) at 95% bootstrap confidence, "
           f"in {elapsed / 60.0:.1f} min (< 30 min)")


def test_criterion_10_determinism():
    config = experiments.desk_preset(realizations=5, seed=1010,
                                     shadowing="both")
    serial_a = experiments.cdf_csv_bytes(experiments.run_cdf(config))
    serial_b = experiments.cdf_csv_bytes(experiments.run_cdf(config))
    parallel = experiments.cdf_csv_bytes(experiments.run_cdf(
        experiments.desk_preset(realizations=5, seed=1010, shadowing="both",
                                workers=2)))
    report(10, serial_a == serial_b == parallel,
           f"byte-identical CSV across reruns ({serial_a == serial_b}) and "
           f"under parallel execution ({serial_a == parallel}); "
           f"{len(serial_a)} bytes")
