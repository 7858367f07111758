import json

import numpy as np
import pytest

from cfotfs import experiments
from cfotfs.channel import OtfsGrid, PathSet
from cfotfs.estimation import LinkStats
from cfotfs.montecarlo import (ValidationInstance, estimate_terms,
                               random_instance, validate_rate)
from cfotfs.rate import PowerControl, closed_form_terms, equal_power_control


def make_stats(beta, gamma):
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return LinkStats(beta=beta, mmse_c=gamma / beta, gamma=gamma,
                     xi=np.zeros(beta.shape[:2]), rho_p=1.0, rho_u=1.0)


def desk_instance(seed, **kw):
    grid = OtfsGrid(doppler_bins=2, delay_bins=4)
    rho_d, rho_u, rho_p = experiments.normalized_powers(
        experiments.PowerParams(), grid)
    return random_instance(grid, n_aps=2, n_users=2, n_paths=2, rho_d=rho_d,
                           rho_u=rho_u, rho_p=rho_p, seed=seed, **kw)


class TestEstimateTerms:
    def test_perfect_csi_single_path_bu(self):
        # gamma = beta: the error vanishes and the precoding-gain variance
        # reduces to eta * beta^2.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = 0.9
        stats = make_stats([[[beta]]], [[[beta]]])
        pc = equal_power_control(stats)
        ps = PathSet(ap=0, user=0, delay_taps=[1], doppler_taps=[0],
                     frac_dopplers=[0.3], variances=[beta], gains=[1.0])
        inst = ValidationInstance(grid=grid, pathsets=[[ps]], stats=stats,
                                  pc=pc, rho_d=1.0)
        est = estimate_terms(inst, q=0, r=0, trials=10_000, seed=0)
        expected = pc.eta[0, 0] * beta**2
        assert est.bu_var == pytest.approx(expected, rel=0.05)
        assert est.ds.real == pytest.approx(np.sqrt(pc.eta[0, 0]) * beta,
                                            rel=0.02)
        assert abs(est.ds.imag) < 5.0 * est.ds_se

    def test_single_user_no_interuser_power(self):
        inst = desk_instance(0)
        solo = ValidationInstance(
            grid=inst.grid,
            pathsets=[[row[0]] for row in inst.pathsets],
            stats=make_stats(inst.stats.beta[:, :1], inst.stats.gamma[:, :1]),
            pc=PowerControl(eta=inst.pc.eta[:, :1]), rho_d=inst.rho_d)
        est = estimate_terms(solo, q=0, r=1, trials=500, seed=1)
        assert est.iui_power == 0.0

    def test_terms_match_closed_form_within_3se(self):
        inst = desk_instance(5)
        for r in (0, 5):
            est = estimate_terms(inst, q=1, r=r, trials=10_000, seed=2)
            ds, bu, isi, iui = closed_form_terms(
                1, r, inst.stats, inst.pc, inst.pathsets, inst.grid)
            assert abs(est.ds.real - ds) <= 3.0 * est.ds_se
            assert abs(est.bu_var - bu) <= 3.0 * est.bu_se
            assert abs(est.isi_power - isi) <= 3.0 * est.isi_se
            assert abs(est.iui_power - iui) <= 3.0 * est.iui_se

    def test_low_trials_flag(self):
        inst = desk_instance(1)
        est = estimate_terms(inst, q=0, r=0, trials=50, seed=3, batches=5)
        assert est.low_trials
        est = estimate_terms(inst, q=0, r=0, trials=500, seed=3, batches=5)
        assert not est.low_trials

    def test_deterministic_given_seed(self):
        inst = desk_instance(2)
        a = estimate_terms(inst, q=0, r=2, trials=400, seed=9)
        b = estimate_terms(inst, q=0, r=2, trials=400, seed=9)
        assert a.ds == b.ds and a.bu_var == b.bu_var
        assert a.isi_power == b.isi_power and a.iui_power == b.iui_power

    def test_generator_seed(self):
        inst = desk_instance(2)
        a = estimate_terms(inst, q=0, r=2, trials=400,
                           seed=np.random.default_rng(9))
        b = estimate_terms(inst, q=0, r=2, trials=400,
                           seed=np.random.default_rng(9))
        assert a == b


class TestValidateRate:
    def test_desk_instance_passes_gate(self):
        inst = desk_instance(7)
        report = validate_rate(inst, trials=4000, seed=4)
        assert report.passed, report.to_json()
        assert report.max_rel_error <= report.gate

    def test_distinct_delay_bins_statistically_flat(self):
        inst = desk_instance(11, distinct_delays=True)
        report = validate_rate(inst, trials=10_000, seed=5)
        assert report.passed
        # Closed form is exactly flat; the empirical per-bin SINRs must
        # not be flagged as bin dependent.
        assert not any(report.bin_dependence.values())
        closed = [c.sinr_closed for c in report.checks if c.user == 0]
        assert np.ptp(closed) / np.mean(closed) < 1e-9

    def test_interference_limited_regime(self):
        # Very large downlink power: SINR saturates at the interference
        # ratio and the oracle still matches.
        inst = desk_instance(13)
        big = ValidationInstance(grid=inst.grid, pathsets=inst.pathsets,
                                 stats=inst.stats, pc=inst.pc,
                                 rho_d=inst.rho_d * 1e6)
        report = validate_rate(big, trials=4000, seed=6,
                               bins=[0, 3], users=[0])
        assert report.passed, report.to_json()

    def test_zero_gamma_degenerate(self):
        # No usable estimates anywhere: desired signal and SINR collapse
        # to zero in both the closed form and the simulation.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = np.full((1, 1, 1), 0.5)
        stats = LinkStats(beta=beta, mmse_c=np.zeros_like(beta),
                          gamma=np.zeros_like(beta), xi=np.zeros((1, 1)),
                          rho_p=1.0, rho_u=1.0)
        ps = PathSet(ap=0, user=0, delay_taps=[0], doppler_taps=[0],
                     frac_dopplers=[0.0], variances=[0.5], gains=[1.0])
        inst = ValidationInstance(grid=grid, pathsets=[[ps]], stats=stats,
                                  pc=PowerControl(eta=np.ones((1, 1))),
                                  rho_d=10.0)
        est = estimate_terms(inst, q=0, r=0, trials=200, seed=8)
        assert est.ds == 0.0
        assert est.empirical_sinr(10.0) == 0.0
        report = validate_rate(inst, trials=200, seed=8, bins=[0])
        assert report.checks[0].sinr_closed == 0.0
        assert report.checks[0].rel_error == 0.0

    def test_report_json(self):
        inst = desk_instance(3)
        report = validate_rate(inst, trials=500, seed=10, bins=[0, 1],
                               users=[0])
        data = json.loads(report.to_json())
        assert set(data) >= {"passed", "gate", "checks", "bin_dependence"}
        assert len(data["checks"]) == 2
        assert {"ds", "bu", "isi", "iui"} == set(
            data["checks"][0]["terms_closed"])
