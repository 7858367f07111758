import numpy as np
import pytest

from cfotfs import experiments, montecarlo
from cfotfs.channel import OtfsGrid, PathSet
from cfotfs.estimation import LinkStats
from cfotfs.exceptions import DistinctDelayError, PowerControlError
from cfotfs.rate import (PowerControl, achievable_rate, equal_power_control,
                         power_constraint_load, rate_distinct_delays,
                         sinr_bin, sinr_profile, throughput)


def make_stats(beta, gamma, rho_p=1.0, rho_u=1.0):
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    c = gamma / (np.sqrt(rho_p) * beta)
    return LinkStats(beta=beta, mmse_c=c, gamma=gamma,
                     xi=np.zeros(beta.shape[:2]), rho_p=rho_p, rho_u=rho_u)


def single_link_setup(beta=2.0, gamma=1.5, delay=0, doppler=0, frac=0.0,
                      grid=None):
    grid = grid or OtfsGrid(doppler_bins=2, delay_bins=2)
    stats = make_stats([[[beta]]], [[[gamma]]])
    pc = equal_power_control(stats)
    ps = PathSet(ap=0, user=0, delay_taps=[delay], doppler_taps=[doppler],
                 frac_dopplers=[frac], variances=[beta], gains=[1.0])
    return grid, stats, pc, [[ps]]


def random_instance(seed, *, distinct=False, n_paths=2, n_users=2, n_aps=2,
                    m=4, n=2, fractional=True):
    grid = OtfsGrid(doppler_bins=n, delay_bins=m)
    powers = experiments.PowerParams()
    rho_d, rho_u, rho_p = experiments.normalized_powers(powers, grid)
    inst = montecarlo.random_instance(
        grid, n_aps=n_aps, n_users=n_users, n_paths=n_paths, rho_d=rho_d,
        rho_u=rho_u, rho_p=rho_p, seed=seed, fractional=fractional,
        distinct_delays=distinct)
    return inst


class TestEqualPowerControl:
    def test_single_link_value(self):
        stats = make_stats([[[1.0]]], [[[0.5]]])
        pc = equal_power_control(stats)
        assert pc.eta[0, 0] == pytest.approx(2.0)

    def test_constraint_met_with_equality(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.5, 2.0, size=(3, 4, 5))
        stats = make_stats(beta, 0.7 * beta)
        pc = equal_power_control(stats)
        np.testing.assert_allclose(power_constraint_load(stats, pc), 1.0,
                                   atol=1e-14)

    def test_second_user_halves_coefficient(self):
        one = make_stats([[[1.0]]], [[[0.5]]])
        two = make_stats([[[1.0], [1.0]]], [[[0.5], [0.5]]])
        assert equal_power_control(two).eta[0, 0] == pytest.approx(
            equal_power_control(one).eta[0, 0] / 2.0)

    def test_degenerate_ap_rejected(self):
        stats = make_stats([[[1.0]]], [[[0.0]]])
        with pytest.raises(PowerControlError):
            equal_power_control(stats)


class TestSinr:
    def test_single_link_hand_formula(self):
        # One AP, one user, one path: numerator rho*eta*gamma^2 against
        # rho*eta*beta*gamma + 1.
        grid, stats, pc, pathsets = single_link_setup(beta=2.0, gamma=1.5)
        rho_d = 3.0
        eta = pc.eta[0, 0]
        expected = (rho_d * eta * 1.5**2) / (rho_d * eta * 2.0 * 1.5 + 1.0)
        for r in range(grid.size):
            assert sinr_bin(0, r, stats, pc, pathsets, rho_d, grid) == \
                pytest.approx(expected, rel=1e-12)

    def test_zero_downlink_power(self):
        grid, stats, pc, pathsets = single_link_setup()
        assert sinr_bin(0, 0, stats, pc, pathsets, 0.0, grid) == 0.0

    def test_monotone_in_downlink_power(self):
        inst = random_instance(1)
        values = [
            sinr_bin(0, 1, inst.stats, inst.pc, inst.pathsets, rho, inst.grid)
            for rho in np.logspace(8, 16, 12)
        ]
        assert np.all(np.diff(values) > 0)

    def test_profile_matches_bins(self):
        inst = random_instance(2)
        profile = sinr_profile(0, inst.stats, inst.pc, inst.pathsets,
                               inst.rho_d, inst.grid)
        for r in range(inst.grid.size):
            assert sinr_bin(0, r, inst.stats, inst.pc, inst.pathsets,
                            inst.rho_d, inst.grid) == \
                profile[r % inst.grid.delay_bins]

    def test_nonnegative(self):
        for seed in range(5):
            inst = random_instance(seed, n_paths=3)
            profile = sinr_profile(0, inst.stats, inst.pc, inst.pathsets,
                                   inst.rho_d, inst.grid)
            assert np.all(profile >= 0.0)


class TestAchievableRate:
    def test_unit_rate_when_sinr_is_one(self):
        # Two perfect-CSI single-path APs: choosing rho_d = 1/(2 beta)
        # makes the SINR exactly one, hence rate exactly 1 bit/s/Hz.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = 0.8
        stats = make_stats([[[beta]], [[beta]]], [[[beta]], [[beta]]])
        pc = equal_power_control(stats)
        pathsets = [[PathSet(ap=p, user=0, delay_taps=[0], doppler_taps=[0],
                             frac_dopplers=[0.0], variances=[beta],
                             gains=[1.0])] for p in range(2)]
        rho_d = 1.0 / (2.0 * beta)
        report = achievable_rate(0, stats, pc, pathsets, rho_d, grid)
        assert report.rate_bps_hz == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(report.sinr, 1.0, rtol=1e-12)
        fast = rate_distinct_delays(0, stats, pc, pathsets, rho_d, grid)
        assert fast.rate_bps_hz == pytest.approx(1.0, rel=1e-12)

    def test_report_shape_and_mean(self):
        inst = random_instance(3)
        report = achievable_rate(0, inst.stats, inst.pc, inst.pathsets,
                                 inst.rho_d, inst.grid)
        assert report.sinr.shape == (inst.grid.delay_bins,)
        assert report.rate_bps_hz == pytest.approx(
            np.mean(np.log2(1.0 + report.sinr)))
        assert report.throughput_bps == pytest.approx(
            report.rate_bps_hz * inst.grid.bandwidth_hz)


class TestDistinctDelayFastPath:
    def test_equals_per_bin_evaluation(self):
        for seed in range(6):
            inst = random_instance(seed, distinct=True)
            for q in range(inst.stats.n_users):
                full = achievable_rate(q, inst.stats, inst.pc, inst.pathsets,
                                       inst.rho_d, inst.grid)
                fast = rate_distinct_delays(q, inst.stats, inst.pc,
                                            inst.pathsets, inst.rho_d,
                                            inst.grid)
                assert fast.rate_bps_hz == pytest.approx(
                    full.rate_bps_hz, rel=1e-9)
                # Per-bin SINR collapses to a single value.
                spread = np.ptp(full.sinr) / full.sinr.mean()
                assert spread < 1e-9

    def test_repeated_delays_rejected(self):
        grid, stats, pc, pathsets = single_link_setup(grid=OtfsGrid(
            doppler_bins=2, delay_bins=4))
        bad = PathSet(ap=0, user=0, delay_taps=[1, 1], doppler_taps=[0, 0],
                      frac_dopplers=[0.1, -0.2], variances=[1.0, 1.0],
                      gains=[1.0, 1.0])
        stats2 = make_stats([[[1.0, 1.0]]], [[[0.5, 0.5]]])
        with pytest.raises(DistinctDelayError):
            rate_distinct_delays(0, stats2, equal_power_control(stats2),
                                 [[bad]], 1.0, grid)

    def test_single_user_has_no_interuser_term(self):
        # With one user the denominator only carries the intra-link part.
        grid = OtfsGrid(doppler_bins=2, delay_bins=4)
        beta = np.array([[[0.5, 0.7]]])
        gamma = 0.6 * beta
        stats = make_stats(beta, gamma)
        pc = equal_power_control(stats)
        ps = PathSet(ap=0, user=0, delay_taps=[0, 2], doppler_taps=[0, 0],
                     frac_dopplers=[0.0, 0.0], variances=beta[0, 0],
                     gains=[1.0, 1.0])
        rho_d = 2.0
        report = rate_distinct_delays(0, stats, pc, [[ps]], rho_d, grid)
        eta = pc.eta[0, 0]
        ds = np.sqrt(eta) * gamma.sum()
        den = rho_d * eta * beta.sum() * gamma.sum() + 1.0
        assert report.sinr[0] == pytest.approx(rho_d * ds**2 / den, rel=1e-12)


class TestThroughput:
    def test_bandwidth_times_rate(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
        assert throughput(1.0, grid) == pytest.approx(0.45e6)

    def test_zero_rate(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=30)
        assert throughput(0.0, grid) == 0.0

    def test_linear_in_subcarrier_spacing(self):
        g1 = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
        g2 = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=30e3)
        assert throughput(1.7, g2) == pytest.approx(2.0 * throughput(1.7, g1))

    def test_accepts_rate_report(self):
        inst = random_instance(4)
        report = achievable_rate(0, inst.stats, inst.pc, inst.pathsets,
                                 inst.rho_d, inst.grid)
        assert throughput(report, inst.grid) == pytest.approx(
            report.throughput_bps)


def test_rate_decreases_with_more_users():
    # Same grid and power budget, growing user population: the mean
    # per-user rate drops (resource sharing plus extra interference).
    grid = OtfsGrid(doppler_bins=4, delay_bins=8)
    powers = experiments.PowerParams()
    rho_d, rho_u, rho_p = experiments.normalized_powers(powers, grid)
    means = []
    for n_users in (2, 6):
        rates = []
        for seed in range(12):
            inst = montecarlo.random_instance(
                grid, n_aps=4, n_users=n_users, n_paths=2, rho_d=rho_d,
                rho_u=rho_u, rho_p=rho_p, seed=100 + seed)
            rates.extend(
                achievable_rate(q, inst.stats, inst.pc, inst.pathsets,
                                rho_d, inst.grid).rate_bps_hz
                for q in range(n_users))
        means.append(np.mean(rates))
    assert means[1] < means[0]
