from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import per_bin_sinr

from cfotfs import experiments, montecarlo, operators, rate
from cfotfs.channel import OtfsGrid, PathSet
from cfotfs.estimation import LinkStats, compute_link_stats
from cfotfs.exceptions import DistinctDelayError, PowerControlError
from cfotfs.rate import (PowerControl, Realization, achievable_rate,
                         closed_form_terms, equal_power_control,
                         power_constraint_load, rate_distinct_delays)
from cfotfs.rng import substream


def make_stats(beta, gamma):
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return LinkStats(beta=beta, mmse_c=gamma / beta, gamma=gamma,
                     xi=np.zeros(beta.shape[:2]))


def single_link_setup(beta=2.0, gamma=1.5, delay=0, doppler=0, frac=0.0):
    grid = OtfsGrid(doppler_bins=2, delay_bins=2)
    stats = make_stats([[[beta]]], [[[gamma]]])
    pc = equal_power_control(stats)
    ps = PathSet(delay_taps=[[[delay]]], doppler=[[[doppler + frac]]],
                 gains=[[[1.0]]])
    return grid, stats, pc, ps


def perfect_csi_two_aps(beta=0.8):
    """Two perfect-CSI single-path APs serving one user: with
    rho_d = 1/(2 beta) the SINR is exactly one."""
    stats = make_stats([[[beta]], [[beta]]], [[[beta]], [[beta]]])
    pc = equal_power_control(stats)
    pathsets = PathSet(delay_taps=np.zeros((2, 1, 1)),
                       doppler=np.zeros((2, 1, 1)),
                       gains=np.ones((2, 1, 1)))
    return stats, pc, pathsets


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
        report = achievable_rate(
            0, Realization(grid, pathsets, stats, pc, rho_d))
        assert report.sinr == pytest.approx(expected, rel=1e-12)

    def test_zero_downlink_power(self):
        grid, stats, pc, pathsets = single_link_setup()
        assert achievable_rate(
            0, Realization(grid, pathsets, stats, pc, 0.0)).sinr == 0.0

    def test_monotone_in_downlink_power(self):
        inst = random_instance(1)
        values = [
            achievable_rate(0, replace(inst, rho_d=rho)).sinr
            for rho in np.logspace(8, 16, 12)
        ]
        assert np.all(np.diff(values) > 0)

    def test_profile_matches_bins(self):
        # The dense per-bin SINR profile, on instances whose links may
        # repeat a delay tap under fractional Doppler, equals the reported
        # SINR at every bin.
        for seed in range(3):
            inst = random_instance(seed + 2, n_paths=3)
            for q in range(inst.stats.n_users):
                profile = per_bin_sinr(q, inst.stats, inst.pc, inst.pathsets,
                                       inst.rho_d, inst.grid)
                sinr = achievable_rate(q, inst).sinr
                for r in range(inst.grid.size):
                    assert sinr == pytest.approx(profile[r], rel=1e-12)

    def test_bin_outside_grid_rejected(self):
        inst = random_instance(2)
        for r in (-1, inst.grid.size):
            with pytest.raises(ValueError):
                closed_form_terms(0, r, inst.stats, inst.pc, inst.pathsets,
                                  inst.grid)

    def test_nonnegative(self):
        for seed in range(5):
            inst = random_instance(seed, n_paths=3)
            report = achievable_rate(0, inst)
            assert report.sinr >= 0.0


class TestAchievableRate:
    def test_unit_rate_when_sinr_is_one(self):
        # Two perfect-CSI single-path APs: choosing rho_d = 1/(2 beta)
        # makes the SINR exactly one, hence rate exactly 1 bit/s/Hz.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = 0.8
        stats, pc, pathsets = perfect_csi_two_aps(beta)
        rho_d = 1.0 / (2.0 * beta)
        realization = Realization(grid, pathsets, stats, pc, rho_d)
        report = achievable_rate(0, realization)
        assert report.rate_bps_hz == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(report.sinr, 1.0, rtol=1e-12)
        fast = rate_distinct_delays(0, realization)
        assert fast.rate_bps_hz == pytest.approx(1.0, rel=1e-12)

    def test_report_shape_and_mean(self):
        inst = random_instance(3)
        report = achievable_rate(0, inst)
        assert isinstance(report.sinr, float)
        assert report.rate_bps_hz == pytest.approx(
            np.log2(1.0 + report.sinr))
        assert report.throughput_bps == pytest.approx(
            report.rate_bps_hz * inst.grid.bandwidth_hz)

    def test_one_coefficient_call_per_user(self, monkeypatch):
        # Every AP of a user shares one batched chi/kappa call, also
        # inside a full desk realization.
        calls = []
        batched = rate.chi_kappa_tables

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return batched(*args, **kwargs)

        monkeypatch.setattr(rate, "chi_kappa_tables", counted)
        inst = random_instance(5, n_aps=3, n_paths=3)
        achievable_rate(1, inst)
        assert calls == [(3, 3)]
        calls.clear()
        config = experiments.desk_preset(seed=1)
        experiments.realize_user_rates(config, 8, 4, "uncorr",
                                       substream(1, 0, 8, 4, 0))
        assert calls == [(8, config.channel.n_paths)] * 4


class TestDistinctDelayFastPath:
    def test_equals_per_bin_evaluation(self):
        for seed in range(6):
            inst = random_instance(seed, distinct=True)
            for q in range(inst.stats.n_users):
                full = achievable_rate(q, inst)
                fast = rate_distinct_delays(q, inst)
                assert fast.rate_bps_hz == pytest.approx(
                    full.rate_bps_hz, rel=1e-9)
                # The dense per-bin SINR is flat and equals both reports.
                per_bin = per_bin_sinr(q, inst.stats, inst.pc, inst.pathsets,
                                       inst.rho_d, inst.grid)
                assert np.ptp(per_bin) / per_bin.mean() < 1e-9
                for report in (fast, full):
                    assert np.max(np.abs(per_bin - report.sinr)) \
                        / report.sinr < 1e-9

    def test_repeated_delays_rejected(self):
        # Three APs, two users: only AP 1 repeats a tap, on user 1's link,
        # and the error names that link. User 0 has distinct taps.
        grid = OtfsGrid(doppler_bins=2, delay_bins=4)
        delays = np.array([[[0, 1], [2, 3]],
                           [[1, 3], [1, 1]],
                           [[0, 2], [3, 0]]])
        shape = delays.shape
        bad = PathSet(delay_taps=delays, doppler=np.full(shape, 0.1),
                      gains=np.ones(shape))
        stats = make_stats(np.ones(shape), np.full(shape, 0.5))
        pc = equal_power_control(stats)
        realization = Realization(grid, bad, stats, pc, 1.0)
        rate_distinct_delays(0, realization)
        with pytest.raises(DistinctDelayError, match=r"ap=1, user=1\)"):
            rate_distinct_delays(1, realization)

    def test_constant_tables_are_the_general_tables(self, monkeypatch):
        # On distinct taps the general coefficient tables are exactly the
        # fast path's (I, 1 - I), and the fast path never computes them.
        calls = []
        monkeypatch.setattr(rate, "chi_kappa_tables",
                            lambda *args: calls.append(args))
        for seed in range(4):
            inst = random_instance(seed, distinct=True, n_paths=3, n_aps=3)
            paths = inst.pathsets
            chi, kappa = operators.chi_kappa_tables(
                paths.delay_taps, paths.doppler, inst.grid.doppler_bins)
            eye = np.eye(paths.delay_taps.shape[-1])
            assert np.array_equal(chi, np.broadcast_to(eye, chi.shape))
            assert np.array_equal(kappa, np.broadcast_to(1.0 - eye,
                                                         kappa.shape))
            for q in range(inst.stats.n_users):
                rate_distinct_delays(q, inst)
        assert calls == []

    def test_single_user_has_no_interuser_term(self):
        # With one user the denominator only carries the intra-link part.
        grid = OtfsGrid(doppler_bins=2, delay_bins=4)
        beta = np.array([[[0.5, 0.7]]])
        gamma = 0.6 * beta
        stats = make_stats(beta, gamma)
        pc = equal_power_control(stats)
        ps = PathSet(delay_taps=[[[0, 2]]], doppler=[[[0.0, 0.0]]],
                     gains=[[[1.0, 1.0]]])
        rho_d = 2.0
        report = rate_distinct_delays(0, Realization(grid, ps, stats, pc,
                                                     rho_d))
        eta = pc.eta[0, 0]
        ds = np.sqrt(eta) * gamma.sum()
        den = rho_d * eta * beta.sum() * gamma.sum() + 1.0
        assert report.sinr == pytest.approx(rho_d * ds**2 / den, rel=1e-12)


class TestUserIndex:
    """Every rate entry point names a user index outside [0, Q)."""

    def test_closed_form_terms(self):
        inst = random_instance(2)
        for q in (-1, inst.stats.n_users):
            with pytest.raises(ValueError, match=f"user index {q} outside"):
                closed_form_terms(q, 0, inst.stats, inst.pc, inst.pathsets,
                                  inst.grid)

    def test_achievable_rate(self):
        inst = random_instance(2)
        for q in (-1, inst.stats.n_users):
            with pytest.raises(ValueError, match=f"user index {q} outside"):
                achievable_rate(q, inst)

    def test_rate_distinct_delays(self):
        # The last user repeats a delay tap, so user -1 must be rejected
        # as an index before its taps are read.
        grid = OtfsGrid(doppler_bins=2, delay_bins=4)
        delays = np.array([[[0, 1], [2, 2]]])
        shape = delays.shape
        paths = PathSet(delay_taps=delays, doppler=np.zeros(shape),
                        gains=np.ones(shape))
        stats = make_stats(np.ones(shape), np.full(shape, 0.5))
        pc = equal_power_control(stats)
        for q in (-1, 2):
            with pytest.raises(ValueError, match=f"user index {q} outside"):
                rate_distinct_delays(
                    q, Realization(grid, paths, stats, pc, 1.0))


class TestThroughput:
    """RateReport.throughput_bps is the bandwidth M*delta_f times the
    spectral efficiency."""

    def test_bandwidth_times_rate(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
        stats, pc, pathsets = perfect_csi_two_aps(0.8)
        report = achievable_rate(
            0, Realization(grid, pathsets, stats, pc, 1.0 / 1.6))
        assert report.rate_bps_hz == pytest.approx(1.0, rel=1e-12)
        assert report.throughput_bps == pytest.approx(0.45e6)

    def test_zero_rate(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=30)
        stats, pc, pathsets = perfect_csi_two_aps()
        for rate_fn in (achievable_rate, rate_distinct_delays):
            assert rate_fn(0, Realization(grid, pathsets, stats, pc,
                                          0.0)).throughput_bps == 0.0

    def test_linear_in_subcarrier_spacing(self):
        g1 = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
        g2 = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=30e3)
        stats, pc, pathsets = perfect_csi_two_aps()
        r1, r2 = (achievable_rate(0, Realization(g, pathsets, stats, pc,
                                                 7.0))
                  for g in (g1, g2))
        assert r2.rate_bps_hz == r1.rate_bps_hz
        assert r2.throughput_bps == pytest.approx(2.0 * r1.throughput_bps)


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
                achievable_rate(q, inst).rate_bps_hz
                for q in range(n_users))
        means.append(np.mean(rates))
    assert means[1] < means[0]


# Reordered float64 sums of a few dozen terms agree to about 1e-15
# relative; the invariances below must hold to this bound.
INVARIANCE_RTOL = 1e-12


@st.composite
def small_networks(draw):
    """(grid, per-path variances, paths, rng) of a small network whose
    links may repeat delay taps, so that chi and kappa are not constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = OtfsGrid(doppler_bins=draw(st.integers(2, 6)),
                    delay_bins=draw(st.integers(1, 6)))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(3))
    n_taps = draw(st.integers(1, grid.delay_bins))
    paths = PathSet(delay_taps=rng.integers(0, n_taps, shape),
                    doppler=rng.integers(-1, 2, shape)
                    + rng.uniform(-0.5, 0.5, shape),
                    gains=np.ones(shape))
    return grid, 10.0 ** rng.uniform(-2, 0, shape), paths, rng


def network_sinrs(grid, beta_paths, paths, rho_d=50.0, rho_u=10.0,
                  rho_p=20.0):
    """Every user's closed-form SINR, through the pipeline's statistics
    and power control (no Doppler guard)."""
    stats = compute_link_stats(beta_paths, 0, 0, rho_p, rho_u, grid)
    realization = Realization(grid, paths, stats, equal_power_control(stats),
                              rho_d)
    return np.array([achievable_rate(q, realization).sinr
                     for q in range(stats.n_users)])


def map_paths(paths, fn):
    return PathSet(*(fn(a) for a in (paths.delay_taps, paths.doppler,
                                     paths.gains)))


class TestInvariances:
    @settings(max_examples=60, deadline=None)
    @given(net=small_networks())
    def test_permuting_paths_within_links(self, net):
        grid, beta, paths, rng = net
        order = np.argsort(rng.random(beta.shape), axis=-1)

        def take(a):
            return np.take_along_axis(a, order, axis=-1)

        np.testing.assert_allclose(
            network_sinrs(grid, take(beta), map_paths(paths, take)),
            network_sinrs(grid, beta, paths), rtol=INVARIANCE_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(net=small_networks())
    def test_permuting_aps(self, net):
        grid, beta, paths, rng = net
        order = rng.permutation(beta.shape[0])
        np.testing.assert_allclose(
            network_sinrs(grid, beta[order],
                          map_paths(paths, lambda a: a[order])),
            network_sinrs(grid, beta, paths), rtol=INVARIANCE_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(net=small_networks())
    def test_permuting_users_permutes_sinrs(self, net):
        grid, beta, paths, rng = net
        order = rng.permutation(beta.shape[1])
        np.testing.assert_allclose(
            network_sinrs(grid, beta[:, order],
                          map_paths(paths, lambda a: a[:, order])),
            network_sinrs(grid, beta, paths)[order], rtol=INVARIANCE_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(net=small_networks(), s=st.floats(1e-3, 1e3))
    def test_power_scaling(self, net, s):
        # gamma scales by s and eta by 1/s, so rho_d ds^2 and every
        # rho_d-weighted interference power stay the same.
        grid, beta, paths, _ = net
        np.testing.assert_allclose(
            network_sinrs(grid, beta * s, paths, 50.0 / s, 10.0 / s,
                          20.0 / s),
            network_sinrs(grid, beta, paths), rtol=INVARIANCE_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(net=small_networks())
    def test_doppler_shift_by_n(self, net):
        # A Doppler shift of N multiplies each delay column of the path's
        # operator by a unit phase.
        grid, beta, paths, rng = net
        doppler = paths.doppler.copy()
        doppler[tuple(rng.integers(0, doppler.shape))] += grid.doppler_bins
        shifted = PathSet(paths.delay_taps, doppler, paths.gains)
        np.testing.assert_allclose(
            network_sinrs(grid, beta, shifted),
            network_sinrs(grid, beta, paths), rtol=INVARIANCE_RTOL)
