import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfotfs.channel import OtfsGrid
from cfotfs.estimation import (compute_link_stats, guard_overhead, mmse_coeff,
                               sample_estimate)
from cfotfs.exceptions import EstimateStatisticsError, GuardWidthError

PAPER_GRID = OtfsGrid(doppler_bins=20, delay_bins=30)


def lmmse_oracle(beta, rho_p, noise_plus_interference):
    """Scalar Wiener solution for y = sqrt(rho_p) h + n: the coefficient is
    the cross-moment E{h y*} over the observation power E{|y|^2}."""
    r_hy = np.sqrt(rho_p) * beta
    r_yy = rho_p * beta + noise_plus_interference
    return r_hy / r_yy


class TestGuardOverhead:
    def test_paper_arithmetic(self):
        assert guard_overhead(2, 3, 1) == 85

    def test_single_bin(self):
        assert guard_overhead(0, 0, 0) == 1

    def test_negative_rejected(self):
        for widths in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError, match="guard widths"):
                guard_overhead(*widths)
        # The link statistics share the Doppler guard span and its check.
        for k_max, k_hat in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="guard widths"):
                compute_link_stats(np.ones((1, 1, 1)), k_max, k_hat, 1.0,
                                   1.0, PAPER_GRID)


class TestInterferencePowers:
    """The pilot interference constant xi of compute_link_stats: the own
    data's fractional-Doppler leakage outside the guard plus the full
    spread of the other users' data."""

    def test_single_user_no_cross_interference(self):
        beta = np.array([[[0.4, 0.6]]])
        stats = compute_link_stats(beta, 3, 1, 1.0, 1.0, PAPER_GRID)
        # Only the own leakage remains: (N - g) / N^2 * P_q.
        assert stats.xi[0, 0] == pytest.approx((20 - 17) / 20**2 * 1.0,
                                               rel=1e-12)

    def test_zero_uplink_power(self):
        # Without uplink data nothing interferes with the pilot: the MMSE
        # coefficient is the interference-free one.
        beta = np.array([[[0.4, 0.6], [1.0, 2.0]]])
        stats = compute_link_stats(beta, 3, 1, 3.0, 0.0, PAPER_GRID)
        np.testing.assert_allclose(
            stats.mmse_c, np.sqrt(3.0) * beta / (3.0 * beta + 1.0), rtol=1e-15)

    def test_paper_arithmetic(self):
        # (20 - 17)/400 * 2 = 0.015 for the own-user leakage.
        beta = np.array([[[1.2, 0.8]]])
        stats = compute_link_stats(beta, 3, 1, 1.0, 1.0, PAPER_GRID)
        assert stats.xi[0, 0] == pytest.approx(0.015)

    def test_guard_exceeds_frame(self):
        with pytest.raises(GuardWidthError):
            compute_link_stats(np.ones((1, 1, 1)), 3, 1, 1.0, 1.0,
                               OtfsGrid(doppler_bins=16, delay_bins=30))

    def test_consistency_with_interference_constant(self):
        # The constant equals the per-source interference powers over
        # rho_u, so it does not depend on the uplink power.
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.1, 2.0, size=(1, 4, 3))
        link_power = beta[0].sum(axis=1)
        for rho_u in (1.7, 40.0):
            stats = compute_link_stats(beta, 3, 1, 1.0, rho_u, PAPER_GRID)
            for q in range(4):
                i1 = rho_u * (20 - 17) / 20**2 * link_power[q]
                i2 = rho_u * (link_power.sum() - link_power[q]) / 20
                assert stats.xi[0, q] == pytest.approx((i1 + i2) / rho_u,
                                                       rel=1e-12)


class TestMmseCoeff:
    def test_interference_free_high_power_limit(self):
        rho_p = 1e12
        c = mmse_coeff(1.0, rho_p, 0.0, 0.0)
        assert c == pytest.approx(1.0 / np.sqrt(rho_p), rel=1e-10)
        gamma = np.sqrt(rho_p) * 1.0 * c
        assert gamma == pytest.approx(1.0, rel=1e-10)

    def test_vanishing_pilot_power(self):
        c = mmse_coeff(1.0, 1e-20, 1.0, 5.0)
        assert c < 1e-9
        assert np.sqrt(1e-20) * c < 1e-18

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            mmse_coeff(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="pilot power"):
            mmse_coeff(1.0, 0.0, 1.0, 0.1)
        # A negative interference constant is bad input, not something
        # to clamp to zero.
        with pytest.raises(ValueError, match="xi"):
            mmse_coeff(1.0, 1.0, 1.0, -1e-3)
        with pytest.raises(ValueError, match="xi"):
            mmse_coeff(np.ones(3), 1.0, 1.0, np.array([0.1, -0.2, 0.3]))
        # A negative uplink power would shrink, or with xi = 2 zero, the
        # observation power.
        for xi in (1.0, 2.0):
            with pytest.raises(ValueError, match="rho_u"):
                mmse_coeff(1.0, 1.0, -1.0, xi)
        assert mmse_coeff(1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_beta_named(self, bad):
        with pytest.raises(ValueError, match=f"beta must be positive and "
                                             f"finite, got {bad}"):
            mmse_coeff(np.array([1.0, bad]), 1.0, 1.0, 0.1)

    def test_against_lmmse_oracle_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            beta = 10.0 ** rng.uniform(-13, 0)
            rho_p = 10.0 ** rng.uniform(0, 14)
            rho_u = 10.0 ** rng.uniform(-2, 13)
            xi = 10.0 ** rng.uniform(-14, 1)
            c = mmse_coeff(beta, rho_p, rho_u, xi)
            c_ref = lmmse_oracle(beta, rho_p, rho_u * xi + 1.0)
            assert c == pytest.approx(c_ref, rel=1e-12)
            # Estimate variance two ways: definition vs output power.
            gamma = np.sqrt(rho_p) * beta * c
            gamma_ref = c_ref**2 * (rho_p * beta + rho_u * xi + 1.0)
            assert gamma == pytest.approx(gamma_ref, rel=1e-12)
            assert 0.0 <= gamma <= beta

    @settings(max_examples=200)
    @given(beta=st.floats(1e-14, 1.0), rho_p=st.floats(1e-3, 1e15),
           rho_u=st.floats(0.0, 1e15), xi=st.floats(0.0, 10.0))
    def test_gamma_bounded_by_beta(self, beta, rho_p, rho_u, xi):
        c = mmse_coeff(beta, rho_p, rho_u, xi)
        gamma = np.sqrt(rho_p) * beta * c
        assert 0.0 <= gamma <= beta * (1.0 + 1e-12)

    def test_monotonicity(self):
        beta = 1e-8
        gammas_p = [np.sqrt(p) * beta * mmse_coeff(beta, p, 1.0, 1e-6)
                    for p in np.logspace(6, 12, 20)]
        assert np.all(np.diff(gammas_p) >= -1e-30)
        gammas_xi = [np.sqrt(1e10) * beta * mmse_coeff(beta, 1e10, 1.0, xi)
                     for xi in np.logspace(-9, -3, 20)]
        assert np.all(np.diff(gammas_xi) <= 1e-30)


class TestSampleEstimate:
    def test_perfect_csi_corner(self):
        h, h_hat = sample_estimate(0.5, 0.5, seed=0, trials=100)
        np.testing.assert_allclose(h, h_hat)
        assert np.mean(np.abs(h_hat) ** 2) == pytest.approx(0.5, rel=0.5)

    def test_zero_gamma_gives_zero_estimate(self):
        h, h_hat = sample_estimate(0.5, 0.0, seed=0, trials=100)
        np.testing.assert_allclose(h_hat, 0.0)
        assert np.mean(np.abs(h) ** 2) > 0

    def test_moments(self):
        beta, gamma = 1.3, 0.4
        h, h_hat = sample_estimate(beta, gamma, seed=1, trials=10_000)
        err = h - h_hat
        cross = np.mean(h_hat * np.conj(err))
        se = np.sqrt(gamma * (beta - gamma)) / np.sqrt(h.size)
        assert abs(cross) < 3.0 * se
        assert np.mean(np.abs(h) ** 2) == pytest.approx(beta, rel=0.03)

    def test_invalid_statistics(self):
        with pytest.raises(EstimateStatisticsError):
            sample_estimate(0.5, 0.6, seed=0)

    @pytest.mark.parametrize("beta, gamma", [
        (0.5, np.nan), (np.nan, 0.4), (np.inf, 0.4), (0.5, np.inf),
        (np.inf, np.inf), (0.5, -np.inf)])
    def test_non_finite_statistics_rejected(self, beta, gamma):
        # A NaN fails every comparison, so it needs its own check.
        with pytest.raises(EstimateStatisticsError, match="finite"):
            sample_estimate(beta, gamma, seed=0, trials=3)
        stats = np.full((2, 3), 0.5), np.full((2, 3), 0.25)
        stats[0][1, 2], stats[1][1, 2] = beta, gamma
        with pytest.raises(EstimateStatisticsError, match="finite"):
            sample_estimate(*stats, seed=0, trials=3)

    def test_network_call_matches_per_link_calls(self):
        # One (2, 3, L) call draws what six per-link calls on one shared
        # Generator draw in row-major (AP, user) order, bit for bit.
        rng = np.random.default_rng(4)
        beta = rng.uniform(0.1, 1.0, size=(2, 3, 4))
        gamma = beta * rng.uniform(0.0, 1.0, size=beta.shape)
        h, h_hat = sample_estimate(beta, gamma, seed=7, trials=5)
        assert h.shape == h_hat.shape == (2, 3, 5, 4)
        shared = np.random.default_rng(7)
        for link in np.ndindex(2, 3):
            h_link, h_hat_link = sample_estimate(beta[link], gamma[link],
                                                 shared, trials=5)
            assert h_link.tobytes() == h[link].tobytes()
            assert h_hat_link.tobytes() == h_hat[link].tobytes()

    def test_scalar_statistics_give_one_sample_per_trial(self):
        h, h_hat = sample_estimate(0.5, 0.2, seed=0, trials=6)
        assert h.shape == h_hat.shape == (6,)


class TestComputeLinkStats:
    def test_shapes_and_invariants(self):
        rng = np.random.default_rng(2)
        beta = rng.uniform(1e-12, 1e-8, size=(3, 4, 5))
        rho_p = 1e10
        stats = compute_link_stats(beta, 3, 1, rho_p=rho_p, rho_u=1e9,
                                   grid=PAPER_GRID)
        assert stats.gamma.shape == (3, 4, 5)
        assert np.all(stats.gamma >= 0)
        assert np.all(stats.gamma <= stats.beta)
        np.testing.assert_allclose(
            stats.gamma, np.sqrt(rho_p) * stats.beta * stats.mmse_c)
        # Once the guard fits the frame (g = 17 < N = 20), xi is bounded
        # away from zero by the own leakage P_q (N - g) / N^2.
        own_leakage = (20 - 17) / 20**2 * beta.sum(axis=2)
        assert np.all(stats.xi >= own_leakage * (1 - 1e-12))

    def test_variances_need_ap_user_and_path_axes(self):
        with pytest.raises(ValueError, match=r"\(AP, user, path\), got "
                                             r"shape \(2, 2\)"):
            compute_link_stats(np.ones((2, 2)), 0, 0, 1.0, 1.0,
                               OtfsGrid(4, 8))

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        beta = rng.uniform(1e-12, 1e-8, size=(2, 3, 4))
        rho_u = 5e8
        stats = compute_link_stats(beta, 3, 1, 2e10, rho_u, PAPER_GRID)
        n, guard_span = 20, 17
        link_power = beta.sum(axis=2)
        for p in range(2):
            for q in range(3):
                # Own leakage outside the guard plus the others' spread.
                others = link_power[p].sum() - link_power[p, q]
                xi = ((n - guard_span) / n**2 * link_power[p, q]
                      + others / n)
                assert stats.xi[p, q] == pytest.approx(xi, rel=1e-12)
                for i in range(4):
                    c = mmse_coeff(beta[p, q, i], 2e10, rho_u, xi)
                    assert stats.mmse_c[p, q, i] == pytest.approx(c, rel=1e-12)

    def test_guard_error_propagates(self):
        beta = np.ones((1, 1, 1))
        small = OtfsGrid(doppler_bins=17, delay_bins=30)
        with pytest.raises(GuardWidthError):
            compute_link_stats(beta, 3, 1, 1.0, 1.0, small)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["rho_p", "rho_u"])
    def test_non_finite_power_named(self, name, bad):
        powers = {"rho_p": 1.0, "rho_u": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be .* finite, "
                                             f"got {bad}"):
            compute_link_stats(np.ones((2, 2, 3)), 0, 0, grid=OtfsGrid(4, 8),
                               **powers)
