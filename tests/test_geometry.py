import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfotfs.geometry import (Layout, NetworkConfig, apply_shadowing,
                             path_loss_db, place_network, wrapped_distance)


def make_config(**kw):
    defaults = dict(num_aps=4, num_users=3)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestPlacement:
    def test_counts_and_bounds(self):
        cfg = make_config(num_aps=40, num_users=20, area_side_km=1.0)
        layout = place_network(cfg, seed=0)
        assert layout.ap_positions.shape == (40, 2)
        assert layout.user_positions.shape == (20, 2)
        for pts in (layout.ap_positions, layout.user_positions):
            assert np.all(pts >= 0.0) and np.all(pts < 1000.0)

    def test_deterministic_under_seed(self):
        cfg = make_config(num_aps=1, num_users=1)
        a = place_network(cfg, seed=123)
        b = place_network(cfg, seed=123)
        np.testing.assert_array_equal(a.ap_positions, b.ap_positions)
        np.testing.assert_array_equal(a.user_positions, b.user_positions)

    def test_mean_position_law_of_large_numbers(self):
        # 1e4 single-AP placements: mean within 3 standard errors of the
        # uniform-square centroid (SE = 1000/sqrt(12)/sqrt(n) per axis).
        cfg = make_config(num_aps=1, num_users=1)
        rng = np.random.default_rng(7)
        pts = np.array([place_network(cfg, rng).ap_positions[0]
                        for _ in range(10_000)])
        se = 1000.0 / np.sqrt(12.0) / np.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - 500.0) < 3.0 * se)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            make_config(num_aps=0)
        with pytest.raises(ValueError):
            make_config(d0_m=60.0, d1_m=50.0)


class TestWrappedDistance:
    def test_identity(self):
        assert wrapped_distance((0.0, 0.0), (0.0, 0.0), 1000.0) == 0.0

    def test_wraps_around_edge(self):
        assert wrapped_distance((0.0, 0.0), (999.0, 0.0), 1000.0) == pytest.approx(1.0)

    @settings(max_examples=200)
    @given(st.lists(st.floats(0.0, 999.999), min_size=4, max_size=4))
    def test_metric_properties(self, coords):
        a, b = np.array(coords[:2]), np.array(coords[2:])
        side = 1000.0
        d_ab = wrapped_distance(a, b, side)
        d_ba = wrapped_distance(b, a, side)
        assert d_ab == pytest.approx(d_ba, abs=1e-9)
        assert d_ab <= np.linalg.norm(a - b) + 1e-9
        assert d_ab <= side / np.sqrt(2.0) + 1e-9


class TestPathLoss:
    def test_floor_below_d0(self):
        cfg = make_config()
        assert path_loss_db(cfg.d0_m / 2.0, cfg) == path_loss_db(cfg.d0_m, cfg)

    def test_value_at_one_km(self):
        # log10(1 km) = 0 leaves only the loss constant.
        cfg = make_config(path_loss_const_db=140.7)
        assert path_loss_db(1000.0, cfg) == pytest.approx(-140.7)

    def test_continuous_at_d1(self):
        cfg = make_config()
        eps = 1e-6
        below = path_loss_db(cfg.d1_m - eps, cfg)
        above = path_loss_db(cfg.d1_m + eps, cfg)
        assert abs(above - below) < 0.01

    def test_monotone_beyond_floor(self):
        cfg = make_config()
        d = np.linspace(cfg.d0_m, 1400.0, 300)
        pl = path_loss_db(d, cfg)
        assert np.all(np.diff(pl) <= 1e-12)


class TestShadowing:
    def test_zero_sigma_gives_pure_path_loss(self):
        cfg = make_config(shadow_std_db=0.0)
        layout = place_network(cfg, seed=1)
        beta = apply_shadowing(layout, cfg, seed=2)
        d = wrapped_distance(layout.ap_positions[:, None, :],
                             layout.user_positions[None, :, :], cfg.side_m)
        expected = 10.0 ** (path_loss_db(d, cfg) / 10.0)
        np.testing.assert_allclose(beta, expected, rtol=1e-12)
        assert np.all(beta > 0.0)

    def test_empirical_std_matches_sigma(self):
        # Single far pair (d > d1), 1e4 realizations of the shadow term.
        cfg = make_config(num_aps=1, num_users=1, shadow_std_db=8.0)
        layout = Layout(ap_positions=np.array([[0.0, 0.0]]),
                        user_positions=np.array([[500.0, 0.0]]))
        pl_lin = 10.0 ** (path_loss_db(500.0, cfg) / 10.0)
        rng = np.random.default_rng(11)
        draws = np.array([
            apply_shadowing(layout, cfg, rng)[0, 0]
            for _ in range(10_000)
        ])
        shadow_db = 10.0 * np.log10(draws / pl_lin)
        assert shadow_db.std() == pytest.approx(8.0, rel=0.02)

    def test_no_shadowing_inside_d1(self):
        cfg = make_config(num_aps=1, num_users=1)
        layout = Layout(ap_positions=np.array([[0.0, 0.0]]),
                        user_positions=np.array([[30.0, 0.0]]))
        a = apply_shadowing(layout, cfg, seed=3)
        b = apply_shadowing(layout, cfg, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_colocated_users_fully_correlated(self):
        # Two users at the same spot see identical user fields, so their
        # shadow terms toward one AP correlate to machine precision.
        cfg = make_config(num_aps=1, num_users=2)
        layout = Layout(ap_positions=np.array([[0.0, 0.0]]),
                        user_positions=np.array([[600.0, 200.0],
                                                 [600.0, 200.0]]))
        rng = np.random.default_rng(5)
        draws = np.array([
            10.0 * np.log10(apply_shadowing(layout, cfg, rng,
                                            correlated=True)[0])
            for _ in range(10_000)
        ])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert corr >= 1.0 - 1e-6

    def test_correlated_mode_unit_variance(self):
        cfg = make_config(num_aps=2, num_users=2, shadow_std_db=8.0)
        layout = place_network(cfg, seed=8)
        d = wrapped_distance(layout.ap_positions[:, None, :],
                             layout.user_positions[None, :, :], cfg.side_m)
        pl_lin = 10.0 ** (path_loss_db(d, cfg) / 10.0)
        rng = np.random.default_rng(9)
        far = d > cfg.d1_m
        samples = []
        for _ in range(4000):
            beta = apply_shadowing(layout, cfg, rng, correlated=True)
            samples.append(10.0 * np.log10(beta / pl_lin)[far])
        samples = np.array(samples)
        assert samples.std(axis=0) == pytest.approx(8.0, rel=0.1)
