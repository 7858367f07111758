import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfotfs.channel import (OtfsGrid, PathSet, max_doppler_index,
                            sample_all_paths, sample_paths, stack_variances)
from cfotfs.exceptions import InfeasibleConfigError

PAPER_GRID = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3,
                      carrier_hz=4e9)


class TestGrid:
    def test_symbol_duration_inverse_of_spacing(self):
        assert PAPER_GRID.symbol_duration_s * PAPER_GRID.delta_f_hz == 1.0

    def test_size(self):
        assert PAPER_GRID.size == 600

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            OtfsGrid(doppler_bins=0, delay_bins=4)


class TestMaxDopplerIndex:
    def test_500_kmh_gives_three(self):
        assert max_doppler_index(500.0, PAPER_GRID) == 3

    def test_static_user(self):
        assert max_doppler_index(0.0, PAPER_GRID) == 0

    def test_100_kmh(self):
        # Hand evaluation: nu_max = 4e9 * (100/3.6) / 2.998e8 = 370.6 Hz,
        # Doppler resolution = 15 kHz / 20 = 750 Hz, ceil(0.494) = 1.
        nu_max = 4e9 * (100.0 / 3.6) / 2.998e8
        assert math.ceil(nu_max / 750.0) == 1
        assert max_doppler_index(100.0, PAPER_GRID) == 1


class TestSamplePaths:
    def test_paper_config_ranges(self):
        ps = sample_paths(1.0, 5, 2, 3, PAPER_GRID, seed=0)
        assert ps.n_paths == 5
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= 2))
        assert np.all((ps.doppler_taps >= -3) & (ps.doppler_taps <= 3))
        assert np.all(np.abs(ps.frac_dopplers) < 0.5)

    def test_degenerate_single_path(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        ps = sample_paths(1.0, 1, 0, 0, grid, seed=0, fractional=False)
        assert ps.delay_taps[0] == 0
        assert ps.doppler_taps[0] == 0
        assert ps.frac_dopplers[0] == 0.0

    def test_total_power_converges_to_pair_beta(self):
        pair_beta = 0.7
        rng = np.random.default_rng(2)
        draws = np.array([sample_paths(pair_beta, 4, 2, 3, PAPER_GRID,
                                       rng).gains for _ in range(10_000)])
        total = np.mean(np.sum(np.abs(draws) ** 2, axis=1))
        assert total == pytest.approx(pair_beta, rel=0.03)

    def test_per_path_moments(self):
        variances = sample_paths(1.0, 2, 2, 1, PAPER_GRID, seed=7).variances
        rng = np.random.default_rng(8)
        draws = np.array([sample_paths(1.0, 2, 2, 1, PAPER_GRID, rng).gains
                          for _ in range(10_000)])
        # Per-path variance and real/imag split.
        var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(var, variances, rtol=0.05)
        np.testing.assert_allclose(draws.real.var(axis=0), variances / 2,
                                   rtol=0.08)
        # Cross-correlation between different paths: zero within 3 SE.
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        se = np.sqrt(variances[0] * variances[1] / len(draws))
        assert abs(cross) < 3.0 * se

    def test_uniform_profile_splits_pair_power(self):
        ps = sample_paths(0.9, 3, 2, 1, PAPER_GRID, seed=3)
        np.testing.assert_allclose(ps.variances, 0.3)
        assert ps.variances.sum() == pytest.approx(0.9)

    def test_replicate_profile(self):
        ps = sample_paths(0.9, 3, 2, 1, PAPER_GRID, seed=3,
                          power_profile="replicate")
        np.testing.assert_allclose(ps.variances, 0.9)

    def test_distinct_delays(self):
        ps = sample_paths(1.0, 3, 2, 1, PAPER_GRID, seed=4,
                          distinct_delays=True)
        assert len(np.unique(ps.delay_taps)) == 3
        assert ps.has_distinct_delays()

    def test_distinct_delays_infeasible(self):
        with pytest.raises(InfeasibleConfigError):
            sample_paths(1.0, 4, 2, 1, PAPER_GRID, seed=4,
                         distinct_delays=True)

    def test_rejects_out_of_grid_taps(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        with pytest.raises(ValueError):
            sample_paths(1.0, 2, 4, 0, grid, seed=0)
        with pytest.raises(ValueError):
            sample_paths(1.0, 2, 2, 2, grid, seed=0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            PathSet(ap=0, user=0, delay_taps=[0], doppler_taps=[0],
                    frac_dopplers=[0.0], variances=[0.0], gains=[0.0])
        with pytest.raises(ValueError):
            sample_paths(0.0, 2, 2, 1, PAPER_GRID, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 6),
           l_max=st.integers(0, 7), k_max=st.integers(0, 2))
    def test_ranges_always_respected(self, seed, n_paths, l_max, k_max):
        grid = OtfsGrid(doppler_bins=8, delay_bins=8)
        ps = sample_paths(1.0, n_paths, l_max, k_max, grid, seed=seed)
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= l_max))
        assert np.all(np.abs(ps.doppler_taps) <= k_max)
        assert np.all(np.abs(ps.frac_dopplers) < 0.5)
        assert np.all(ps.variances > 0)


def test_sample_all_paths_shape_and_stacking():
    beta = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sets = sample_all_paths(beta, 2, 2, 1, PAPER_GRID, seed=10)
    assert len(sets) == 3 and len(sets[0]) == 2
    assert sets[2][1].ap == 2 and sets[2][1].user == 1
    stacked = stack_variances(sets)
    assert stacked.shape == (3, 2, 2)
    np.testing.assert_allclose(stacked.sum(axis=2), beta)
