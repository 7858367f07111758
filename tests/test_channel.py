import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfotfs.channel import (OtfsGrid, PathSet, max_doppler_index,
                            sample_all_paths)
from cfotfs.exceptions import InfeasibleConfigError

PAPER_GRID = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3,
                      carrier_hz=4e9)
FIELDS = ("delay_taps", "doppler_taps", "frac_dopplers", "variances",
          "gains")


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
        ps = sample_all_paths(1.0, 5, 2, 3, PAPER_GRID, seed=0)
        assert ps.n_paths == 5
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= 2))
        assert np.all((ps.doppler_taps >= -3) & (ps.doppler_taps <= 3))
        assert np.all(np.abs(ps.frac_dopplers) < 0.5)

    def test_degenerate_single_path(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        ps = sample_all_paths(1.0, 1, 0, 0, grid, seed=0,
                              fractional=False)
        assert ps.delay_taps[0] == 0
        assert ps.doppler_taps[0] == 0
        assert ps.frac_dopplers[0] == 0.0

    def test_total_power_converges_to_pair_beta(self):
        pair_beta = 0.7
        rng = np.random.default_rng(2)
        draws = sample_all_paths(np.full(10_000, pair_beta), 4, 2, 3,
                                 PAPER_GRID, rng).gains
        total = np.mean(np.sum(np.abs(draws) ** 2, axis=1))
        assert total == pytest.approx(pair_beta, rel=0.03)

    def test_per_path_moments(self):
        variances = sample_all_paths(1.0, 2, 2, 1, PAPER_GRID,
                                     seed=7).variances
        rng = np.random.default_rng(8)
        draws = sample_all_paths(np.ones(10_000), 2, 2, 1, PAPER_GRID,
                                 rng).gains
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
        ps = sample_all_paths(0.9, 3, 2, 1, PAPER_GRID, seed=3)
        np.testing.assert_allclose(ps.variances, 0.3)
        assert ps.variances.sum() == pytest.approx(0.9)

    def test_distinct_delays(self):
        ps = sample_all_paths(1.0, 3, 2, 1, PAPER_GRID, seed=4,
                              distinct_delays=True)
        assert len(np.unique(ps.delay_taps)) == 3

    def test_distinct_delays_infeasible(self):
        with pytest.raises(InfeasibleConfigError):
            sample_all_paths(1.0, 4, 2, 1, PAPER_GRID, seed=4,
                             distinct_delays=True)

    def test_rejects_out_of_grid_taps(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        with pytest.raises(ValueError):
            sample_all_paths(1.0, 2, 4, 0, grid, seed=0)
        with pytest.raises(ValueError):
            sample_all_paths(1.0, 2, 2, 2, grid, seed=0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            PathSet(delay_taps=[0], doppler_taps=[0], frac_dopplers=[0.0],
                    variances=[0.0], gains=[0.0])
        with pytest.raises(ValueError):
            sample_all_paths(0.0, 2, 2, 1, PAPER_GRID, seed=0)
        with pytest.raises(ValueError):
            sample_all_paths(np.array([[1.0, 0.0]]), 2, 2, 1, PAPER_GRID,
                             seed=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 6),
           l_max=st.integers(0, 7), k_max=st.integers(0, 2))
    def test_ranges_always_respected(self, seed, n_paths, l_max, k_max):
        grid = OtfsGrid(doppler_bins=8, delay_bins=8)
        ps = sample_all_paths(1.0, n_paths, l_max, k_max, grid, seed=seed)
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= l_max))
        assert np.all(np.abs(ps.doppler_taps) <= k_max)
        assert np.all(np.abs(ps.frac_dopplers) < 0.5)
        assert np.all(ps.variances > 0)


def test_sample_all_paths_shape_and_stacking():
    beta = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sets = sample_all_paths(beta, 2, 2, 1, PAPER_GRID, seed=10)
    assert sets.n_paths == 2
    assert [len(list(row)) for row in sets] == [2, 2, 2]
    for name in FIELDS:
        assert getattr(sets, name).shape == (3, 2, 2)
    np.testing.assert_allclose(sets.variances.sum(axis=2), beta)


def test_sample_all_paths_draws_links_in_row_major_order():
    # Pins the draw order. One link takes its delays, Doppler taps,
    # fractions and gains from the stream in that order ...
    link = sample_all_paths(0.9, 3, 2, 3, PAPER_GRID,
                            np.random.default_rng(11))
    ref = np.random.default_rng(11)
    np.testing.assert_array_equal(link.delay_taps, ref.integers(0, 3, 3))
    np.testing.assert_array_equal(link.doppler_taps, ref.integers(-3, 4, 3))
    np.testing.assert_array_equal(link.frac_dopplers,
                                  ref.uniform(-0.5, 0.5, 3))
    re, im = ref.standard_normal(3), ref.standard_normal(3)
    np.testing.assert_array_equal(link.gains,
                                  np.sqrt(link.variances / 2) * (re + 1j * im))
    # ... and a (2, 3) batch equals six single-link draws taken row-major
    # from one shared Generator, bit for bit.
    beta = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
    for kwargs in ({}, {"distinct_delays": True, "fractional": False}):
        batch = sample_all_paths(beta, 3, 2, 3, PAPER_GRID,
                                 np.random.default_rng(11), **kwargs)
        rng = np.random.default_rng(11)
        for p, q in np.ndindex(2, 3):
            link = sample_all_paths(beta[p, q], 3, 2, 3, PAPER_GRID, rng,
                                    **kwargs)
            assert link.delay_taps.shape == (3,)
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(batch, name)[p, q],
                                              getattr(link, name))


@pytest.mark.parametrize("kwargs", [
    {}, {"distinct_delays": True, "fractional": False}])
def test_sample_all_paths_replays_five_call_stream(kwargs):
    # Reference: the sampler's earlier loop, five generator calls per link
    # (delays, Doppler taps, fractions, real parts, imaginary parts),
    # written out. Three paths with k_max > 0 is an odd number of 32-bit
    # bounded draws per tap row, so PCG64's buffered half-word carries
    # from one link into the next.
    beta = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
    batch = sample_all_paths(beta, 3, 2, 3, PAPER_GRID,
                             np.random.default_rng(11), **kwargs)
    rng = np.random.default_rng(11)
    for p, q in np.ndindex(2, 3):
        if kwargs.get("distinct_delays"):
            delays = rng.choice(3, size=3, replace=False)
        else:
            delays = rng.integers(0, 3, size=3)
        dopplers = rng.integers(-3, 4, size=3)
        if kwargs.get("fractional", True):
            fracs = rng.uniform(-0.5, 0.5, size=3)
        else:
            fracs = np.zeros(3)
        variances = np.full(3, beta[p, q] / 3)
        re, im = rng.standard_normal(3), rng.standard_normal(3)
        expected = dict(delay_taps=delays, doppler_taps=dopplers,
                        frac_dopplers=fracs, variances=variances,
                        gains=np.sqrt(variances / 2) * (re + 1j * im))
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(batch, name)[p, q],
                                          expected[name], strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_power_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        sample_all_paths(bad, 2, 2, 1, PAPER_GRID, seed=0)
    beta = np.ones((3, 2))
    beta[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        sample_all_paths(beta, 2, 2, 1, PAPER_GRID, seed=0)
    arrays = make_batch()
    arrays["variances"][2, 1, 3] = bad
    with pytest.raises(ValueError, match="variances must be positive and finite"):
        PathSet(**arrays)


def make_batch(shape=(3, 2, 4)):
    rng = np.random.default_rng(0)
    return dict(delay_taps=rng.integers(0, 3, shape),
                doppler_taps=rng.integers(-2, 3, shape),
                frac_dopplers=rng.uniform(-0.4, 0.4, shape),
                variances=rng.uniform(0.1, 1.0, shape),
                gains=rng.standard_normal(shape) + 1j)


class TestBatchedPathSet:
    def test_iterates_rows_then_links(self):
        arrays = make_batch()
        paths = PathSet(**arrays)
        taps = np.array([[link.delay_taps for link in row] for row in paths])
        np.testing.assert_array_equal(taps, arrays["delay_taps"])
        assert [len(list(row)) for row in paths] == [2, 2, 2]

    def test_single_link_cannot_be_indexed(self):
        # Paths are read through the arrays only; a single link has no
        # link axis to iterate either.
        arrays = make_batch()
        link = PathSet(**{name: value[0, 1] for name, value in arrays.items()})
        with pytest.raises(TypeError):
            link[0]
        with pytest.raises(TypeError):
            PathSet(**arrays)[0, 1]
        with pytest.raises(IndexError, match="no link axis"):
            list(link)

    def test_doppler_is_tap_plus_fraction(self):
        arrays = make_batch()
        paths = PathSet(**arrays)
        total = arrays["doppler_taps"] + arrays["frac_dopplers"]
        np.testing.assert_array_equal(paths.doppler(), total)
        np.testing.assert_array_equal(paths.doppler(np.s_[:, 1]),
                                      total[:, 1])

    def test_mismatched_shapes_rejected(self):
        arrays = make_batch()
        arrays["gains"] = arrays["gains"][:, :1]
        with pytest.raises(ValueError, match="equal shapes"):
            PathSet(**arrays)
        with pytest.raises(ValueError):
            PathSet(**make_batch(shape=(2, 0)))
        with pytest.raises(ValueError):
            PathSet(**{name: value[0, 0, 0]
                       for name, value in make_batch().items()})

    def test_zero_variance_anywhere_rejected(self):
        arrays = make_batch()
        arrays["variances"][2, 1, 3] = 0.0
        with pytest.raises(ValueError, match="variances"):
            PathSet(**arrays)

    def test_fractional_doppler_bound_anywhere_rejected(self):
        for bad in (0.5, -0.5, 0.7, np.nan):
            arrays = make_batch()
            arrays["frac_dopplers"][1, 0, 2] = bad
            with pytest.raises(ValueError, match="fractional Doppler"):
                PathSet(**arrays)
