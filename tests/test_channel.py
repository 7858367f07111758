import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfotfs.channel import (OtfsGrid, PathSet, max_doppler_index,
                            sample_all_paths)
from cfotfs.exceptions import InfeasibleConfigError

PAPER_GRID = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3,
                      carrier_hz=4e9)
FIELDS = ("delay_taps", "doppler", "gains")


class TestGrid:
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

    @pytest.mark.parametrize("speed", [math.inf, math.nan, -1.0])
    def test_bad_speed_named(self, speed):
        with pytest.raises(ValueError, match="speed must be non-negative and "
                                             f"finite, got {speed}"):
            max_doppler_index(speed, PAPER_GRID)


class TestSamplePaths:
    def test_paper_config_ranges(self):
        ps = sample_all_paths(np.full(5, 0.2), 2, 3, PAPER_GRID, seed=0)
        assert ps.delay_taps.shape == ps.doppler.shape == (5,)
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= 2))
        # Tap in {-3..3} plus a fraction in (-0.5, 0.5).
        assert np.all(np.abs(ps.doppler) < 3 + 0.5)

    def test_degenerate_single_path(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        ps = sample_all_paths(np.ones(1), 0, 0, grid, seed=0,
                              fractional=False)
        assert ps.delay_taps[0] == 0
        assert ps.doppler[0] == 0.0

    def test_total_power_converges_to_pair_beta(self):
        pair_beta = 0.7
        rng = np.random.default_rng(2)
        draws = sample_all_paths(np.full((10_000, 4), pair_beta / 4), 2, 3,
                                 PAPER_GRID, rng).gains
        total = np.mean(np.sum(np.abs(draws) ** 2, axis=1))
        assert total == pytest.approx(pair_beta, rel=0.03)

    def test_per_path_moments(self):
        variances = np.array([0.5, 0.5])
        rng = np.random.default_rng(8)
        draws = sample_all_paths(np.tile(variances, (10_000, 1)), 2, 1,
                                 PAPER_GRID, rng).gains
        # Per-path variance and real/imag split.
        var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(var, variances, rtol=0.05)
        np.testing.assert_allclose(draws.real.var(axis=0), variances / 2,
                                   rtol=0.08)
        # Cross-correlation between different paths: zero within 3 SE.
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        se = np.sqrt(variances[0] * variances[1] / len(draws))
        assert abs(cross) < 3.0 * se

    def test_distinct_delays(self):
        ps = sample_all_paths(np.ones(3), 2, 1, PAPER_GRID, seed=4,
                              distinct_delays=True)
        assert len(np.unique(ps.delay_taps)) == 3

    def test_distinct_delays_infeasible(self):
        with pytest.raises(InfeasibleConfigError):
            sample_all_paths(np.ones(4), 2, 1, PAPER_GRID, seed=4,
                             distinct_delays=True)

    def test_rejects_out_of_grid_taps(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        with pytest.raises(ValueError):
            sample_all_paths(np.ones(2), 4, 0, grid, seed=0)
        with pytest.raises(ValueError):
            sample_all_paths(np.ones(2), 2, 2, grid, seed=0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variances"):
            sample_all_paths(np.zeros(2), 2, 1, PAPER_GRID, seed=0)
        with pytest.raises(ValueError, match="variances"):
            sample_all_paths(np.array([[0.5, 0.5], [0.5, 0.0]]), 2, 1,
                             PAPER_GRID, seed=0)

    @pytest.mark.parametrize("variances", [1.0, np.ones((3, 0))])
    def test_variances_need_a_path_axis(self, variances):
        with pytest.raises(ValueError, match="need a path axis"):
            sample_all_paths(variances, 2, 1, PAPER_GRID, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 6),
           l_max=st.integers(0, 7), k_max=st.integers(0, 2),
           fractional=st.booleans())
    def test_ranges_always_respected(self, seed, n_paths, l_max, k_max,
                                     fractional):
        grid = OtfsGrid(doppler_bins=8, delay_bins=8)
        ps = sample_all_paths(np.full(n_paths, 1.0 / n_paths), l_max, k_max,
                              grid, seed=seed, fractional=fractional)
        assert np.all((ps.delay_taps >= 0) & (ps.delay_taps <= l_max))
        assert np.all(np.abs(ps.doppler) < k_max + 0.5)
        if not fractional:
            np.testing.assert_array_equal(ps.doppler, np.round(ps.doppler))
        assert np.all(np.isfinite(ps.gains))


def equal_split(beta, n_paths):
    """Per-path variances that split each link's beta into n_paths equal
    shares, as experiments.realize_links forms them."""
    return np.repeat(np.asarray(beta)[..., None] / n_paths, n_paths, axis=-1)


def test_sample_all_paths_shape_and_stacking():
    beta = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sets = sample_all_paths(equal_split(beta, 2), 2, 1, PAPER_GRID, seed=10)
    assert [len(list(row)) for row in sets] == [2, 2, 2]
    for name in FIELDS:
        assert getattr(sets, name).shape == (3, 2, 2)


def test_sample_all_paths_draws_links_in_row_major_order():
    # Pins the draw order. One link takes its delays, Doppler taps,
    # fractions and gains from the stream in that order ...
    link = sample_all_paths(np.full(3, 0.3), 2, 3, PAPER_GRID,
                            np.random.default_rng(11))
    ref = np.random.default_rng(11)
    np.testing.assert_array_equal(link.delay_taps, ref.integers(0, 3, 3))
    taps = ref.integers(-3, 4, 3)
    np.testing.assert_array_equal(link.doppler,
                                  taps + ref.uniform(-0.5, 0.5, 3))
    re, im = ref.standard_normal(3), ref.standard_normal(3)
    np.testing.assert_array_equal(link.gains,
                                  np.sqrt(0.3 / 2) * (re + 1j * im))
    # ... and a (2, 3) batch equals six single-link draws taken row-major
    # from one shared Generator, bit for bit.
    variances = equal_split([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]], 3)
    for kwargs in ({}, {"distinct_delays": True, "fractional": False}):
        batch = sample_all_paths(variances, 2, 3, PAPER_GRID,
                                 np.random.default_rng(11), **kwargs)
        rng = np.random.default_rng(11)
        for p, q in np.ndindex(2, 3):
            link = sample_all_paths(variances[p, q], 2, 3, PAPER_GRID, rng,
                                    **kwargs)
            assert link.delay_taps.shape == (3,)
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(batch, name)[p, q],
                                              getattr(link, name))


def distinct_link_reference(ref, l_max, k_max, n_paths, variance,
                            fractional):
    """One distinct-delay link drawn from ref by written-out calls: the
    Doppler taps with integers, l_max + 1 sort keys then the fractions
    with one random call, then the normals. The delay taps are the first
    n_paths entries of a stable argsort of the keys."""
    taps = ref.integers(-k_max, k_max + 1, n_paths)
    uniforms = ref.random(l_max + 1 + n_paths * fractional)
    keys, fracs = uniforms[:l_max + 1], uniforms[l_max + 1:] - 0.5
    re, im = ref.standard_normal(n_paths), ref.standard_normal(n_paths)
    return dict(delay_taps=np.argsort(keys, kind="stable")[:n_paths],
                doppler=taps + (fracs if fractional else 0.0),
                gains=np.sqrt(variance / 2) * (re + 1j * im))


def assert_distinct_links_match(links, ref, l_max, k_max, n_paths, variance,
                                fractional):
    for row in range(links.delay_taps.shape[0]):
        delays = links.delay_taps[row]
        assert len(set(delays)) == n_paths
        assert 0 <= delays.min() and delays.max() <= l_max
        expected = distinct_link_reference(ref, l_max, k_max, n_paths,
                                           variance, fractional)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(links, name)[row],
                                          expected[name], strict=True)


@pytest.mark.parametrize("kwargs", [
    {}, {"distinct_delays": True, "fractional": False}])
def test_sample_all_paths_replays_five_call_stream(kwargs):
    # Reference: the sampler's earlier loop, five generator calls per link
    # (delays, Doppler taps, fractions, real parts, imaginary parts),
    # written out. Three paths with k_max > 0 is an odd number of 32-bit
    # bounded draws per tap row, so PCG64's buffered half-word carries
    # from one link into the next. A path's Doppler is its tap plus its
    # fraction, bit for bit. A distinct-delay link draws its Doppler taps,
    # then its l_max + 1 = 3 sort keys, then its normals.
    variances = equal_split([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]], 3)
    batch = sample_all_paths(variances, 2, 3, PAPER_GRID,
                             np.random.default_rng(11), **kwargs)
    rng = np.random.default_rng(11)
    for p, q in np.ndindex(2, 3):
        if kwargs.get("distinct_delays"):
            expected = distinct_link_reference(rng, 2, 3, 3, variances[p, q],
                                               fractional=False)
        else:
            delays = rng.integers(0, 3, size=3)
            taps = rng.integers(-3, 4, size=3)
            fracs = rng.random(3) - 0.5
            re, im = rng.standard_normal(3), rng.standard_normal(3)
            expected = dict(delay_taps=delays, doppler=taps + fracs,
                            gains=np.sqrt(variances[p, q] / 2)
                            * (re + 1j * im))
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(batch, name)[p, q],
                                          expected[name], strict=True)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       l_max=st.integers(0, 12) | st.integers(10_000, 10_060),
       data=st.data(), n_links=st.integers(1, 3), k_max=st.integers(0, 3),
       fractional=st.booleans())
def test_distinct_delay_link_replays_choice(seed, l_max, data, n_links, k_max,
                                            fractional):
    # Named for the Generator.choice replay it once pinned; distinct delay
    # taps now come from sort keys, which it pins link by link. Taps are
    # distinct and inside [0, l_max], and the generator ends where the
    # written-out calls leave it.
    n_paths = data.draw(st.integers(1, min(l_max + 1, 250)), label="n_paths")
    rng = np.random.default_rng(seed)
    links = sample_all_paths(np.full((n_links, n_paths), 0.4), l_max, k_max,
                             OtfsGrid(doppler_bins=8, delay_bins=10_061), rng,
                             fractional=fractional, distinct_delays=True)
    ref = np.random.default_rng(seed)
    assert_distinct_links_match(links, ref, l_max, k_max, n_paths, 0.4,
                                fractional)
    assert rng.random() == ref.random()


def test_distinct_delays_beyond_floyd_branch_call_choice():
    # With more than 10000 taps and L above a fiftieth of them numpy's
    # choice took another branch, which the sampler once called. The sort
    # keys have no such branch: one link after another, each draws
    # l_max + 1 keys, on every run rather than when hypothesis picks it.
    grid = OtfsGrid(doppler_bins=8, delay_bins=10_050)
    links = sample_all_paths(np.ones((2, 202)), 10_049, 2, grid,
                             np.random.default_rng(3), fractional=False,
                             distinct_delays=True)
    assert_distinct_links_match(links, np.random.default_rng(3), 10_049, 2,
                                202, 1.0, fractional=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_power_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        sample_all_paths(np.full(2, bad), 2, 1, PAPER_GRID, seed=0)
    variances = np.ones((3, 2, 4))
    variances[2, 1, 3] = bad
    with pytest.raises(ValueError, match="variances must be positive and finite"):
        sample_all_paths(variances, 2, 1, PAPER_GRID, seed=0)


def make_batch(shape=(3, 2, 4)):
    rng = np.random.default_rng(0)
    return dict(delay_taps=rng.integers(0, 3, shape),
                doppler=rng.integers(-2, 3, shape) + rng.uniform(-0.4, 0.4, shape),
                gains=rng.standard_normal(shape) + 1j)


class TestBatchedPathSet:
    def test_iterates_rows_then_links(self):
        arrays = make_batch()
        paths = PathSet(**arrays)
        taps = np.array([[link.delay_taps for link in row] for row in paths])
        np.testing.assert_array_equal(taps, arrays["delay_taps"])
        assert [len(list(row)) for row in paths] == [2, 2, 2]
        doppler = np.array([[link.doppler for link in row] for row in paths])
        np.testing.assert_array_equal(doppler, arrays["doppler"])

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

    def test_holds_the_sampled_arrays(self):
        # A path set holds what the sampler draws: taps, one Doppler array
        # and gains, read through array indexing.
        assert [f.name for f in fields(PathSet)] == list(FIELDS)
        arrays = make_batch()
        paths = PathSet(**arrays)
        assert (paths.delay_taps.dtype.kind, paths.doppler.dtype.kind,
                paths.gains.dtype.kind) == ("i", "f", "c")
        np.testing.assert_array_equal(paths.doppler[:, 1],
                                      arrays["doppler"][:, 1])

    def test_mismatched_shapes_rejected(self):
        for name in ("doppler", "gains"):
            arrays = make_batch()
            arrays[name] = arrays[name][:, :1]
            with pytest.raises(ValueError, match="equal shapes"):
                PathSet(**arrays)
        with pytest.raises(ValueError):
            PathSet(**make_batch(shape=(2, 0)))
        with pytest.raises(ValueError):
            PathSet(**{name: value[0, 0, 0]
                       for name, value in make_batch().items()})

    def test_zero_variance_anywhere_rejected(self):
        # The sampler, which draws a batch's gains, checks every variance.
        variances = np.random.default_rng(0).uniform(0.1, 1.0, (3, 2, 4))
        variances[2, 1, 3] = 0.0
        with pytest.raises(ValueError, match="variances"):
            sample_all_paths(variances, 2, 1, PAPER_GRID, seed=0)

    def test_non_finite_doppler_anywhere_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            arrays = make_batch()
            arrays["doppler"][1, 0, 2] = bad
            with pytest.raises(ValueError, match="Dopplers must be finite"):
                PathSet(**arrays)
