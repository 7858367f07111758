import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dense_reference import (all_pairs_chi_kappa_tables,
                             brute_force_operator, chi_kappa)

from cfotfs.channel import OtfsGrid, PathSet, sample_all_paths
from cfotfs.exceptions import IdentityCheckError
from cfotfs.operators import (chi_kappa_tables, dd_blocks, dd_operator,
                              verify_operator_identities)


def make_path(delay, doppler, frac=0.0):
    """(delay tap, Doppler) of one path: the Doppler is the integer tap
    plus its fraction."""
    return delay, doppler + frac


def make_pathset(delays, dopplers, fracs=None):
    n = len(delays)
    fracs = [0.0] * n if fracs is None else fracs
    return PathSet(delay_taps=delays, doppler=np.add(dopplers, fracs),
                   gains=[1.0] * n)


class TestDdOperator:
    def test_zero_taps_give_identity(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        t = dd_operator(*make_path(0, 0), grid)
        np.testing.assert_allclose(t, np.eye(16), atol=1e-12)

    def test_matches_brute_force_construction(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        t = dd_operator(*make_path(1, 0), grid)
        ref = brute_force_operator(1, 0.0, 2, 2)
        np.testing.assert_allclose(t, ref, atol=1e-12)

    def test_matches_brute_force_fractional(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=3)
        t = dd_operator(*make_path(2, -1, 0.37), grid)
        ref = brute_force_operator(2, -1 + 0.37, 3, 4)
        np.testing.assert_allclose(t, ref, atol=1e-12)

    @pytest.mark.parametrize("doppler", [0.0, 1.0, -2.7, 0.49])
    @pytest.mark.parametrize("n, m", [(1, 4), (4, 1), (3, 5), (4, 3),
                                      (8, 16)])
    def test_matches_literal_product_at_every_tap(self, n, m, doppler):
        # Every delay tap, so the taps whose shift carries a Doppler step
        # past the last delay bin are covered.
        grid = OtfsGrid(doppler_bins=n, delay_bins=m)
        for delay in range(m):
            np.testing.assert_allclose(
                dd_operator(delay, doppler, grid),
                brute_force_operator(delay, doppler, m, n), rtol=0,
                atol=1e-12, err_msg=f"delay tap {delay}")

    def test_array_of_paths_matches_scalar_calls(self):
        # Taps near M carry a Doppler step past the last delay bin.
        grid = OtfsGrid(doppler_bins=4, delay_bins=5)
        taps = np.array([[0, 4, 3], [1, 4, 2]])
        doppler = np.array([[0.0, -1.3, 0.49], [2.0, 0.21, -0.4]])
        stack = dd_operator(taps, doppler, grid)
        assert stack.shape == (2, 3, grid.size, grid.size)
        for index in np.ndindex(taps.shape):
            one = dd_operator(int(taps[index]), float(doppler[index]), grid)
            assert one.tobytes() == stack[index].tobytes()

    def test_non_integer_delay_tap_rejected(self):
        with pytest.raises(ValueError, match="delay tap must be an integer"):
            dd_operator(1.5, 0.0, OtfsGrid(4, 8))

    @pytest.mark.parametrize("doppler", [np.nan, np.inf, -np.inf])
    def test_non_finite_doppler_rejected(self, doppler):
        with pytest.raises(ValueError, match="Doppler must be finite"):
            dd_operator(1, doppler, OtfsGrid(4, 8))

    @settings(max_examples=40, deadline=None)
    @given(delay=st.integers(0, 3), doppler=st.integers(-2, 1),
           frac=st.floats(-0.499, 0.499))
    def test_unitary(self, delay, doppler, frac):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        t = dd_operator(*make_path(delay, doppler, frac), grid)
        np.testing.assert_allclose(t @ t.conj().T, np.eye(16), atol=1e-10)

    def test_split_composition(self):
        # Shift-only times Doppler-only operators compose to the full one.
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        full = dd_operator(*make_path(3, 1, 0.21), grid)
        shift = dd_operator(*make_path(3, 0, 0.0), grid)
        dopp = dd_operator(*make_path(0, 1, 0.21), grid)
        np.testing.assert_allclose(full, shift @ dopp, atol=1e-12)


class TestDdBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_blocks_match_literal_product(self, n):
        # Column c2 of tap l lands at delay row (c2 + l) mod M; taps with
        # c2 + l >= M carry a Doppler step past the last delay bin.
        m = 5
        grid = OtfsGrid(doppler_bins=n, delay_bins=m)
        taps = np.array([0, 2, 4])
        doppler = np.array([0.0, -1.37, 0.49])
        columns = np.arange(m)[:, None]
        blocks = dd_blocks(taps, doppler, columns, grid)
        assert blocks.shape == (m, len(taps), n, n)
        for index, (tap, nu) in enumerate(zip(taps, doppler)):
            dense = brute_force_operator(tap, nu, m, n).reshape(n, m, n, m)
            for c2 in range(m):
                np.testing.assert_allclose(
                    blocks[c2, index], dense[:, (c2 + tap) % m, :, c2],
                    rtol=0, atol=1e-12, err_msg=f"tap {tap}, column {c2}")

    @pytest.mark.parametrize("column", [-1, 5, 1.0])
    def test_column_not_an_index_of_the_grid_rejected(self, column):
        with pytest.raises(ValueError, match="column"):
            dd_blocks(1, 0.3, column, OtfsGrid(doppler_bins=4, delay_bins=5))


def link_channel(paths, grid):
    """Dense DD channel of one link: the gain-weighted sum of its path
    operators."""
    return sum(gain * dd_operator(delay, doppler, grid)
               for gain, delay, doppler
               in zip(paths.gains, paths.delay_taps, paths.doppler))


class TestEffectiveChannel:
    def test_single_unit_path_identity(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        ps = make_pathset([0], [0])
        np.testing.assert_allclose(link_channel(ps, grid), np.eye(4),
                                   atol=1e-12)

    def test_matches_scalar_relation_integer_doppler(self):
        # Independent bin-by-bin evaluation of the DD input-output relation
        # with integer Doppler: the path shifts the input by its taps and
        # applies a phase ramp in the delay index, plus an extra full-cycle
        # phase when the observation delay precedes the path's delay tap.
        m, n = 4, 2
        grid = OtfsGrid(doppler_bins=n, delay_bins=m)
        rng = np.random.default_rng(1)
        ps = sample_all_paths(np.full(3, 1 / 3), m - 1, 0, grid, rng,
                              fractional=False)
        x = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        y_matrix = link_channel(ps, grid) @ x
        y_scalar = np.zeros(m * n, dtype=complex)
        for k in range(n):
            for ell in range(m):
                acc = 0.0 + 0j
                for i in range(len(ps.delay_taps)):
                    ki, li = int(ps.doppler[i]), int(ps.delay_taps[i])
                    coeff = ps.gains[i] * np.exp(
                        2j * np.pi * ki * (ell - li) / (m * n))
                    if ell < li:
                        coeff *= np.exp(-2j * np.pi * ((k - ki) % n) / n)
                    acc += coeff * x[((k - ki) % n) * m + (ell - li) % m]
                y_scalar[k * m + ell] = acc
        np.testing.assert_allclose(y_matrix, y_scalar, atol=1e-10)


@st.composite
def path_batches(draw):
    """(delay taps, Dopplers, N) of a batch of links shaped (..., L): up
    to two leading axes, L = 1..6, taps from {0, 1, 2} so that links
    repeat them, and Dopplers up to +-6N, exact integers among them."""
    n = draw(st.integers(1, 12))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    shape += (draw(st.integers(1, 6)),)
    size = int(np.prod(shape))
    taps = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    doppler = draw(st.lists(
        st.integers(-6 * n, 6 * n).map(float)
        | st.floats(-6.0 * n, 6.0 * n, allow_nan=False),
        min_size=size, max_size=size))
    return np.reshape(taps, shape), np.reshape(doppler, shape), n


class TestChiKappa:
    def test_same_path_is_one_zero(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        p = make_path(2, 1, 0.3)
        assert chi_kappa(p, p, 5, grid) == (1.0, 0.0)

    def test_distinct_delay_zero_diagonal_unit_rowsum(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        p1 = make_path(1, 1, 0.2)
        p2 = make_path(3, -1, -0.4)
        for r in (0, 7, 12, 15):
            chi, kap = chi_kappa(p1, p2, r, grid)
            assert chi == pytest.approx(0.0, abs=1e-12)
            assert kap == pytest.approx(1.0, abs=1e-10)

    def assert_tables_match_every_bin(self, ps, grid):
        """The single (L, L) table entry equals the dense chi_kappa at
        every bin of the grid."""
        chi_t, kap_t = chi_kappa_tables(ps.delay_taps, ps.doppler,
                                        grid.doppler_bins)
        n_paths = len(ps.delay_taps)
        assert chi_t.shape == kap_t.shape == (n_paths, n_paths)
        paths = list(zip(ps.delay_taps, ps.doppler))
        for i, path_i in enumerate(paths):
            for j, path_j in enumerate(paths):
                for r in range(grid.size):
                    chi, kap = chi_kappa(path_i, path_j, r, grid)
                    assert chi == pytest.approx(chi_t[i, j], abs=1e-10)
                    assert kap == pytest.approx(kap_t[i, j], abs=1e-10)

    def test_tables_match_per_bin_values(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=8)
        rng = np.random.default_rng(2)
        for _ in range(3):
            self.assert_tables_match_every_bin(
                sample_all_paths(np.ones(5), 7, 1, grid, rng), grid)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), m=st.integers(2, 6),
           dopplers=st.lists(st.tuples(st.integers(-2, 2),
                                       st.floats(-0.49, 0.49)),
                             min_size=3, max_size=4),
           free_delays=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    @example(n=5, m=3, dopplers=[(1, 0.0), (-1, 0.0), (0, 0.25), (2, -0.3)],
             free_delays=(0, 2))
    # Doppler difference of exactly N on a shared tap: D = 1 again.
    @example(n=2, m=3, dopplers=[(1, 0.0), (-1, 0.0), (0, 0.25)],
             free_delays=(0, 0))
    # Difference a hair below N: the closed form must not cancel.
    @example(n=3, m=2, dopplers=[(1, 0.0), (-2, 2.8e-9), (0, 0.0)],
             free_delays=(0, 0))
    def test_tables_match_dense_reference(self, n, m, dopplers, free_delays):
        # Paths 0 and 1 share the wrap-around tap M - 1 with different
        # Doppler; path 2 has a smaller tap (a distinct-delay pair with
        # both); path 3, if drawn, may repeat any tap.
        assume(dopplers[0] != dopplers[1])
        delays = [m - 1, m - 1, free_delays[0] % (m - 1),
                  free_delays[1] % m][:len(dopplers)]
        ps = make_pathset(delays, [k for k, _ in dopplers],
                          fracs=[f for _, f in dopplers])
        self.assert_tables_match_every_bin(
            ps, OtfsGrid(doppler_bins=n, delay_bins=m))

    def test_identical_taps_off_diagonal(self):
        # Two distinct paths with the same delay and Doppler (d = 0) act
        # as one operator: (1, 0) like the diagonal, at every bin.
        grid = OtfsGrid(doppler_bins=5, delay_bins=3)
        ps = make_pathset([2, 2, 0], [1, 1, -1], fracs=[0.3, 0.3, 0.1])
        self.assert_tables_match_every_bin(ps, grid)
        chi_t, kap_t = chi_kappa_tables(ps.delay_taps, ps.doppler, 5)
        assert (chi_t[0, 1], kap_t[0, 1]) == (1.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(batch=path_batches())
    # Difference a hair below N on a shared tap, as in the dense check.
    @example(batch=(np.array([1, 1, 0]), np.array([1.0, -2.0 + 2.8e-9, 0.0]),
                    3))
    def test_tables_equal_all_pairs_reference(self, batch):
        # Evaluating only the same-delay pairs above the diagonal and
        # mirroring them gives the all-pairs evaluation bit for bit.
        got = chi_kappa_tables(*batch)
        want = all_pairs_chi_kappa_tables(*batch)
        for table, reference in zip(got, want):
            assert table.shape == reference.shape == batch[1].shape + (
                batch[1].shape[-1],)
            assert table.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(batch=path_batches())
    def test_tables_are_symmetric(self, batch):
        for table in chi_kappa_tables(*batch):
            mirrored = np.swapaxes(table, -1, -2).copy()
            assert table.tobytes() == mirrored.tobytes()

    def test_stacked_call_equals_per_link_calls(self):
        grid = OtfsGrid(doppler_bins=6, delay_bins=4)
        rng = np.random.default_rng(7)
        links = sample_all_paths(np.ones((5, 4)), 3, 2, grid, rng)
        delays = links.delay_taps
        doppler = links.doppler
        chi_s, kap_s = chi_kappa_tables(delays, doppler, grid.doppler_bins)
        assert chi_s.shape == kap_s.shape == (5, 4, 4)
        for p in range(5):
            chi, kap = chi_kappa_tables(delays[p], doppler[p],
                                        grid.doppler_bins)
            np.testing.assert_array_equal(chi_s[p], chi)
            np.testing.assert_array_equal(kap_s[p], kap)

    def test_doppler_coordinate_invariance(self):
        # chi/kappa at bins sharing a delay coordinate agree across the
        # Doppler coordinate, including with repeated delay taps.
        grid = OtfsGrid(doppler_bins=4, delay_bins=3)
        p1 = make_path(1, 1, 0.11)
        p2 = make_path(1, -1, -0.37)
        for r2 in range(3):
            vals = [chi_kappa(p1, p2, r1 * 3 + r2, grid) for r1 in range(4)]
            chis, kaps = zip(*vals)
            assert np.ptp(chis) < 1e-12
            assert np.ptp(kaps) < 1e-12


def spread_entry(t, delay, doppler_tap, grid, k, ell, c):
    """Entry of the dense operator of a path with taps (l_p, k_p) coupling
    input bin (k - k_p + c, ell - l_p) into output bin (k, ell): the
    spreading coefficient alpha of the scalar DD input-output relation at
    Doppler offset c."""
    m, n = grid.delay_bins, grid.doppler_bins
    col = ((k - doppler_tap + c) % n) * m + (ell - delay) % m
    return t[k * m + ell, col]


def dirichlet_power(c, frac, n):
    """|sum_n exp(j2pi(c + frac)n/N)|^2 / N^2: the power leaked to
    Doppler offset c."""
    return abs(np.exp(2j * np.pi * (c + frac) * np.arange(n) / n).sum()) ** 2 / n**2


class TestAlphaCoeff:
    def test_integer_doppler_center_has_unit_magnitude(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=8)
        t = dd_operator(*make_path(2, 1, 0.0), grid)
        assert abs(spread_entry(t, 2, 1, grid, k=3, ell=5, c=0)) == \
            pytest.approx(1.0)

    def test_integer_doppler_no_spread(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=8)
        t = dd_operator(*make_path(2, 1, 0.0), grid)
        for c in (-7, -1, 1, 4, 9):
            assert abs(spread_entry(t, 2, 1, grid, k=3, ell=5, c=c)) == \
                pytest.approx(0.0, abs=1e-12)

    def test_fractional_spread_power_near_uniform(self):
        # Fractional Doppler 0.3 on a 20-bin axis: every entry carries the
        # Dirichlet leakage power, and outside a Doppler guard of
        # half-width 2*k_max + 2*k_hat = 4 the leaked power per bin is
        # approximately 1/N^2, as the pilot interference constant assumes.
        n = 20
        grid = OtfsGrid(doppler_bins=n, delay_bins=8)
        t = dd_operator(*make_path(2, 1, 0.3), grid)
        powers = {c: abs(spread_entry(t, 2, 1, grid, k=0, ell=5, c=c)) ** 2
                  for c in range(-n // 2, n // 2)}
        for c, power in powers.items():
            assert power == pytest.approx(dirichlet_power(c, 0.3, n),
                                          abs=1e-14)
        guard_half = 2 * 2 + 2 * 0  # k_max=2, k_hat=0
        outside = [p for c, p in powers.items() if abs(c) > guard_half]
        assert np.mean(outside) == pytest.approx(1.0 / n**2, rel=0.2)

    def test_second_branch_full_spread_sum(self):
        # Observation delays before the path's tap wrap around the frame;
        # the coupled entry picks up a phase but keeps the full Dirichlet
        # magnitude.
        grid = OtfsGrid(doppler_bins=8, delay_bins=4)
        t = dd_operator(*make_path(3, 1, 0.25), grid)
        for k in range(8):
            for ell in range(3):
                for c in range(-4, 4):
                    power = abs(spread_entry(t, 3, 1, grid, k, ell, c)) ** 2
                    assert power == pytest.approx(
                        dirichlet_power(c, 0.25, 8), abs=1e-14)


class TestIdentityChecks:
    def test_random_paths_within_tolerance(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=8)
        ps = sample_all_paths(np.ones(12), 7, 1, grid, seed=3)
        report = verify_operator_identities(ps, grid, tol=1e-9)
        assert report.passed
        assert report.unitarity_dev < 1e-9
        assert report.diag_zero_dev < 1e-9
        assert report.row_sum_dev < 1e-9

    def test_single_path(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        ps = make_pathset([1], [1], fracs=[0.2])
        report = verify_operator_identities(ps, grid)
        assert report.unitarity_dev < 1e-12
        assert report.n_diag_pairs == 0

    def test_equal_delay_pairs_skip_diagonal_check(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        ps = make_pathset([2, 2], [1, -1], fracs=[0.1, -0.2])
        report = verify_operator_identities(ps, grid)
        assert report.n_diag_pairs == 0
        assert report.row_sum_dev < 1e-9

    def test_violation_raises_named_error(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        ps = make_pathset([1], [0])
        with pytest.raises(IdentityCheckError, match="unitarity"):
            verify_operator_identities(ps, grid, tol=1e-30)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_operator_identities(make_pathset([1], [0]), grid, tol=tol)

    def test_batched_paths_rejected(self):
        grid = OtfsGrid(4, 4)
        ps = sample_all_paths(np.ones((1, 2, 2)), 3, 1, grid, seed=0)
        with pytest.raises(ValueError, match=r"one link's \(L,\) paths"):
            verify_operator_identities(ps, grid)
