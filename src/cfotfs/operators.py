"""Delay-Doppler operator algebra.

Each path acts on the vectorized MN-point DD grid as the unitary matrix

    T = (F_N kron I_M) P^l D^(k+kappa) (F_N^H kron I_M),

where P is the forward cyclic shift on MN points, D = diag(z^0..z^(MN-1))
with z = exp(j2pi/MN), and D is raised to the real power k+kappa
elementwise. Bin index r splits as r = r1*M + r2 with r1 the Doppler and
r2 the delay coordinate.

The module provides dense constructors for validation, the coefficient
pair (chi, kappa) that weights beamforming uncertainty and inter-symbol
interference in the closed-form SINR, and numerical checks of the three
operator identities the rate analysis relies on. The pair does not
depend on the bin at all: chi_kappa_tables evaluates it once per path
pair in closed form over (..., L) PathSet arrays (every AP of a user at
once). A path enters the dense constructors as two numbers: its integer
delay tap and its Doppler k+kappa, or as arrays of them.

An integer delay tap is an exact shift of the delay coordinate, and the
Doppler spreads only along the Doppler axis, so each delay column of T
holds one dense N x N block. dd_blocks computes those blocks from F_N,
the carry of the cyclic shift and the diagonal of D, never from the
Dirichlet kernel of chi_kappa_tables, so they stay an independent check
of the closed form. dd_operator scatters them into the MN x MN matrix for
verify_operator_identities and the tests; the Monte Carlo oracle reads
the blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import OtfsGrid, PathSet
from .exceptions import IdentityCheckError


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, entry (a, b) = exp(-j2pi*a*b/n)/sqrt(n)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def dd_blocks(delay_tap, doppler, column, grid: OtfsGrid) -> np.ndarray:
    """N x N Doppler blocks of paths' operators at delay columns c2, for
    integer delay taps l, Dopplers k+kappa and columns that broadcast to
    one shape S; returns an (S, N, N) array.

    F_N kron I_M leaves the delay coordinate alone, and P^l moves delay
    column c2 to row (c2 + l) mod M, one Doppler step further when
    c2 + l >= M. So delay column c2 of T holds a single N x N block,
    F_N S_c2 diag(z^(j1*M + c2)) F_N^H over Doppler indices j1, at delay
    row (c2 + l) mod M, where S_c2 is that carry's cyclic shift, and every
    other block of the column is zero. The block uses only the definition
    of T, not the closed-form (chi, kappa) algebra it is meant to check.
    Raises ValueError for a delay tap or column that is not an integer in
    [0, M) and for a Doppler that is not finite.
    """
    m, n = grid.delay_bins, grid.doppler_bins
    taps, doppler = np.asarray(delay_tap), np.asarray(doppler, float)
    column = np.asarray(column)
    for name, value in (("delay tap", taps), ("column", column)):
        if not np.issubdtype(value.dtype, np.integer):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if np.any((value < 0) | (value >= m)):
            raise ValueError(f"{name} outside grid")
    if not np.all(np.isfinite(doppler)):
        raise ValueError(f"Doppler must be finite, got {doppler!r}")
    # phases[..., j1] = z^((k+kappa)(j1*M + c2)): the diagonal of D.
    index = np.arange(n) * m + column[..., None]
    phases = np.exp(2j * np.pi * doppler[..., None] * index / (m * n))
    f = dft_matrix(n)
    # S_c2 diag(w) maps Doppler index j1 to (j1 + carry) mod N, so the
    # block's left factor is F_N with its columns rolled by the carry.
    left = np.where((column + taps >= m)[..., None, None],
                    np.roll(f, -1, axis=1), f)
    return (left * phases[..., None, :]) @ f.conj().T


def dd_operator(delay_tap, doppler, grid: OtfsGrid) -> np.ndarray:
    """Dense MN x MN matrices of paths' action on the DD grid, for integer
    delay taps l and Dopplers k+kappa that broadcast to one shape S (a
    scalar pair for one path); returns an (S, MN, MN) array.

    Scatters each path's dd_blocks over all M delay columns: the block of
    column c2 lands at delay row (c2 + l) mod M. This costs
    O(M N^3 + (MN)^2) per path instead of two MN x MN products; the Monte
    Carlo oracle calls dd_blocks at the columns it reads and never pays
    the (MN)^2 scatter. Raises ValueError as dd_blocks does.
    """
    m, n = grid.delay_bins, grid.doppler_bins
    taps, doppler = np.broadcast_arrays(delay_tap, np.asarray(doppler, float))
    delays = np.arange(m)
    blocks = dd_blocks(taps.reshape(-1, 1), doppler.reshape(-1, 1), delays,
                       grid)
    shifted = (delays + taps.reshape(-1, 1)) % m
    out = np.zeros((len(shifted), n, m, n, m), dtype=complex)
    out[np.arange(len(shifted))[:, None], :, shifted, :, delays] = blocks
    return out.reshape(taps.shape + (m * n, m * n))


def chi_kappa_tables(delay_taps, doppler, doppler_bins: int):
    """(chi, kappa) of every path pair, the same at every bin.

    delay_taps and doppler (integer tap plus fractional part) are arrays
    shaped (..., L), for instance one row per AP of a user; both returned
    arrays are shaped (..., L, L). A pair with distinct delay taps gives
    (0, 1): the diagonal entry of T_i T_j^H vanishes and its row sum is a
    single unit phase. A pair sharing a delay tap gives (|D|^2, |1 - D|^2)
    with D the Dirichlet kernel of the Doppler difference d,

        D = (1/N) sum_n exp(j2pi d n/N)
          = exp(j pi d (N-1)/N) sin(pi d) / (N sin(pi d/N)),

    which is 1 when d is a multiple of N (the diagonal among them).
    """
    delay_taps = np.asarray(delay_taps)
    doppler = np.asarray(doppler, dtype=float)
    n = doppler_bins
    d = doppler[..., :, None] - doppler[..., None, :]
    # D has period N in d; folding d into [-N/2, N/2] keeps sin(pi d/N)
    # away from the cancellation at nonzero multiples of N.
    d = d - n * np.round(d / n)
    den = n * np.sin(np.pi * d / n)
    # The folded d makes den vanish only at d = 0, where the ratio is 1.
    ratio = np.divide(np.sin(np.pi * d), den, out=np.ones_like(d),
                      where=den != 0.0)
    dirichlet = np.exp(1j * np.pi * d * (n - 1) / n) * ratio
    same = delay_taps[..., :, None] == delay_taps[..., None, :]
    chi = np.where(same, np.abs(dirichlet) ** 2, 0.0)
    kappa = np.where(same, np.abs(1.0 - dirichlet) ** 2, 1.0)
    return chi, kappa


@dataclass
class IdentityReport:
    """Worst-case deviations of the three operator identities."""

    unitarity_dev: float
    diag_zero_dev: float
    row_sum_dev: float
    n_diag_pairs: int
    tol: float

    @property
    def passed(self) -> bool:
        return (self.unitarity_dev <= self.tol
                and self.diag_zero_dev <= self.tol
                and self.row_sum_dev <= self.tol)


def verify_operator_identities(paths: PathSet, grid: OtfsGrid,
                               tol: float = 1e-9) -> IdentityReport:
    """Check the operator identities on dense matrices.

    Measures, over all paths and ordered pairs: the max-norm deviation of
    T T^H from the identity; the largest diagonal magnitude of T_i T_j^H
    for pairs whose delay taps differ modulo M; and the largest deviation
    of any squared row-sum magnitude of T_i T_j^H from one. Raises
    IdentityCheckError naming the violated property if any deviation
    exceeds tol, and ValueError unless tol is positive and finite.
    Building the operators is cheap; the checks are not: they hold every
    path's MN x MN operator at once and cost L (MN)^3 for unitarity, so
    memory bounds the grid. 10 paths at MN = 1024 take about 2.7 s and
    240 MB peak RSS on one BLAS thread.
    """
    if paths.delay_taps.ndim != 1:
        raise ValueError("verify_operator_identities takes one link's (L,) "
                         f"paths, got shape {paths.delay_taps.shape}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    m = grid.delay_bins
    mats = dd_operator(paths.delay_taps, paths.doppler, grid)
    eye = np.eye(grid.size)
    unit_dev = max(
        float(np.max(np.abs(t @ t.conj().T - eye))) for t in mats
    )
    # Diagonals of all pairwise products, one conjugated operator at a time.
    diags = np.stack([np.einsum("irc,rc->ir", mats, t.conj()) for t in mats],
                     axis=1)
    delta_ell = (paths.delay_taps[:, None] - paths.delay_taps[None, :]) % m
    off_pairs = delta_ell != 0
    n_diag_pairs = int(off_pairs.sum())
    diag_dev = float(np.max(np.abs(diags[off_pairs]))) if n_diag_pairs else 0.0
    # Row sums of T_i T_j^H are T_i times the conjugated column sums of T_j.
    col_sums = mats.sum(axis=1).conj()
    row_sums = np.einsum("irc,jc->ijr", mats, col_sums)
    row_dev = float(np.max(np.abs(np.abs(row_sums) ** 2 - 1.0)))

    report = IdentityReport(unitarity_dev=unit_dev, diag_zero_dev=diag_dev,
                            row_sum_dev=row_dev, n_diag_pairs=n_diag_pairs,
                            tol=tol)
    if unit_dev > tol:
        raise IdentityCheckError(
            f"unitarity violated: deviation {unit_dev:.3e} > {tol:.1e}")
    if diag_dev > tol:
        raise IdentityCheckError(
            "distinct-delay diagonal not zero: deviation "
            f"{diag_dev:.3e} > {tol:.1e}")
    if row_dev > tol:
        raise IdentityCheckError(
            f"row-sum magnitude not unit: deviation {row_dev:.3e} > {tol:.1e}")
    return report
