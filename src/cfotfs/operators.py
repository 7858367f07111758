"""Delay-Doppler operator algebra.

Each path acts on the vectorized MN-point DD grid as the unitary matrix

    T = (F_N kron I_M) P^l D^(k+kappa) (F_N^H kron I_M),

where P is the forward cyclic shift on MN points, D = diag(z^0..z^(MN-1))
with z = exp(j2pi/MN), and D is raised to the real power k+kappa
elementwise. Bin index r splits as r = r1*M + r2 with r1 the Doppler and
r2 the delay coordinate.

The module provides dense constructors for validation, the per-bin
coefficient pair (chi, kappa) that weights beamforming uncertainty and
inter-symbol interference in the closed-form SINR, and numerical checks
of the three operator identities the rate analysis relies on. The pair
does not depend on the bin at all: chi_kappa_tables evaluates it once per
path pair in closed form over (..., L) PathSet arrays (every AP of a user
at once), and the dense per-bin chi_kappa stays as its reference. A path
enters the dense constructors as two numbers: its integer delay tap and
its Doppler k+kappa.
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


def dd_operator(delay_tap: int, doppler: float, grid: OtfsGrid) -> np.ndarray:
    """Dense MN x MN matrix of one path's action on the DD grid, for a
    path with integer delay tap l and Doppler k+kappa."""
    m, n = grid.delay_bins, grid.doppler_bins
    mn = m * n
    if not 0 <= delay_tap < m:
        raise ValueError("delay tap outside grid")
    diag = np.exp(2j * np.pi * doppler * np.arange(mn) / mn)
    # P^l D^(k+kappa) at once: column j holds diag[j] at row (j + l) mod MN.
    core = np.zeros((mn, mn), dtype=complex)
    core[(np.arange(mn) + delay_tap) % mn, np.arange(mn)] = diag
    f_kron = np.kron(dft_matrix(n), np.eye(m))
    return f_kron @ core @ f_kron.conj().T


def chi_kappa(path_i: tuple, path_j: tuple, r: int, grid: OtfsGrid):
    """Squared diagonal entry and squared off-diagonal row sum of
    T_i T_j^H at bin r, for paths given as (delay tap, Doppler) pairs.

    chi weights the precoding-gain uncertainty and kappa the inter-symbol
    interference contributed by the (i, j) path pair. A path paired with
    itself gives (1, 0) since its operator is unitary.
    """
    if not 0 <= r < grid.size:
        raise ValueError("bin index outside grid")
    if path_i == path_j:
        return 1.0, 0.0
    row = dd_operator(*path_i, grid)[r, :] @ dd_operator(*path_j, grid).conj().T
    diag = row[r]
    off = row.sum() - diag
    return float(abs(diag) ** 2), float(abs(off) ** 2)


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
    n_paths: int
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
    exceeds tol. Intended for grids with MN up to about 1024.
    """
    if paths.delay_taps.ndim != 1:
        raise ValueError("verify_operator_identities takes one link's (L,) "
                         f"paths, got shape {paths.delay_taps.shape}")
    m = grid.delay_bins
    mn = grid.size
    mats = np.stack([dd_operator(delay, doppler, grid) for delay, doppler
                     in zip(paths.delay_taps, paths.doppler())])
    eye = np.eye(mn)
    unit_dev = max(
        float(np.max(np.abs(t @ t.conj().T - eye))) for t in mats
    )
    # Diagonals of all pairwise products without forming the products.
    diags = np.einsum("irc,jrc->ijr", mats, mats.conj())
    delta_ell = (paths.delay_taps[:, None] - paths.delay_taps[None, :]) % m
    off_pairs = delta_ell != 0
    n_diag_pairs = int(off_pairs.sum())
    diag_dev = float(np.max(np.abs(diags[off_pairs]))) if n_diag_pairs else 0.0
    # Row sums of T_i T_j^H are T_i times the conjugated column sums of T_j.
    col_sums = mats.conj().sum(axis=1)
    row_sums = np.einsum("irc,jc->ijr", mats, col_sums)
    row_dev = float(np.max(np.abs(np.abs(row_sums) ** 2 - 1.0)))

    report = IdentityReport(unitarity_dev=unit_dev, diag_zero_dev=diag_dev,
                            row_sum_dev=row_dev, n_paths=paths.n_paths,
                            n_diag_pairs=n_diag_pairs, tol=tol)
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
