"""Dense references the tests compare the library against: the literal
path operator F P^l D F^H, the per-bin (chi, kappa) pair read off dense
operator products, the per-bin closed-form SINR built from it,
independent of the batched coefficient tables the rate module uses, and
the Monte Carlo terms computed from explicit MN x MN channel matrices
built from the literal operators."""

import numpy as np

from cfotfs.estimation import sample_estimate
from cfotfs.montecarlo import BATCHES
from cfotfs.operators import dd_operator
from cfotfs.rng import substream


def brute_force_operator(delay, doppler_exp, m, n):
    """The path operator as the literal product (F_N kron I_M) P^l
    D^(k+kappa) (F_N^H kron I_M), each factor built by explicit loops:
    unitary DFT, Kronecker product, cyclic shift and diagonal powers
    multiplied elementwise."""
    mn = m * n
    f = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            f[a, b] = np.exp(-2j * np.pi * a * b / n) / np.sqrt(n)
    kron = np.zeros((mn, mn), dtype=complex)
    for a in range(n):
        for b in range(n):
            for c in range(m):
                kron[a * m + c, b * m + c] = f[a, b]
    perm = np.zeros((mn, mn), dtype=complex)
    for j in range(mn):
        perm[(j + 1) % mn, j] = 1.0
    perm_pow = np.eye(mn, dtype=complex)
    for _ in range(delay):
        perm_pow = perm @ perm_pow
    delta = np.zeros((mn, mn), dtype=complex)
    for j in range(mn):
        delta[j, j] = np.exp(2j * np.pi * doppler_exp * j / mn)
    return kron @ perm_pow @ delta @ kron.conj().T


def chi_kappa(path_i: tuple, path_j: tuple, r: int, grid):
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


def per_bin_sinr(q, stats, pc, pathsets, rho_d, grid):
    """SINR of user q at every DD bin (length MN), each bin's
    beamforming-uncertainty and inter-symbol powers weighted by that
    bin's dense (chi, kappa)."""
    eta, beta, gamma = pc.eta, stats.beta, stats.gamma
    bu = np.zeros(grid.size)
    isi = np.zeros(grid.size)
    for p in range(stats.n_aps):
        paths = list(zip(pathsets.delay_taps[p, q], pathsets.doppler[p, q]))
        coeffs = np.array([[[chi_kappa(path_i, path_j, r, grid)
                             for r in range(grid.size)]
                            for path_j in paths] for path_i in paths])
        weight = eta[p, q] * np.outer(beta[p, q], gamma[p, q])
        bu += np.einsum("ij,ijr->r", weight, coeffs[..., 0])
        isi += np.einsum("ij,ijr->r", weight, coeffs[..., 1])
    ds = np.sum(np.sqrt(eta[:, q]) * gamma[:, q].sum(axis=1))
    iui = sum(eta[p, k] * beta[p, q].sum() * gamma[p, k].sum()
              for p in range(stats.n_aps) for k in range(stats.n_users)
              if k != q)
    return rho_d * ds**2 / (rho_d * (bu + isi + iui) + 1.0)


def explicit_terms(instance, q, r, trials, seed):
    """The four SINR terms of user q at bin r and their batch-means
    standard errors, from explicit channel matrices: per trial,
    H = sum_i h_i T_i for every link, each T the literal product of
    ``brute_force_operator`` (never ``dd_operator``), and row r of the
    true H_pq times every estimated Hhat_pq'^H. Draws through
    ``sample_estimate`` in the oracle's order (batch, AP, user), so an
    integer seed reproduces ``montecarlo.estimate_terms`` draw for draw.
    Returns (ds, ds_se, bu, bu_se, isi, isi_se, iui, iui_se)."""
    grid, stats, pc = instance.grid, instance.stats, instance.pc
    paths = instance.pathsets
    n_aps, n_users, n_paths = paths.delay_taps.shape
    per_batch = trials // BATCHES
    ops = np.empty((n_aps, n_users, n_paths, grid.size, grid.size),
                   dtype=complex)
    for index in np.ndindex(n_aps, n_users, n_paths):
        ops[index] = brute_force_operator(paths.delay_taps[index],
                                          paths.doppler[index],
                                          grid.delay_bins, grid.doppler_bins)
    ds_b = np.zeros(BATCHES, dtype=complex)
    bu_b, isi_b, iui_b = np.zeros((3, BATCHES))
    for b in range(BATCHES):
        rng = substream(seed, b)
        g = np.zeros((n_users, per_batch, grid.size), dtype=complex)
        for p in range(n_aps):
            draws = [sample_estimate(stats.beta[p, k], stats.gamma[p, k], rng,
                                     trials=per_batch)
                     for k in range(n_users)]
            h_true = np.einsum("ti,iab->tab", draws[q][0], ops[p, q])
            for k, (_, h_hat) in enumerate(draws):
                h_hat_full = np.einsum("ti,iab->tab", h_hat, ops[p, k])
                g[k] += np.sqrt(pc.eta[p, k]) * np.einsum(
                    "tc,tdc->td", h_true[:, r, :], h_hat_full.conj())
        a = g[q, :, r]
        power = (np.abs(g) ** 2).sum(axis=2)
        ds_b[b] = a.mean()
        bu_b[b] = a.var(ddof=1)
        isi_b[b] = power[q].mean() - (np.abs(a) ** 2).mean()
        iui_b[b] = np.delete(power, q, axis=0).sum(axis=0).mean()

    def mean_se(x):
        return x.mean(), np.sqrt((np.abs(x - x.mean()) ** 2).sum()
                                 / (BATCHES - 1) / BATCHES)

    return (*mean_se(ds_b), *mean_se(bu_b), *mean_se(isi_b), *mean_se(iui_b))
