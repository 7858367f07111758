"""Dense references the tests compare the library against: the per-bin
closed-form SINR built from the dense per-bin chi_kappa, independent of
the batched coefficient tables the rate module uses, and the Monte Carlo
terms computed from explicit MN x MN channel matrices."""

import numpy as np

from cfotfs.estimation import sample_estimate
from cfotfs.montecarlo import BATCHES
from cfotfs.operators import chi_kappa, dd_operator
from cfotfs.rng import substream


def per_bin_sinr(q, stats, pc, pathsets, rho_d, grid):
    """SINR of user q at every DD bin (length MN), each bin's
    beamforming-uncertainty and inter-symbol powers weighted by that
    bin's dense (chi, kappa)."""
    eta, beta, gamma = pc.eta, stats.beta, stats.gamma
    bu = np.zeros(grid.size)
    isi = np.zeros(grid.size)
    doppler = pathsets.doppler()
    for p in range(stats.n_aps):
        paths = list(zip(pathsets.delay_taps[p, q], doppler[p, q]))
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
    H = sum_i h_i T_i for every link, and row r of the true H_pq times
    every estimated Hhat_pq'^H. Draws through ``sample_estimate`` in the
    oracle's order (batch, AP, user), so an integer seed reproduces
    ``montecarlo.estimate_terms`` draw for draw. Returns (ds, ds_se, bu,
    bu_se, isi, isi_se, iui, iui_se)."""
    grid, stats, pc = instance.grid, instance.stats, instance.pc
    paths = instance.pathsets
    n_aps, n_users, n_paths = paths.delay_taps.shape
    per_batch = trials // BATCHES
    ops = np.empty((n_aps, n_users, n_paths, grid.size, grid.size),
                   dtype=complex)
    doppler = paths.doppler()
    for index in np.ndindex(n_aps, n_users, n_paths):
        ops[index] = dd_operator(paths.delay_taps[index], doppler[index], grid)
    ds_b = np.zeros(BATCHES, dtype=complex)
    bu_b, isi_b, iui_b = np.zeros((3, BATCHES))
    for b in range(BATCHES):
        rng = substream(seed, b)
        g = np.zeros((n_users, per_batch, grid.size), dtype=complex)
        for p in range(n_aps):
            draws = [sample_estimate(stats.beta[p, k], stats.gamma[p, k], rng,
                                     size=(per_batch, n_paths))
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
