"""Per-bin closed-form SINR built from the dense per-bin chi_kappa,
independent of the batched coefficient tables the rate module uses."""

import numpy as np

from cfotfs.operators import chi_kappa


def per_bin_sinr(q, stats, pc, pathsets, rho_d, grid):
    """SINR of user q at every DD bin (length MN), each bin's
    beamforming-uncertainty and inter-symbol powers weighted by that
    bin's dense (chi, kappa)."""
    eta, beta, gamma = pc.eta, stats.beta, stats.gamma
    bu = np.zeros(grid.size)
    isi = np.zeros(grid.size)
    for p, row in enumerate(pathsets):
        paths = row[q]
        n = paths.n_paths
        coeffs = np.array([[[chi_kappa(paths.path(i), paths.path(j), r, grid)
                             for r in range(grid.size)]
                            for j in range(n)] for i in range(n)])
        weight = eta[p, q] * np.outer(beta[p, q], gamma[p, q])
        bu += np.einsum("ij,ijr->r", weight, coeffs[..., 0])
        isi += np.einsum("ij,ijr->r", weight, coeffs[..., 1])
    ds = np.sum(np.sqrt(eta[:, q]) * gamma[:, q].sum(axis=1))
    iui = sum(eta[p, k] * beta[p, q].sum() * gamma[p, k].sum()
              for p in range(stats.n_aps) for k in range(stats.n_users)
              if k != q)
    return rho_d * ds**2 / (rho_d * (bu + isi + iui) + 1.0)
