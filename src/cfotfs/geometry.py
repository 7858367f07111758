"""Network geometry: random AP/user layouts on a wrap-around square and
large-scale fading (three-slope path loss plus log-normal shadowing)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import as_rng


@dataclass
class NetworkConfig:
    """Deployment area and large-scale propagation parameters.

    Distances d0 < d1 bound the three path-loss slopes; the loss constant
    and the slope formula take distances in km. Shadowing is log-normal
    with standard deviation shadow_std_db, applied beyond d1 only. Its
    correlated form mixes two unit-variance fields (one over APs, one
    over users, decaying over decorr_distance_m) with weight ap_mix.
    """

    num_aps: int
    num_users: int
    area_side_km: float = 1.0
    d0_m: float = 10.0
    d1_m: float = 50.0
    path_loss_const_db: float = 140.7
    shadow_std_db: float = 8.0
    decorr_distance_m: float = 100.0
    ap_mix: float = 0.5

    def __post_init__(self):
        if self.num_aps < 1 or self.num_users < 1:
            raise ValueError("need at least one AP and one user")
        if not 0.0 < self.d0_m < self.d1_m < self.area_side_km * 1000.0:
            raise ValueError("require 0 < d0 < d1 < area side")
        if self.shadow_std_db < 0.0:
            raise ValueError("shadow_std_db must be non-negative")
        if not 0.0 <= self.ap_mix <= 1.0:
            raise ValueError("ap_mix must lie in [0, 1]")

    @property
    def side_m(self) -> float:
        return self.area_side_km * 1000.0


@dataclass
class Layout:
    """AP/user positions in meters and per-pair large-scale coefficients
    beta_pair[p, q] in linear scale (zeros until shadowing is applied)."""

    ap_positions: np.ndarray
    user_positions: np.ndarray
    beta_pair: np.ndarray


def place_network(config: NetworkConfig, seed=None) -> Layout:
    """Drop APs and users i.i.d. uniformly over the square.

    beta_pair is left at zero; call apply_shadowing to fill it.
    """
    rng = as_rng(seed)
    side = config.side_m
    aps = rng.uniform(0.0, side, size=(config.num_aps, 2))
    users = rng.uniform(0.0, side, size=(config.num_users, 2))
    beta = np.zeros((config.num_aps, config.num_users))
    return Layout(ap_positions=aps, user_positions=users, beta_pair=beta)


def wrapped_distance(a, b, side: float):
    """Torus (wrap-around) distance between points in [0, side)^2.

    Per-axis separation is min(|delta|, side - |delta|); the result is the
    Euclidean combination, hence at most side/sqrt(2).
    """
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    delta = np.minimum(delta, side - delta)
    return np.sqrt(np.sum(delta**2, axis=-1))


def path_loss_db(distance_m, config: NetworkConfig):
    """Three-slope path loss in dB (non-positive), distances in km inside
    the log terms. Constant below d0, slope 20 up to d1, slope 35 beyond."""
    d = np.asarray(distance_m, dtype=float)
    # The d <= d0 branch equals the middle branch evaluated at d0, so
    # clipping below d0 realizes the floor without a separate formula.
    d_km = np.maximum(d, config.d0_m) / 1000.0
    d1_km = config.d1_m / 1000.0
    loss = config.path_loss_const_db
    far = -loss - 35.0 * np.log10(d_km)
    mid = -loss - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d_km)
    return np.where(d > config.d1_m, far, mid)


def _correlated_field(positions: np.ndarray, side: float, decorr_m: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Gaussian field with covariance exp(-d/decorr) over the
    wrapped distances between the given positions."""
    d = wrapped_distance(positions[:, None, :], positions[None, :, :], side)
    cov = np.exp(-d / decorr_m)
    # Covariance can be numerically semidefinite (e.g. co-located points);
    # sample through the eigendecomposition with clipped eigenvalues.
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    return v @ (np.sqrt(w) * rng.standard_normal(len(positions)))


def apply_shadowing(layout: Layout, config: NetworkConfig, seed=None,
                    correlated: bool = False) -> Layout:
    """Fill beta_pair = 10^((PL_dB + sigma*z)/10) for every AP-user pair.

    z is i.i.d. standard normal, or spatially correlated (see
    NetworkConfig) when correlated is True, and is zero up to d1, where
    the deterministic slopes already dominate.
    """
    rng = as_rng(seed)
    d = wrapped_distance(layout.ap_positions[:, None, :],
                         layout.user_positions[None, :, :], config.side_m)
    pl_db = path_loss_db(d, config)
    if correlated:
        a = _correlated_field(layout.ap_positions, config.side_m,
                              config.decorr_distance_m, rng)
        b = _correlated_field(layout.user_positions, config.side_m,
                              config.decorr_distance_m, rng)
        z = (np.sqrt(config.ap_mix) * a[:, None]
             + np.sqrt(1.0 - config.ap_mix) * b[None, :])
    else:
        z = rng.standard_normal(d.shape)
    shadow_db = np.where(d > config.d1_m, config.shadow_std_db * z, 0.0)
    beta = 10.0 ** ((pl_db + shadow_db) / 10.0)
    return Layout(ap_positions=layout.ap_positions.copy(),
                  user_positions=layout.user_positions.copy(),
                  beta_pair=beta)
