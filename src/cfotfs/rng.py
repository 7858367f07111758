"""Seeding helpers for reproducible, order-independent random streams."""

from __future__ import annotations

import numpy as np


def as_rng(seed) -> np.random.Generator:
    """Return a Generator; pass a Generator through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_int_seed(seed):
    """An integer seed as given, else one drawn from as_rng(seed)."""
    if isinstance(seed, (int, np.integer)):
        return seed
    return int(as_rng(seed).integers(2**63))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent stream identified by (master_seed, key).

    Streams are fixed by the key alone, so parallel workers that draw from
    substream(seed, i) produce the same realizations in any execution order.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def sample_cn(rng: np.random.Generator, variance, size=None) -> np.ndarray:
    """Circularly-symmetric complex normal samples with the given variance:
    every real part is drawn, then every imaginary part."""
    variance = np.asarray(variance, dtype=float)
    shape = variance.shape if size is None else size
    return cn_from_normals(variance, rng.standard_normal(shape),
                           rng.standard_normal(shape))


def cn_from_normals(variance, re, im) -> np.ndarray:
    """Complex normal values of the given variance from standard normal
    real and imaginary parts."""
    return np.sqrt(variance / 2.0) * (re + 1j * im)
