"""Seed derivation helpers.

Every stochastic operation in the package takes an explicit integer seed and
builds its own PCG64 generator, so results are reproducible independently of
call order or parallel schedule. Child seeds come from SeedSequence spawn
keys, which act as a splittable hash of (master seed, index path).
"""

from __future__ import annotations

import numpy as np


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for a derived stream, stable in (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def child_seed(seed: int, *key: int) -> int:
    """64-bit integer seed for a derived stream, stable in (seed, key)."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])
