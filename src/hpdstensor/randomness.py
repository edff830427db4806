"""Seeded random number generation.

All randomness in the package flows through the Philox4x64-10 counter-based
bit generator so that a given seed reproduces the same stream on every
platform.  Gaussian variates are produced by an explicit Box-Muller transform
over Philox uniforms rather than numpy's ziggurat sampler, which keeps the
noise model easy to restate in other languages.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError


def generator(seed: int) -> np.random.Generator:
    """Philox-backed generator for the given seed, an integer in 0..2^64-1."""
    if not 0 <= seed < 2 ** 64:
        raise ArgumentError(f"seed must be in 0..2^64-1, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def gaussian(shape, seed: int, sigma: float = 1.0) -> np.ndarray:
    """Standard-deviation ``sigma`` normal array via Box-Muller over Philox.

    Pairs of uniforms (u1, u2) map to sqrt(-2 ln u1) * (cos, sin)(2 pi u2);
    u1 is reflected into (0, 1] so the logarithm is always finite.
    """
    g = generator(seed)
    shape = (int(shape),) if isinstance(shape, (int, np.integer)) else tuple(shape)
    count = int(np.prod(shape, dtype=np.int64))
    pairs = (count + 1) // 2
    u1 = 1.0 - g.random(pairs)
    u2 = g.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])[:count]
    return sigma * z.reshape(shape)
