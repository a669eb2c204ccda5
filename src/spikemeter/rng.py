"""Reproducible 64-bit mixing PRNG for spike encoding.

Spike trains produced from rates must be portable: the same (values,
timesteps, seed) triple has to yield the same train on any platform or
reimplementation.  The generator is therefore pinned to the public-domain
splitmix64 sequence rather than a library RNG whose stream may change:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.

The generator is counter-based: the state before the k-th output (k = 1, 2,
...) is seed + k * 0x9E3779B97F4A7C15 mod 2**64, so every output is computed
at once in wrapping uint64 arithmetic rather than one call at a time.

A seed is an integer in [0, 2**64): :func:`check_seed` is the rule, and the
stream refuses any other seed rather than reduce it mod 2**64.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0**-53


def check_seed(seed: int, error: type[Exception] = ValueError) -> int:
    """``seed``, if the stream takes it; else raise ``error``."""
    if not 0 <= seed < 2**64:
        raise error(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the stream seeded with ``seed``, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(check_seed(seed))
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs as uniform doubles in [0, 1)."""
    return (splitmix64(seed, count) >> np.uint64(11)) * _INV_2_53
