"""Counter-based random streams.

All randomness in the library flows through `uniforms`, a Philox-backed
generator addressed by (seed, stream, index). Philox is counter-based: one
counter step yields one 4x64-bit block, i.e. exactly four float64 draws.
Giving every sample index a fixed whole number of counter blocks makes the
value at index i a pure function of (seed, stream, i), so any chunking of the
index range (and therefore any worker count) reproduces the same numbers.
"""

from __future__ import annotations

import numpy as np

_FLOATS_PER_BLOCK = 4


def blocks_per_point(dim: int) -> int:
    """Counter blocks reserved per sample index for points in [0,1]^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return -(-dim // _FLOATS_PER_BLOCK)


def uniforms(seed: int, stream: int, start: int, count: int, dim: int) -> np.ndarray:
    """Uniform points with indices start..start+count-1 of a (seed, stream) stream.

    Returns an array of shape (count, dim). Calling with any partition of the
    index range concatenates to the same array, bitwise.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    if count == 0:
        return np.empty((0, dim), dtype=np.float64)
    bpp = blocks_per_point(dim)
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(start * bpp)
    raw = np.random.Generator(bg).random(count * bpp * _FLOATS_PER_BLOCK, dtype=np.float64)
    return raw.reshape(count, bpp * _FLOATS_PER_BLOCK)[:, :dim].copy()


def stream_id(kind: int, trial: int = 0) -> int:
    """Stream identifier combining a module-level kind tag with a trial index."""
    if not 0 <= kind < 256:
        raise ValueError("kind must fit in one byte")
    if not 0 <= trial < 1 << 56:
        raise ValueError("trial must be in [0, 2**56) to fit the 64-bit stream key")
    return kind + (trial << 8)


# kind tags; keep distinct so independent uses never share a stream
KIND_NOISE = 0x01       # Z_i, the generator inputs
KIND_REAL = 0x02        # U_i feeding the exact target sampler for Y_i
KIND_MEMBER = 0x05      # random certified family members
