"""Deterministic access-pattern primitives for the workload generators.

All randomness is derived from SplitMix64 over structured keys, so a warp's
address stream is a pure function of (workload seed, kernel, CTA, warp,
position) — identical across runs, machines, and GPM counts.  That last
property matters: strong scaling must present *the same* memory behaviour to
every configuration, or speedups would be generator artifacts.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 step: a high-quality 64-bit mix of the input."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_key(*parts: int) -> int:
    """Fold several integers into one 64-bit key (order-sensitive)."""
    state = 0x243F6A8885A308D3
    for part in parts:
        state = splitmix64((state ^ (part & _MASK64)) & _MASK64)
    return state


def uniform_index(key: int, n: int) -> int:
    """Map a 64-bit key to a uniform index in [0, n)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return (splitmix64(key) * n) >> 64


def stream_offset(position: int, region_bytes: int, line_bytes: int) -> int:
    """Sequential streaming offset: wraps around the region line by line."""
    lines = region_bytes // line_bytes
    if lines == 0:
        return 0
    return (position % lines) * line_bytes


def strided_offset(
    position: int, region_bytes: int, line_bytes: int, stride_lines: int
) -> int:
    """Strided sweep covering the region with a fixed line stride.

    A stride co-prime with the line count visits every line exactly once per
    wrap, like column-major traversal of a row-major array.
    """
    lines = region_bytes // line_bytes
    if lines == 0:
        return 0
    return ((position * stride_lines) % lines) * line_bytes


def hot_block_offset(
    key: int, block_bytes: int, line_bytes: int
) -> int:
    """Random offset within a small hot block (temporal-reuse traffic)."""
    lines = max(1, block_bytes // line_bytes)
    return uniform_index(key, lines) * line_bytes


def random_offset(key: int, region_bytes: int, line_bytes: int) -> int:
    """Uniform random line offset within a region (graph/gather traffic)."""
    lines = max(1, region_bytes // line_bytes)
    return uniform_index(key, lines) * line_bytes


def splitmix64_array(states: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (wrapping arithmetic)."""
    z = (states + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(
        np.uint64
    )
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(
        np.uint64
    )
    return z ^ (z >> np.uint64(31))


def warp_keys(
    seed: int, kernel: int, cta_lo: int, cta_hi: int, warps: int
) -> np.ndarray:
    """``mix_key(seed, kernel, cta, warp)`` over a block of CTAs and warps.

    Returns a uint64 array of shape ``(cta_hi - cta_lo, warps)``.  The key
    is folded one part at a time, so the scalar ``(seed, kernel)`` prefix is
    mixed once, then one SplitMix64 pass runs over the CTAs and one over
    every (CTA, warp) pair — bit-identical to the scalar fold.
    """
    ctas = splitmix64_array(
        np.uint64(mix_key(seed, kernel))
        ^ np.arange(cta_lo, cta_hi, dtype=np.uint64)
    )
    return splitmix64_array(
        ctas.reshape(-1, 1) ^ np.arange(warps, dtype=np.uint64).reshape(1, -1)
    )


def uniform_indices(keys: np.ndarray, n: int) -> np.ndarray:
    """Vectorized map of 64-bit keys to uniform indices in [0, n).

    Uses the top bits via 128-bit-free arithmetic: multiply-shift on the high
    32 bits, which is unbiased enough for trace synthesis.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    high = (splitmix64_array(keys) >> np.uint64(32)).astype(np.uint64)
    return ((high * np.uint64(n)) >> np.uint64(32)).astype(np.int64)


def neighbor_cta(cta_id: int, num_ctas: int, key: int) -> int:
    """A halo partner: one of the two adjacent CTAs, clamped at grid edges."""
    if num_ctas == 1:
        return 0
    direction = 1 if (splitmix64(key) & 1) == 0 else -1
    partner = cta_id + direction
    if partner < 0 or partner >= num_ctas:
        partner = cta_id - direction
    return partner
