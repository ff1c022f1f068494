"""Deterministic keyed random streams (splitmix64 + xoshiro256**).

All stochastic components of the library draw from these generators so that
every random draw is bit-reproducible from a 64-bit seed, independent of
platform, thread count or library version. Results that also pass through
BLAS/LAPACK (embeddings, eigenvalues, the PSD margin) are byte-identical
only for the same machine, BLAS build and BLAS thread count; across those
they agree to rounding. Streams for independent tasks
(negative graph k, k-means restart r, split s, ...) are keyed by mixing the
task index into the seed with the 64-bit golden-ratio constant.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def splitmix64_uniforms(state: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of the next count splitmix64
    outputs after state; equal to count scalar splitmix64() steps."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN64) + np.uint64(state & MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


def stream_key(seed: int, index: int) -> int:
    """Key for the index-th independent substream of a master seed."""
    return (seed ^ ((index * GOLDEN64) & MASK64)) & MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** generator, state seeded via splitmix64 of a 64-bit key."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, key: int):
        state = key & MASK64
        state, self.s0 = splitmix64(state)
        state, self.s1 = splitmix64(state)
        state, self.s2 = splitmix64(state)
        state, self.s3 = splitmix64(state)

    @classmethod
    def keyed(cls, seed: int, index: int) -> "Xoshiro256StarStar":
        return cls(stream_key(seed, index))

    def next_u64(self) -> int:
        result = (_rotl((self.s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (self.s1 << 17) & MASK64
        self.s2 ^= self.s0
        self.s3 ^= self.s1
        self.s1 ^= self.s2
        self.s0 ^= self.s3
        self.s2 ^= t
        self.s3 = _rotl(self.s3, 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection-free multiply-shift."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def distinct(self, n: int, count: int, exclude: int = -1) -> list[int]:
        """count distinct integers from [0, n) \\ {exclude}, uniform without
        replacement, in draw order."""
        limit = n - (1 if 0 <= exclude < n else 0)
        if count > limit:
            raise ValueError(f"cannot draw {count} distinct values from {limit} candidates")
        chosen: list[int] = []
        seen = set()
        while len(chosen) < count:
            j = self.below(n)
            if j == exclude or j in seen:
                continue
            seen.add(j)
            chosen.append(j)
        return chosen

    def normal_pair(self) -> tuple[float, float]:
        """Two standard normals via Box-Muller (two uniform draws)."""
        u1 = 1.0 - self.random()  # (0, 1], keeps log finite
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

    def normals(self, count: int) -> list[float]:
        out: list[float] = []
        while len(out) < count:
            z0, z1 = self.normal_pair()
            out.append(z0)
            if len(out) < count:
                out.append(z1)
        return out
