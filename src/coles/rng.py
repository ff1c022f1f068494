"""Deterministic keyed random streams (splitmix64 + xoshiro256**).

Every random draw of the library is reproducible from a 64-bit seed. Raw
words, their mul_high and units values, shuffles, splits and per-node picks
are integer arithmetic and one exact scaling, the same on every platform and
numpy version; Box-Muller normals and Erdos-Renyi skips also call libm's log
(normals cos and sin too), so they are fixed per libm. Results that also pass
through BLAS/LAPACK are byte-identical only for one machine, BLAS build and
BLAS thread count; across those they agree to rounding.

Task i of a seed (negative graph i, k-means restart i, split i, ...) draws
from substream i: keyed by the seed XOR i times the 64-bit golden ratio and
seeded by the first four splitmix64 outputs after that key. Only `streams`
knows that rule. Its (k, 4) uint64 array is the one state format:
`draw_u64s` advances many rows in place, and `Xoshiro256StarStar(seed, i)`
holds one row. The scalar reference (one word at a time) lives with the
tests, which check every draw here against it. Other modules draw only in
bulk and map words with `mul_high` (to [0, n)) and `units` (to [0, 1)).

The xoshiro256** transition is linear over GF(2) (Blackman & Vigna,
"Scrambled linear pseudorandom number generators", 2021), so the state L
steps ahead is a fixed 256x256 bit matrix times the current state (the
jump-ahead of Haramoto et al., 2008), found once per process and lane
length L and applied exactly by XOR through byte lookup tables. Every draw,
of one stream or many, is `draw_u64s`: it jumps to the start of each lane of
L outputs and steps all lanes of all streams at once in numpy. L is
`_LONG_LANE` where the jumps that long lanes save in each stream cost more
than the steps they add, and `_SHORT_LANE` elsewhere (see draw_u64s).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

_SHORT_LANE, _LONG_LANE = 64, 512  # consecutive outputs per lane of a draw
_LONG_FROM = _SHORT_LANE * _LONG_LANE  # the lane rule's scale, 2**15 (see draw_u64s)
# µs, fixed + per stream, of a lane jump of k streams and of a step of a draw,
# fitted in-process on a 2-vCPU x86-64 host: the rule switches within 3% of
# where both lanes took equal time (28.5k, 20.8k, 11.4k, 2.85k words; k = 1, 3, 8, 50)
_JUMP_US = (3.8, 1.08)
_STEP_US = (4.3, 0.0147)
_PAIR_BLOCK = 1 << 17  # node pairs per block of bernoulli_pairs
_GAP_BLOCK = 1 << 16  # most draws per chunk of geometric_pairs
_LOW32 = np.uint64(0xFFFFFFFF)
_BYTE_INDEX = np.arange(32)


def streams(seed: int, indices) -> np.ndarray:
    """The (k, 4) uint64 xoshiro256** states of substreams indices of seed,
    row i the state of Xoshiro256StarStar(seed, indices[i]): the first four
    splitmix64 outputs after the key seed ^ (index * GOLDEN64) mod 2**64,
    taken elementwise (uint64 arrays wrap without a warning)."""
    keys = np.uint64(seed & MASK64) ^ np.asarray(indices, dtype=np.uint64) * np.uint64(GOLDEN64)
    z = keys[:, None] + np.arange(1, 5, dtype=np.uint64) * np.uint64(GOLDEN64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _advance(s0, s1, s2, s3, scratch) -> None:
    """One xoshiro256** state transition, in place, on uint64 lane arrays."""
    np.left_shift(s1, 17, out=scratch)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= scratch
    np.left_shift(s3, 45, out=scratch)
    s3 >>= 19
    s3 |= scratch


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """Lookup tables of the GF(2)-linear map on states whose 256 state bits
    map to images[c] ((256, 4) uint64; bit c is bit c % 64 of word c // 64):
    table[b, v] is the image of the state whose byte b is v and whose other
    bytes are zero."""
    value_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                               bitorder="little").astype(np.uint64)
    by_byte = images.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for i in range(8):
        table ^= by_byte[:, i, None, :] * value_bits[None, :, i, None]
    return table


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map of _byte_tables applied to (k, 4) uint64 states."""
    state_bytes = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(table[_BYTE_INDEX, state_bytes], axis=1)


@functools.cache
def _lane_jump(lane: int) -> np.ndarray:
    """Byte tables of the state transition lane steps ahead.

    The transition is linear over GF(2), so it is fixed by where it takes
    the 256 single-bit states: step each of them lane times as a lane.
    """
    images = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    images[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    scratch = np.empty(256, dtype=np.uint64)
    for _ in range(lane):
        _advance(*images, scratch)
    table = _byte_tables(images.T.copy())
    table.flags.writeable = False  # one cached copy serves every generator
    return table


def mul_high(x: np.ndarray, n) -> np.ndarray:
    """Each word mapped to [0, n): (x * n) >> 64 for uint64 x and 0 <= n < 2**64, exact."""
    n = np.asarray(n, dtype=np.uint64)
    x_lo, x_hi = x & _LOW32, x >> np.uint64(32)
    n_lo, n_hi = n & _LOW32, n >> np.uint64(32)
    cross = x_hi * n_lo
    # no wrap: each term is below 2**32 except the last, and the sum is < 2**64
    mid = ((x_lo * n_lo) >> np.uint64(32)) + (cross & _LOW32) + x_lo * n_hi
    return x_hi * n_hi + (cross >> np.uint64(32)) + (mid >> np.uint64(32))


def units(words: np.ndarray) -> np.ndarray:
    """Each uint64 word as a double in [0, 1): its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def draw_u64s(states: np.ndarray, count: int) -> np.ndarray:
    """The next count outputs of each of the (k, 4) uint64 xoshiro256**
    states as a (k, count) array; states is advanced in place past them.

    Each stream's draw is cut into lanes of `lane` consecutive outputs: lane
    j starts j * lane steps ahead, and lane `full` holds the last `rest`
    outputs and the state the draw ends in. All lanes of all streams step
    together. Long lanes (L outputs) take count * (1/S - 1/L) fewer jumps
    over k states than short ones (S) and L - S more steps, so they are
    taken where count * jump(k) >= S * L * step(k), costs _JUMP_US, _STEP_US.
    """
    k = states.shape[0]
    jump_us, step_us = _JUMP_US[0] + _JUMP_US[1] * k, _STEP_US[0] + _STEP_US[1] * k
    lane = _LONG_LANE if count * jump_us >= _LONG_FROM * step_us else _SHORT_LANE
    full, rest = divmod(count, lane)
    lanes = full + 1
    starts = np.empty((k, lanes, 4), dtype=np.uint64)
    starts[:, 0] = states
    for j in range(full):
        starts[:, j + 1] = _apply(_lane_jump(lane), starts[:, j])
    s0, s1, s2, s3 = starts.reshape(-1, 4).T.copy()  # lane j of stream i at i * lanes + j
    steps = lane if full else rest
    scratch = np.empty(k * lanes, dtype=np.uint64)
    seen = np.empty((k * lanes, steps), dtype=np.uint64)  # row: one lane's s1 values
    for step in range(steps + 1):
        if step == rest:
            states[:] = np.column_stack([s[full::lanes] for s in (s0, s1, s2, s3)])
        if step == steps:
            break
        seen[:, step] = s1
        _advance(s0, s1, s2, s3, scratch)
    out = seen.reshape(k, lanes * steps)[:, :count]  # each stream's lanes end to end: draw order
    out *= np.uint64(5)  # the ** scrambler: rotl(s1 * 5, 7) * 9
    high = out >> np.uint64(57)
    out <<= np.uint64(7)
    out |= high
    out *= np.uint64(9)
    return out


def shuffle_with(rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """A Fisher-Yates shuffle of each row of a (k, size) array, from that row
    of the (k, size - 1) uint64 words in draws, as a new array: for i from
    size-1 down to 1, swap columns i and (draw * (i + 1)) >> 64 of the row,
    the draws taken in order. All rows step together."""
    n_rows, size = rows.shape
    tops = np.arange(size - 1, 0, -1)
    picks = mul_high(draws, (tops + 1).astype(np.uint64)).astype(np.int64)
    starts = size * np.arange(n_rows)  # flat offset of each row
    # step t swaps flat positions ends[t] and picked[t] of every row at once
    ends, picked = tops[:, None] + starts, picks.T + starts
    flat = rows.flatten()
    for left, right in zip(np.hstack([ends, picked]), np.hstack([picked, ends])):
        flat[left] = flat[right]
    return flat.reshape(n_rows, size)


class Xoshiro256StarStar:
    """xoshiro256** walker of substream index of seed (index 0: the bare
    seed): state is the (1, 4) uint64 row streams(seed, [index]), advanced
    in place by every draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int, index: int = 0):
        self.state = streams(seed, [index])

    def next_u64s(self, count: int) -> np.ndarray:
        """The next count outputs as a uint64 array, and the state after them."""
        return draw_u64s(self.state, count)[0]

    def uniforms(self, count: int) -> np.ndarray:
        """The next count words as units() doubles in [0, 1)."""
        return units(self.next_u64s(count))

    def distinct_runs(self, n: int, count: int) -> np.ndarray:
        """(n, count) int64 array, row i: count distinct integers from [0, n)
        other than i in draw order, the values and end state of the loop that
        fills the rows in turn from mul_high(word, n), one word at a time, and
        skips repeats and i. Whenever the words run out it draws as many as
        the picks still to make take at least (the first time, n * count), so
        it never draws a word the loop would not take."""
        if count >= n > 0:
            raise ValueError(f"cannot draw {count} distinct values from {n - 1} candidates")
        picks, words = [], iter(())
        for i in range(n):
            seen, left = {i}, count
            while left:
                j = next(words, None)
                if j is None:
                    words = iter(mul_high(self.next_u64s(left + (n - 1 - i) * count), n).tolist())
                elif j not in seen:
                    seen.add(j)
                    picks.append(j)
                    left -= 1
        return np.array(picks, dtype=np.int64).reshape(n, count)

    def bernoulli_pairs(self, n: int,
                        prob: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """Node pairs (i, j), i < j < n, kept where their uniforms() draw is
        below prob(i, j), one draw per pair in row-major order, as an (m, 2)
        int64 array.

        prob maps the row and column index arrays of the pairs to their
        probabilities. Draws come in blocks of whole rows of about
        _PAIR_BLOCK pairs, so the n(n-1)/2 draws never sit in memory at once.
        """
        kept = [np.empty((0, 2), dtype=np.int64)]
        start = 0
        while start < n - 1:
            stop, size = start, 0
            while stop < n - 1 and size < _PAIR_BLOCK:
                size += n - 1 - stop
                stop += 1
            rows = np.arange(start, stop)
            lengths = n - 1 - rows
            first = np.cumsum(lengths) - lengths  # block offset of each row's first pair
            pair_rows = np.repeat(rows, lengths)
            pair_cols = np.arange(size) - np.repeat(first, lengths) + pair_rows + 1
            hit = self.uniforms(size) < prob(pair_rows, pair_cols)
            kept.append(np.column_stack((pair_rows[hit], pair_cols[hit])))
            start = stop
        return np.concatenate(kept)

    def geometric_pairs(self, n: int, p: float) -> np.ndarray:
        """Node pairs (i, j), i < j < n, each kept with probability 0 < p < 1,
        as an (m, 2) int64 array in row-major order (an Erdos-Renyi graph).

        The walk skips from kept pair to kept pair over the n(n-1)/2 pairs in
        row-major order (Batagelj & Brandes, "Efficient generation of large
        random networks", 2005): each step draws one uniforms() value u and skips
        floor(log(1 - u) / log1p(-p)) pairs, and the first step past the
        last pair ends the walk, so it uses m + 1 words. log is libm's
        (math), as in normals. The words come in chunks that cover the pairs
        still expected plus a few sd, so the walk may draw a few more words
        than it uses; the generator's state after it is not promised.
        """
        total = n * (n - 1) // 2
        log_q = math.log1p(-p)
        kept, last = [], -1  # last: row-major index of the last kept pair
        while True:
            # the pairs still expected, 4 sd and 16 more, so the last chunk seldom falls short
            expected = (total - 1 - last) * p
            count = min(_GAP_BLOCK, 16 + int(expected + 4.0 * math.sqrt(expected)))
            u = self.uniforms(count)
            logs = np.fromiter(map(math.log, (1.0 - u).tolist()), dtype=np.float64, count=count)
            with np.errstate(over="ignore"):  # a tiny p overflows to an infinite skip
                skips = np.floor(logs / log_q)
            # a skip past every pair left ends the walk; clip it before the int conversion
            index = last + np.cumsum(np.minimum(skips, total).astype(np.int64) + 1)
            past = np.flatnonzero(index >= total)
            if past.size:  # the first step past the last pair ends the walk
                kept.append(index[:past[0]])
                break
            kept.append(index)
            last = int(index[-1])
        index = np.concatenate(kept)
        lengths = n - 1 - np.arange(n - 1)
        first = np.cumsum(lengths) - lengths  # index of each row's first pair
        row = np.searchsorted(first, index, side="right") - 1
        return np.column_stack((row, index - first[row] + row + 1))

    def normals(self, count: int) -> np.ndarray:
        """count standard normals by Box-Muller, one pair per two uniforms()
        values (u1 = 1 - first, u2 = second; the odd last z1 is dropped).

        log, cos and sin are libm's (math), not numpy's vectorised ones,
        whose last bits differ; sqrt and products are correctly rounded in
        both.
        """
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), dtype=np.float64, count=pairs)
        theta = (2.0 * math.pi) * u[1::2]
        r = np.sqrt(-2.0 * log_u1)
        out = np.empty(2 * pairs)
        out[0::2] = r * np.fromiter(map(math.cos, theta.tolist()), dtype=np.float64, count=pairs)
        out[1::2] = r * np.fromiter(map(math.sin, theta.tolist()), dtype=np.float64, count=pairs)
        return out[:count]
