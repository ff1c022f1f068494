"""Shared fixtures for the test suite."""

import functools
import math
import threading
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from coles import evaluation
from coles import rng as rng_module
from coles.graph_core import SparseSym, as_dense
from coles.rng import Xoshiro256StarStar


class CountedThread(threading.Thread):
    """threading.Thread that counts its starts, to monkeypatch in for it."""
    starts = 0

    def start(self):
        type(self).starts += 1
        super().start()


def random_graph(n, extra_per_node, seed):
    """Ring plus random chords: connected, no isolated nodes."""
    rng = Xoshiro256StarStar(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i, picks in enumerate(rng.distinct_runs(n, extra_per_node).tolist()):
        for j in picks:
            edges.append((min(i, j), max(i, j)))
    return SparseSym.from_edges(n, edges)


def weighted_graph(n, extra_per_node, seed):
    """random_graph's pattern with symmetric weights drawn from [0.1, 2.1)."""
    upper = sp.triu(random_graph(n, extra_per_node, seed).csr, format="coo")
    rng = ScalarXoshiro(seed + 1)
    weights = np.array([0.1 + 2.0 * rng.random() for _ in range(upper.nnz)])
    m = sp.coo_matrix((weights, (upper.row, upper.col)), shape=(n, n))
    return SparseSym.from_scipy(m + m.T)


def sparse_equal(a: SparseSym, b: SparseSym) -> bool:
    """Bit-identical structural and numerical equality."""
    return (a.n == b.n and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def rand_x(n, d, seed=0):
    return np.array(Xoshiro256StarStar(seed).normals(n * d)).reshape(n, d)


# -- the scalar reference generator --------------------------------------------
# splitmix64, the substream key and xoshiro256** one word at a time, as in the
# public-domain C reference code. rng's array forms (streams, draw_u64s,
# Xoshiro256StarStar) must reproduce them bit for bit, and tests that need
# scalar draws for their data take them from here.

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64(state):
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + GOLDEN64) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def stream_key(seed, index):
    """Key of the index-th substream of a seed: the seed XOR index times the
    64-bit golden ratio (index 0 keeps the seed)."""
    return (seed ^ ((index * GOLDEN64) & MASK64)) & MASK64


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK64


class ScalarXoshiro:
    """xoshiro256** of substream index of seed, seeded by the first four
    splitmix64 outputs after stream_key(seed, index), one word per next_u64()."""

    def __init__(self, seed, index=0):
        state = stream_key(seed, index)
        state, self.s0 = splitmix64(state)
        state, self.s1 = splitmix64(state)
        state, self.s2 = splitmix64(state)
        state, self.s3 = splitmix64(state)

    @property
    def state(self):
        return [self.s0, self.s1, self.s2, self.s3]

    def next_u64(self):
        result = (_rotl((self.s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (self.s1 << 17) & MASK64
        self.s2 ^= self.s0
        self.s3 ^= self.s1
        self.s1 ^= self.s2
        self.s0 ^= self.s3
        self.s2 ^= t
        self.s3 = _rotl(self.s3, 45)
        return result

    def random(self):
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n):
        """Uniform integer in [0, n) by multiply-shift."""
        return loop_below(self, n)

    def normals(self, count):
        """Box-Muller from scalar random() pairs, as the library's normals."""
        return np.array(loop_normals(self, count))


# -- scalar references for the bulk draws -------------------------------------
# The loops the library ran before its draws were batched; the bulk paths
# must reproduce them bit for bit.

@contextmanager
def bulk_everywhere(enabled=True):
    """Make every draw step long lanes, however short, split node pairs into
    blocks of a few rows and geometric skips into chunks of a few draws, so
    small inputs reach every bulk code path."""
    with pytest.MonkeyPatch.context() as mp:
        if enabled:
            mp.setattr(rng_module, "_LONG_FROM", 0)
            mp.setattr(rng_module, "_PAIR_BLOCK", 300)
            mp.setattr(rng_module, "_GAP_BLOCK", 40)
        yield


def loop_below(rng, n):
    return (rng.next_u64() * n) >> 64


def loop_distinct(rng, n, count, exclude=-1):
    chosen, seen = [], set()
    while len(chosen) < count:
        j = loop_below(rng, n)
        if j == exclude or j in seen:
            continue
        seen.add(j)
        chosen.append(j)
    return chosen


def loop_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = loop_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def loop_normals(rng, count):
    """Box-Muller from scalar random() pairs; an odd count drops the last z1."""
    out = []
    while len(out) < count:
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out.append(r * math.cos(theta))
        if len(out) < count:
            out.append(r * math.sin(theta))
    return out


# -- per-restart reference for the batched k-means -----------------------------
# evaluation.kmeans as one Lloyd loop per restart (its loop body sits in
# loop_lloyd, so that tests can compare centroids too): every empty cluster is
# re-seeded before any mean is taken, and each mean adds its rows one by one.
# It reads the restart count and iteration cap from the module, so a test
# that patches them patches both.

def _sq_dists(y: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.maximum(
        (y * y).sum(axis=1)[:, None] - 2.0 * y @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :],
        0.0,
    )


def _kmeanspp(y: np.ndarray, k: int, rng: ScalarXoshiro) -> np.ndarray:
    n = y.shape[0]
    centroids = np.empty((k, y.shape[1]))
    centroids[0] = y[rng.below(n)]
    d2 = _sq_dists(y, centroids[:1]).ravel()
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            centroids[c] = y[rng.below(n)]
        else:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            centroids[c] = y[min(idx, n - 1)]
        d2 = np.minimum(d2, _sq_dists(y, centroids[c:c + 1]).ravel())
    return centroids


def loop_lloyd(y: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One restart's Lloyd loop from the seeds in centroids, which it updates
    in place; returns the assignment."""
    n, k = y.shape[0], centroids.shape[0]
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(evaluation.KMEANS_MAX_ITER):
        d2 = _sq_dists(y, centroids)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for c in range(k):
            if counts[c] == 0:
                # re-seed an empty cluster at the point farthest from its
                # centroid whose own cluster keeps another point
                spare = [d2[i, new_assign[i]] if counts[new_assign[i]] > 1 else -1.0
                         for i in range(n)]
                far = int(np.argmax(spare))
                counts[new_assign[far]] -= 1
                new_assign[far] = c
                counts[c] = 1
        for c in range(k):
            total = np.zeros(y.shape[1])
            for row in y[new_assign == c]:  # row by row, for every d
                total += row
            centroids[c] = total / counts[c]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def loop_kmeans(y: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm, k-means++ init, best of KMEANS_RESTARTS by inertia."""
    y = as_dense(y, "y")
    n = y.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    scale = float(np.max(np.abs(y), initial=0.0))  # every d2 and inertia <= 4 y.size scale^2
    if 4.0 * y.size * scale * scale > np.finfo(np.float64).max:
        raise ValueError(f"k-means inertia is not finite: |y| up to {scale:.3g} is too large")
    best_inertia, best_assign = math.inf, None
    for restart in range(evaluation.KMEANS_RESTARTS):
        rng = ScalarXoshiro(seed, restart)
        centroids = _kmeanspp(y, k, rng)
        assign = loop_lloyd(y, centroids)
        inertia = float(np.sum((y - centroids[assign]) ** 2))
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign.copy()
    return best_assign


# -- the (S, m, C) reference for the class-major logistic regression ------------
# evaluation.logreg_fit's epoch written plainly: the same products, every
# array in (S, m, C) order, the softmax adding its classes in class order. The
# fit must reproduce its weights and losses bit for bit.

def _softmax(logits: np.ndarray) -> np.ndarray:
    # the row max is exact in any order; the row sum adds class 0, 1, 2, ...
    z = logits - functools.reduce(np.maximum, np.moveaxis(logits, -1, 0))[..., None]
    e = np.exp(z)
    return e / functools.reduce(np.add, np.moveaxis(e, -1, 0))[..., None]


def loop_logreg(x: np.ndarray, labels: np.ndarray, l2: float = 1e-4, lr: float = 0.1,
                epochs: int = 500):
    """The weights (S, d+1, C) and per-epoch (S,) losses of the fits of an
    (S, m, d) stack of training sets with (S, m) labels."""
    n_sets, m, _ = x.shape
    n_classes = int(labels.max()) + 1
    xb = np.concatenate([x, np.ones((n_sets, m, 1))], axis=2)
    xb_t = xb.transpose(0, 2, 1)
    onehot = np.zeros((n_sets, m, n_classes))
    np.put_along_axis(onehot, labels[:, :, None], 1.0, axis=2)
    w = np.zeros((n_sets, xb.shape[2], n_classes))
    losses = []
    for _ in range(epochs):
        probs = _softmax(xb @ w)
        hit = np.maximum(probs[onehot == 1.0], 1e-300).reshape(n_sets, m)
        penalty = (w * w).reshape(n_sets, -1).sum(axis=1)
        losses.append(-np.mean(np.log(hit), axis=1) + l2 * penalty)
        grad = xb_t @ (probs - onehot) / m + 2.0 * l2 * w
        w = w - lr * grad
    return w, losses


# -- sym_eig's former body: the reference its bits and memory are checked against

def symmetrizing_sym_eig(m: np.ndarray):
    """sym_eig as it was before it skipped the symmetrization of an exactly
    symmetric form: 0.5 * (m + m.T) always, then reversed copies of LAPACK's
    ascending eigenpairs (the refusals left out)."""
    m = 0.5 * (m + m.T)
    values, vectors = np.linalg.eigh(m)
    values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(m.shape[0])]
    vectors[:, lead < 0] *= -1.0
    return values, vectors
