"""Downstream evaluation: random splits, logistic regression, k-means, metrics.

The protocol mirrors the usual transductive setup: a fixed number of labeled
nodes per class form the training set, 500 further nodes the validation set
(drawn and kept out of the test set, but nothing is fitted or tuned on it),
the remainder the test set; classification happens in embedding space with a
softmax (multinomial logistic) model, 500 full-batch gradient steps from zero
that stop short of the L2 optimum, clustering with restarted k-means, and
clustering accuracy uses the optimal cluster-to-class assignment.

The splits, fits, predictions and k-means runs come in stacks only; one of
each is a stack of one, with the bits it has alone. The fits of all splits
run as one gradient loop, class-major and in place: the softmax works on
contiguous (S, m) class rows, which numpy's own sum adds in class order. The
restarts of all k-means runs advance together in blocks of bounded memory,
and each Lloyd step sums its clusters by one sparse one-hot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import as_dense
from .rng import draw_u64s, mul_high, shuffle_with, streams, units


@dataclass(frozen=True)
class SplitSpec:
    per_class: int = 20
    val_size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if self.val_size < 0:
            raise ValueError("val_size must be >= 0")


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    micro_f1: float
    nmi: float


def random_splits(labels, spec: SplitSpec, n_splits: int):
    """n_splits (train, val, test) splits as three (n_splits, size) index
    arrays, row s drawn from substream s of spec.seed (rng.streams).

    Each split takes per_class train nodes per class, by a shuffle of each
    class, then val_size of the rest, by a shuffle of the rest. Every split
    makes the same number of draws, so all streams are drawn at once, and
    each shuffle runs on all splits' rows together.
    """
    labels = np.asarray(labels, dtype=np.int64)
    members = []
    for c in np.unique(labels):
        members.append(np.flatnonzero(labels == c))
        if members[-1].size < spec.per_class + 1:
            raise ValueError(f"class {c} has {members[-1].size} nodes, "
                             f"need at least per_class+1 = {spec.per_class + 1}")
    n_rest = labels.size - spec.per_class * len(members)
    # a shuffle of k items takes k - 1 draws: n - C for all C classes, each of 2+ nodes
    draws = draw_u64s(streams(spec.seed, np.arange(n_splits)),
                      labels.size - len(members) + max(n_rest - 1, 0))
    chunks = np.split(draws, np.cumsum([items.size - 1 for items in members]), axis=1)
    picked = [np.empty((n_splits, 0), dtype=np.int64)]  # empty labels: empty splits
    for items, chunk in zip(members, chunks):
        picked.append(shuffle_with(np.tile(items, (n_splits, 1)), chunk)[:, :spec.per_class])
    train = np.sort(np.hstack(picked), axis=1)
    untaken = np.ones((n_splits, labels.size), dtype=bool)
    np.put_along_axis(untaken, train, False, axis=1)
    rest = shuffle_with(np.nonzero(untaken)[1].reshape(n_splits, n_rest), chunks[-1])
    return train, np.sort(rest[:, :spec.val_size], axis=1), np.sort(rest[:, spec.val_size:], axis=1)


# -- logistic regression -----------------------------------------------------

def logreg_fit(y_train: np.ndarray, labels, l2: float = 1e-4, lr: float = 0.1,
               epochs: int = 500) -> np.ndarray:
    """A softmax (multinomial logistic) model per training set of an (S, m, d)
    stack with (S, m) labels, by epochs steps of full-batch gradient descent,
    stopped there, not run to the L2 optimum.

    Zero-initialized weights of shape (S, d+1, C), C one more than the
    largest label of any set; the trailing row is the bias (a constant
    feature is appended) and is regularized with the rest. A set's weights
    have the bits of its fit as a stack of one, when that has the same C.

    Each epoch copies the logits xb @ w into a class-major (S, C, m) buffer,
    where the softmax and the subtraction of the one-hot labels run in
    place on contiguous class rows; the gradient product reads the buffer
    through its transpose. The class sum is numpy's sum over that outer
    axis, which adds the class rows in order from 0.0 for any class count.
    """
    x = np.asarray(y_train)
    if x.ndim != 3:
        raise ValueError(f"y_train must be an (S, m, d) stack of training sets, got {x.shape}")
    x = as_dense(x.reshape(-1, x.shape[-1]), "y_train").reshape(x.shape)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != x.shape[:2]:
        raise ValueError("labels length must match row count")
    if not (math.isfinite(lr) and math.isfinite(l2)):
        raise ValueError(f"lr and l2 must be finite, got lr={lr!r}, l2={l2!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    n_sets, m, _ = x.shape
    if labels.min() < 0:
        raise ValueError(f"labels must be >= 0, got {labels.min()}")
    n_classes = int(labels.max()) + 1
    if np.any(np.all(labels == labels[:, :1], axis=1)):
        raise ValueError("training set contains a single class")
    xb = np.concatenate([x, np.ones((n_sets, m, 1))], axis=2)
    xb_t = xb.transpose(0, 2, 1)  # a view: its products must match the reference's bits
    onehot = np.zeros((n_sets, n_classes, m))
    np.put_along_axis(onehot, labels[:, None, :], 1.0, axis=1)
    probs = np.empty((n_sets, n_classes, m))
    probs_t = probs.transpose(0, 2, 1)  # (S, m, C), the layout of the logits
    top = np.empty((n_sets, m))
    w = np.zeros((n_sets, xb.shape[2], n_classes))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit raises below
        for _ in range(epochs):
            np.copyto(probs_t, xb @ w)
            # a loop: max(axis=1) took 9.5 against 7.3 µs per epoch at 50 x 2 x 40
            np.copyto(top, probs[:, 0])  # the row max is exact in any order
            for c in range(1, n_classes):
                np.maximum(top, probs[:, c], out=top)
            probs -= top[:, None]
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=1)[:, None]
            probs -= onehot
            grad = xb_t @ probs_t / m + 2.0 * l2 * w
            w = w - lr * grad
    if not np.all(np.isfinite(w)):
        raise ValueError("logistic regression weights are not finite: lower lr or rescale")
    return w


def logreg_predict(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(S, t) argmax classes of an (S, t, d) stack of rows under (S, d+1, C)
    weights, row s by the weights of set s (ties resolve to the lowest class
    id). One set is a stack of one."""
    x = np.asarray(y)
    if x.ndim != 3 or weights.ndim != 3 or x.shape[0] != weights.shape[0]:
        raise ValueError(f"weights of shape {weights.shape} do not fit rows of shape {x.shape}: "
                         "give (S, d+1, C) weights and an (S, t, d) stack of rows")
    x = as_dense(x.reshape(-1, x.shape[-1]), "y").reshape(x.shape)
    if x.shape[-1] + 1 != weights.shape[-2]:
        raise ValueError(f"weights expect {weights.shape[-2] - 1} features, got {x.shape[-1]}")
    xb = np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)
    return np.argmax(xb @ weights, axis=-1).astype(np.int64)


# -- k-means -----------------------------------------------------------------
# All restarts of one call, of every run it is given, run as batched Lloyd
# loops on (B, n, k) arrays, each restart bit for bit the loop it would run
# alone: every product, sum and mean below is taken in the order the
# per-restart loop takes it.

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
_KMEANS_BLOCK = 2**17  # float64 values of the temporaries of one block of restarts


def _sq_dists(yy: np.ndarray, y2: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(B, n, k) squared distances from the rows of y to B sets of k centroids,
    given yy = (y * y).sum(axis=1) and y2 = 2.0 * y."""
    # one product per restart: a single GEMM over all B * k centroids rounds differently
    d2 = y2 @ centroids.transpose(0, 2, 1)
    np.subtract(yy[:, None], d2, out=d2)
    d2 += (centroids * centroids).sum(axis=2)[:, None, :]
    return np.maximum(d2, 0.0, out=d2)


def _first_argmin(d2: np.ndarray) -> np.ndarray:
    """argmin over the last, short axis (the first minimum), column by column:
    faster than np.argmin(axis=-1), 154 against 290 µs at 13 x 1000 x 2."""
    best = d2[..., 0].copy()
    idx = np.zeros(best.shape, dtype=np.int64)
    for c in range(1, d2.shape[-1]):
        col = d2[..., c]
        np.copyto(idx, c, where=col < best)
        np.minimum(best, col, out=best)
    return idx


def _kmeanspp(y, yy, y2, k: int, states: np.ndarray) -> np.ndarray:
    """(B, k, d) k-means++ seeds, restart b drawn from the stream of
    states[b] (advanced in place), one draw per centre; mul_high(word, n)
    picks the first, and any next one while every d2 is 0."""
    n = y.shape[0]
    words = draw_u64s(states, k)
    uniform = mul_high(words, n).astype(np.int64)
    centroids = np.empty((len(states), k, y.shape[1]))
    centroids[:, 0] = y[uniform[:, 0]]
    d2 = _sq_dists(yy, y2, centroids[:, :1])[..., 0]
    for c in range(1, k):
        total = d2.sum(axis=1)
        target = units(words[:, c]) * total
        weighted = np.minimum((np.cumsum(d2, axis=1) <= target[:, None]).sum(axis=1), n - 1)
        centroids[:, c] = y[np.where(total > 0, weighted, uniform[:, c])]
        d2 = np.minimum(d2, _sq_dists(yy, y2, centroids[:, c:c + 1])[..., 0])
    return centroids


def _reseed(d2, assign, counts) -> None:
    """Fill each empty cluster of each restart, in ascending order, with the
    point farthest from its centroid (the first of equal distances) among the
    points whose cluster keeps another point; updates assign and counts."""
    rows = np.arange(assign.shape[1])
    for i, c in zip(*np.nonzero(counts == 0)):
        spare = np.where(counts[i, assign[i]] > 1, d2[i, rows, assign[i]], -1.0)
        far = int(np.argmax(spare))
        counts[i, assign[i, far]] -= 1
        assign[i, far] = c
        counts[i, c] = 1


def _lloyd(y, yy, y2, centroids: np.ndarray) -> np.ndarray:
    """Lloyd's loops of the B restarts seeded at centroids (B, k, d), to each
    one's first repeated assignment or KMEANS_MAX_ITER steps; returns the
    (B, n) assignments and leaves their centroids in centroids."""
    import scipy.sparse as sp  # here, not at the top: `import coles` skips its load
    n_restarts, k, _ = centroids.shape
    n = y.shape[0]
    assign = np.full((n_restarts, n), -1, dtype=np.int64)
    live = np.arange(n_restarts)
    for _ in range(KMEANS_MAX_ITER):
        cents = centroids[live]
        d2 = _sq_dists(yy, y2, cents)
        new = _first_argmin(d2)
        offsets = k * np.arange(live.size)[:, None]
        counts = np.bincount((new + offsets).ravel(),
                             minlength=live.size * k).reshape(live.size, k)
        _reseed(d2, new, counts)
        # a one-hot CSR product adds each cluster's rows in row order from 0.0
        onehot = sp.csr_matrix((np.ones(new.size), ((new + offsets).ravel(),
                                                    np.tile(np.arange(n), live.size))),
                               shape=(counts.size, n))
        sums = onehot @ y
        cents = (sums / counts.reshape(-1, 1)).reshape(cents.shape)
        centroids[live] = cents
        done = np.all(new == assign[live], axis=1)
        assign[live] = new
        live = live[~done]
        if live.size == 0:
            break
    return assign


def kmeans(y: np.ndarray, k: int, seeds) -> np.ndarray:
    """Lloyd's algorithm, k-means++ init, best of KMEANS_RESTARTS by inertia,
    once per seed of the sequence seeds: row r of the (R, n) result is run r,
    whose restart t draws from substream t of seeds[r]. The restarts of all
    runs run together in blocks whose temporaries hold about _KMEANS_BLOCK
    values, and a restart stops once its assignment repeats; each run's best
    is picked in restart order, the first of equal inertias. Every restart
    ends with k non-empty clusters, also when fewer than k rows differ.
    """
    y = as_dense(y, "y")
    n = y.shape[0]
    if y.shape[1] == 0:
        raise ValueError("y has no columns")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    scale = float(np.max(np.abs(y), initial=0.0))  # every d2 and inertia <= 4 y.size scale^2
    if 4.0 * y.size * scale * scale > np.finfo(np.float64).max:
        raise ValueError(f"k-means inertia is not finite: |y| up to {scale:.3g} is too large")
    if np.ndim(seeds) != 1 or len(seeds) == 0:
        raise ValueError(f"seeds must be a sequence of 1 or more run seeds, got {np.shape(seeds)}")
    yy, y2 = (y * y).sum(axis=1), 2.0 * y
    # restart t of run r in row r * KMEANS_RESTARTS + t
    states = np.concatenate([streams(s, np.arange(KMEANS_RESTARTS)) for s in seeds])
    block = max(1, _KMEANS_BLOCK // (n * (k + 8)))  # d2 and a few n-long arrays per restart
    best_inertia = [math.inf] * len(seeds)
    best_assign = np.empty((len(seeds), n), dtype=np.int64)
    for first in range(0, len(states), block):
        centroids = _kmeanspp(y, yy, y2, k, states[first:first + block])
        for row, (assign, cents) in enumerate(zip(_lloyd(y, yy, y2, centroids), centroids),
                                              first):
            run = row // KMEANS_RESTARTS
            inertia = float(np.sum((y - cents[assign]) ** 2))
            if inertia < best_inertia[run]:  # finite, by the scale check
                best_inertia[run], best_assign[run] = inertia, assign
    return best_assign


# -- metrics -----------------------------------------------------------------

def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """table[a, b] counts the items predicted labels[a] whose truth is
    labels[b], over the sorted labels either side uses."""
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("cannot score empty predictions")
    labels, codes = np.unique(np.concatenate([pred, truth]), return_inverse=True)
    k = labels.size
    return np.bincount(codes[:pred.size] * k + codes[pred.size:], minlength=k * k).reshape(k, k)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _nmi(table: np.ndarray) -> float:
    table = table.astype(np.float64)
    n, rows, cols = table.sum(), table.sum(axis=1), table.sum(axis=0)
    hp, ht = _entropy(rows), _entropy(cols)
    if hp == 0.0 and ht == 0.0:
        return 1.0  # both labelings constant, hence identical partitions
    a, b = np.nonzero(table)
    mi = np.sum(table[a, b] / n * np.log(n * table[a, b] / (rows[a] * cols[b])))
    return float(np.clip(mi / (0.5 * (hp + ht)), 0.0, 1.0))


def nmi_score(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies."""
    return _nmi(_contingency(np.asarray(pred, dtype=np.int64),
                             np.asarray(truth, dtype=np.int64)))


def score(pred, truth, mode: str = "classification") -> Metrics:
    """All four metrics, read off one square contingency table.

    Accuracy is its trace over n, and single-label micro-F1 is the accuracy
    by definition. Macro-F1 averages the per-class F1 over the classes
    present in truth. Clustering first permutes the rows by the optimal
    cluster-to-class assignment, which leaves NMI unchanged.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if mode not in ("classification", "clustering"):
        raise ValueError("mode must be 'classification' or 'clustering'")
    table = _contingency(pred, truth)
    nmi = _nmi(table)
    if mode == "clustering":
        # imported here, not at the top: only eval-cluster pays scipy.optimize's load
        from scipy.optimize import linear_sum_assignment
        table = table[np.argsort(linear_sum_assignment(table, maximize=True)[1])]
    hits, truth_sizes = np.diag(table), table.sum(axis=0)
    present = truth_sizes > 0
    f1 = 2 * hits[present] / (table.sum(axis=1)[present] + truth_sizes[present])
    acc = float(hits.sum() / pred.size)
    return Metrics(accuracy=acc, macro_f1=float(np.mean(f1)), micro_f1=acc, nmi=nmi)
