"""Downstream evaluation: random splits, logistic regression, k-means, metrics.

The protocol mirrors the usual transductive setup: a fixed number of labeled
nodes per class form the training set, 500 further nodes the validation set,
the remainder the test set; classification happens in embedding space with
a multinomial logistic regression, clustering with restarted k-means, and
clustering accuracy uses the optimal cluster-to-class assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph_core import as_dense
from .rng import Xoshiro256StarStar, stream_key


@dataclass
class SplitSpec:
    per_class: int = 20
    val_size: int = 500
    seed: int = 0

    def validate(self) -> None:
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

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "macro_f1": self.macro_f1,
                "micro_f1": self.micro_f1, "nmi": self.nmi}


def random_split(labels, spec: SplitSpec):
    """(train, val, test) index arrays; per_class train nodes per class."""
    spec.validate()
    labels = np.asarray(labels, dtype=np.int64)
    rng = Xoshiro256StarStar(spec.seed)
    classes = np.unique(labels)
    train: list[int] = []
    for c in classes:
        members = np.flatnonzero(labels == c).tolist()
        if len(members) < spec.per_class + 1:
            raise ValueError(f"class {c} has {len(members)} nodes, "
                             f"need at least per_class+1 = {spec.per_class + 1}")
        rng.shuffle(members)
        train.extend(members[:spec.per_class])
    train_arr = np.array(sorted(train), dtype=np.int64)
    untaken = np.ones(labels.shape[0], dtype=bool)
    untaken[train_arr] = False
    rest = np.flatnonzero(untaken).tolist()
    rng.shuffle(rest)
    n_val = min(spec.val_size, len(rest))
    val = np.array(sorted(rest[:n_val]), dtype=np.int64)
    test = np.array(sorted(rest[n_val:]), dtype=np.int64)
    return train_arr, val, test


# -- logistic regression -----------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logreg_fit(y_train: np.ndarray, labels, l2: float = 1e-4, lr: float = 0.1,
               epochs: int = 500, return_losses: bool = False):
    """Multinomial logistic regression by full-batch gradient descent.

    Zero-initialized weights of shape (d+1, C); the trailing row is the bias
    (a constant feature is appended) and is regularized with the rest.
    """
    x = as_dense(y_train, "y_train")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("labels length must match row count")
    if not (math.isfinite(lr) and math.isfinite(l2)):
        raise ValueError(f"lr and l2 must be finite, got lr={lr!r}, l2={l2!r}")
    n_classes = int(labels.max()) + 1
    if np.unique(labels).size < 2:
        raise ValueError("training set contains a single class")
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    onehot = np.zeros((x.shape[0], n_classes))
    onehot[np.arange(x.shape[0]), labels] = 1.0
    w = np.zeros((xb.shape[1], n_classes))
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit raises below
        for _ in range(epochs):
            probs = _softmax(xb @ w)
            if return_losses:
                ce = -float(np.mean(np.log(np.maximum(probs[onehot == 1.0], 1e-300))))
                losses.append(ce + l2 * float(np.sum(w * w)))
            grad = xb.T @ (probs - onehot) / x.shape[0] + 2.0 * l2 * w
            w = w - lr * grad
    if not np.all(np.isfinite(w)):
        raise ValueError("logistic regression weights are not finite: lower lr or rescale")
    return (w, losses) if return_losses else w


def logreg_predict(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Argmax class per row (ties resolve to the lowest class id)."""
    x = as_dense(y, "y")
    if x.shape[1] + 1 != weights.shape[0]:
        raise ValueError(f"weights expect {weights.shape[0] - 1} features, got {x.shape[1]}")
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    return np.argmax(xb @ weights, axis=1).astype(np.int64)


# -- k-means -----------------------------------------------------------------

def _sq_dists(y: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.maximum(
        (y * y).sum(axis=1)[:, None] - 2.0 * y @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :],
        0.0,
    )


def _kmeanspp(y: np.ndarray, k: int, rng: Xoshiro256StarStar) -> np.ndarray:
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


def kmeans(y: np.ndarray, k: int, seed: int = 0, n_restarts: int = 10,
           max_iter: int = 300) -> np.ndarray:
    """Lloyd's algorithm, k-means++ init, best of n_restarts by inertia."""
    y = as_dense(y, "y")
    n = y.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    scale = float(np.max(np.abs(y), initial=0.0))  # every d2 and inertia <= 4 y.size scale^2
    if 4.0 * y.size * scale * scale > np.finfo(np.float64).max:
        raise ValueError(f"k-means inertia is not finite: |y| up to {scale:.3g} is too large")
    best_inertia, best_assign = math.inf, None
    for restart in range(n_restarts):
        rng = Xoshiro256StarStar(stream_key(seed, restart))
        centroids = _kmeanspp(y, k, rng)
        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(max_iter):
            d2 = _sq_dists(y, centroids)
            new_assign = np.argmin(d2, axis=1)
            for c in range(k):
                mask = new_assign == c
                if not np.any(mask):
                    # re-seed an empty cluster at the point farthest from its centroid
                    far = int(np.argmax(d2[np.arange(n), new_assign]))
                    centroids[c] = y[far]
                    new_assign[far] = c
                    mask = new_assign == c
                centroids[c] = y[mask].mean(axis=0)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        inertia = float(np.sum((y - centroids[assign]) ** 2))
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign.copy()
    return best_assign


# -- metrics -----------------------------------------------------------------

def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _contingency(pred: np.ndarray, truth: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Counts of each (pred, truth) pair of non-negative codes, as a shape table."""
    flat = np.bincount(pred * shape[1] + truth, minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def nmi_score(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    n = pred.shape[0]
    cp, pi = np.unique(pred, return_inverse=True)
    ct, ti = np.unique(truth, return_inverse=True)
    cont = _contingency(pi, ti, (cp.size, ct.size)).astype(np.float64)
    rows, cols = cont.sum(axis=1), cont.sum(axis=0)
    hp, ht = _entropy(rows), _entropy(cols)
    if hp == 0.0 and ht == 0.0:
        return 1.0  # both labelings constant, hence identical partitions
    mi = 0.0
    for a in range(cp.size):
        for b in range(ct.size):
            if cont[a, b] > 0:
                mi += (cont[a, b] / n) * math.log(n * cont[a, b] / (rows[a] * cols[b]))
    return float(np.clip(mi / (0.5 * (hp + ht)), 0.0, 1.0))


def hungarian_accuracy(pred, truth) -> tuple[float, np.ndarray]:
    """Clustering accuracy under the optimal cluster-to-class assignment.

    Returns (accuracy, relabeled predictions).
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    size = int(max(pred.max(), truth.max())) + 1
    cont = _contingency(pred, truth, (size, size))
    rows, cols = linear_sum_assignment(cont, maximize=True)
    mapping = np.empty(size, dtype=np.int64)
    mapping[rows] = cols
    relabeled = mapping[pred]
    acc = float(cont[rows, cols].sum()) / pred.shape[0]
    return acc, relabeled


def _f1_scores(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(macro_f1, micro_f1); classes absent from truth are excluded from macro."""
    classes = np.unique(truth)
    f1s = []
    for c in classes:
        tp = int(np.sum((pred == c) & (truth == c)))
        fp = int(np.sum((pred == c) & (truth != c)))
        fn = int(np.sum((pred != c) & (truth == c)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    macro = float(np.mean(f1s))
    # single-label micro-F1: global tp / (tp + 0.5*(fp+fn)) over all classes,
    # which collapses to plain accuracy
    correct = int(np.sum(pred == truth))
    wrong = pred.shape[0] - correct
    micro = 2 * correct / (2 * correct + wrong + wrong) if pred.shape[0] else 0.0
    return macro, micro


def score(pred, truth, mode: str = "classification") -> Metrics:
    """All four metrics; clustering first maps clusters to classes optimally."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("cannot score empty predictions")
    if mode not in ("classification", "clustering"):
        raise ValueError("mode must be 'classification' or 'clustering'")
    nmi = nmi_score(pred, truth)
    if mode == "clustering":
        acc, pred = hungarian_accuracy(pred, truth)
    else:
        acc = float(np.mean(pred == truth))
    macro, micro = _f1_scores(pred, truth)
    assert abs(micro - acc) < 1e-12, "micro-F1 must equal accuracy for single-label data"
    return Metrics(accuracy=acc, macro_f1=macro, micro_f1=micro, nmi=nmi)
