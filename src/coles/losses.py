"""Contrastive losses evaluated on explicit embedding vectors.

Covers the log-sigmoid sampled-NCE objective, the pointwise and block forms
of the trace-based contrastive loss, and the alignment/uniformity
decomposition whose uniformity term is a generalized mean M_p of RBF
responses (p=1 arithmetic/SoftMax, p=0 geometric, p=-1 harmonic, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass
class ContrastiveBatch:
    anchor: np.ndarray
    positives: list[np.ndarray] = field(default_factory=list)
    negatives: list[np.ndarray] = field(default_factory=list)
    eta: float = 1.0

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=np.float64)
        self.positives = [np.asarray(u, dtype=np.float64) for u in self.positives]
        self.negatives = [np.asarray(u, dtype=np.float64) for u in self.negatives]
        d = self.anchor.shape[0]
        for u in self.positives + self.negatives:
            if u.shape != (d,):
                raise ValueError(f"vector of shape {u.shape} does not match anchor dim {d}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


def log_sigmoid(x):
    """log(sigmoid(x)) = -log(1 + exp(-x)), stable for any x; scipy's log_expit."""
    from scipy.special import log_expit  # here, not at the top: `import coles` skips its load
    return log_expit(x)


def _mean_scores(anchor: np.ndarray, vectors: list[np.ndarray], f=None) -> float:
    """Mean of f(u . anchor) over vectors by one matrix-vector product; 0 if empty."""
    if not vectors:
        return 0.0
    scores = np.array(vectors) @ anchor
    return float(np.mean(scores if f is None else f(scores)))


def sampled_nce_sigmoid(batch: ContrastiveBatch) -> float:
    """mean log sigma(u.v) over positives + eta * mean log sigma(-u'.v)."""
    pos = _mean_scores(batch.anchor, batch.positives, log_sigmoid)
    neg = _mean_scores(batch.anchor, batch.negatives, lambda s: log_sigmoid(-s))
    return pos + batch.eta * neg


def coles_pointwise(batch: ContrastiveBatch) -> float:
    """mean u.v over positives - eta * mean u'.v over negatives."""
    pos = _mean_scores(batch.anchor, batch.positives)
    neg = _mean_scores(batch.anchor, batch.negatives)
    return pos - batch.eta * neg


class BlockForm(NamedTuple):
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    loss: float


def block_form(batch: ContrastiveBatch) -> BlockForm:
    """Block summaries and the minimized loss -v.(mu_plus - mu_minus)."""
    if not batch.positives or not batch.negatives:
        raise ValueError("block form needs non-empty positives and negatives")
    mu_plus = np.mean(batch.positives, axis=0)
    mu_minus = np.mean(batch.negatives, axis=0)
    loss = -float(batch.anchor @ (mu_plus - mu_minus))
    return BlockForm(mu_plus, mu_minus, loss)


def generalized_mean(values, p: float) -> float:
    """M_p of positive values; the p=0 limit is the geometric mean."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("generalized mean of empty input")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite value")
    if p <= 0 and np.any(v <= 0):
        raise ValueError("values must be strictly positive for p <= 0")
    if p > 0 and np.any(v < 0):
        raise ValueError("values must be non-negative")
    if p == 0:
        return float(np.exp(np.mean(np.log(v))))
    return float(np.mean(v ** p) ** (1.0 / p))


class AlignUniform(NamedTuple):
    l_align: float
    l_uniform: float
    total: float


def align_uniform(batch: ContrastiveBatch, p: float, softmax: bool = False,
                  normalize: bool = True, tau: float = 1.0) -> AlignUniform:
    """Alignment/uniformity split of the contrastive loss for one anchor.

    Requires a single positive. With softmax=True (p must be 1) the
    uniformity term is the SoftMax denominator log sum exp over negatives
    plus the positive; otherwise it is log M_p of the RBF responses over
    negatives only. When normalize is set, all vectors are first rescaled
    to norm tau (zero vectors are left untouched).
    """
    if len(batch.positives) != 1:
        raise ValueError("align_uniform expects exactly one positive")
    if not batch.negatives:
        raise ValueError("align_uniform needs at least one negative")
    if softmax and p != 1:
        raise ValueError("softmax mode is the p=1 arithmetic case")
    if tau <= 0:
        raise ValueError("tau must be > 0")

    def prep(u: np.ndarray) -> np.ndarray:
        if not normalize:
            return u
        nrm = np.linalg.norm(u)
        return u if nrm == 0 else (tau / nrm) * u

    v = prep(batch.anchor)
    u = prep(batch.positives[0])
    pos_score = float(u @ v)
    neg_scores = np.array([prep(w) for w in batch.negatives]) @ v

    from scipy.special import logsumexp  # here, not at the top: `import coles` skips its load

    l_align = -pos_score
    if softmax:
        l_uniform = float(logsumexp(np.append(neg_scores, pos_score)))
    elif p == 0:
        l_uniform = float(np.mean(neg_scores))  # log of the geometric mean of exp(s)
    else:  # log M_p(exp(s)) = log(mean(exp(p s))) / p
        l_uniform = float(logsumexp(p * neg_scores, b=1.0 / neg_scores.size)) / p
    return AlignUniform(l_align, l_uniform, l_align + l_uniform)
