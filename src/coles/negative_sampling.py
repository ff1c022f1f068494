"""Randomized negative graphs and the signed adjacency they induce.

The contrastive objective subtracts an average of degree-normalized random
graphs from the degree-normalized data graph:

    delta_w = W_pos - (eta'/kappa) * sum_k W_neg_k

Each negative graph k draws from its own xoshiro256** stream,
Xoshiro256StarStar(seed, k), so graphs are independent and individually
reproducible regardless of sampling order. A per-node-k graph draws
per_node distinct partners for each node; an Erdos-Renyi graph walks the
node pairs by geometric skips, one draw and one libm log per kept pair
(rng.geometric_pairs), so it costs O(n + m), not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import SparseSym, normalized_adjacency
from .rng import Xoshiro256StarStar

MODES = ("per-node-k", "erdos-renyi")


@dataclass(frozen=True)
class NegSampleConfig:
    kappa: int = 10
    per_node: int = 5
    mode: str = "per-node-k"
    p_prime: float = 0.05
    eta_prime: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "per-node-k" and self.per_node < 1:
            raise ValueError("per_node must be >= 1")
        if not np.isfinite(self.p_prime):
            raise ValueError(f"p_prime must be finite, got {self.p_prime!r}")
        if self.mode == "erdos-renyi" and not (0.0 < self.p_prime < 1.0):
            raise ValueError("p_prime must lie in (0, 1)")
        if not (0.0 <= self.eta_prime <= 1.0):
            raise ValueError("eta_prime must lie in [0, 1]")


def _raw_edges(n: int, cfg: NegSampleConfig, rng: Xoshiro256StarStar) -> np.ndarray:
    """Raw negative edges as an (m, 2) array of node pairs, repeats allowed."""
    if cfg.mode == "per-node-k":
        rows = np.repeat(np.arange(n), cfg.per_node)
        return np.column_stack((rows, rng.distinct_runs(n, cfg.per_node).ravel()))
    return rng.geometric_pairs(n, cfg.p_prime)


def sample_negative_graph(n: int, cfg: NegSampleConfig, k: int) -> SparseSym:
    """Sample negative graph k and normalize it like the positive graph
    (self-loops, then degree normalization), so both share one scale."""
    if n < 2:
        raise ValueError("need at least 2 nodes to sample a negative graph")
    if k < 0 or (cfg.kappa and k >= cfg.kappa):
        raise ValueError(f"graph index {k} out of range for kappa={cfg.kappa}")
    if cfg.mode == "per-node-k" and cfg.per_node >= n:
        raise ValueError(f"per_node={cfg.per_node} must be < n={n}")
    rng = Xoshiro256StarStar(cfg.seed, k)
    edges = _raw_edges(n, cfg, rng)
    if not len(edges) and cfg.mode == "erdos-renyi":
        edges = _raw_edges(n, cfg, rng)  # one resample for degenerate draws
        if not len(edges):
            raise ValueError(f"empty negative graph twice in a row (p_prime={cfg.p_prime})")
    return normalized_adjacency(SparseSym.from_edges(n, edges))


def build_delta_w(w_pos: SparseSym, w_negs: list[SparseSym], eta_prime: float) -> SparseSym:
    """delta_w = w_pos - (eta'/kappa) * sum of negatives (w_pos itself when kappa=0)."""
    if not w_negs:
        return w_pos
    for w in w_negs:
        if w.n != w_pos.n:
            raise ValueError(f"negative graph is {w.n}x{w.n}, expected {w_pos.n}x{w_pos.n}")
    acc = sum((w.csr for w in w_negs[1:]), w_negs[0].csr)  # left to right
    return SparseSym._wrap(w_pos.csr - (eta_prime / len(w_negs)) * acc)

