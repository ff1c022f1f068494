"""Stochastic-block-model fixtures with Gaussian class features.

Edges are Bernoulli per unordered pair (p_in within a block, p_out across);
features are the node's class mean plus isotropic noise, with class means
sitting at the vertices of a regular simplex so every pair of classes is
equidistant at distance mean_sep. `coles synth` writes draw_sbm's numpy
arrays; generate_sbm wraps the same draw into a LabeledGraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import LabeledGraph, SparseSym
from .rng import Xoshiro256StarStar


@dataclass(frozen=True)
class SbmSpec:
    n_classes: int = 3
    per_block: int = 100
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 16
    mean_sep: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("need at least one class")
        if self.per_block < 2:
            raise ValueError("per_block must be >= 2")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if self.feature_dim < self.n_classes:
            raise ValueError("feature_dim must be >= n_classes for simplex means")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not math.isfinite(self.mean_sep):
            raise ValueError(f"mean_sep must be finite, got {self.mean_sep!r}")


def simplex_means(n_classes: int, dim: int, sep: float) -> np.ndarray:
    """Class means: centered unit-simplex vertices scaled to pairwise distance sep."""
    means = np.zeros((n_classes, dim))
    means[:, :n_classes] = np.eye(n_classes)
    means[:, :n_classes] -= 1.0 / n_classes
    if n_classes > 1:
        means *= sep / np.sqrt(2.0)  # e_i - e_j has length sqrt(2)
    return means


def draw_sbm(spec: SbmSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SBM of spec as numpy arrays (edges, features, labels): the unique
    i < j pairs in row-major order as an (m, 2) int64 array, which is the
    edge_list() of their graph, the (n, feature_dim) features and the n labels."""
    n = spec.n_classes * spec.per_block
    labels = np.repeat(np.arange(spec.n_classes), spec.per_block)
    rng = Xoshiro256StarStar(spec.seed)

    edges = rng.bernoulli_pairs(
        n, lambda rows, cols: np.where(labels[rows] == labels[cols], spec.p_in, spec.p_out))

    noise = rng.normals(n * spec.feature_dim).reshape(n, spec.feature_dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        means = simplex_means(spec.n_classes, spec.feature_dim, spec.mean_sep)
        features = means[labels] + spec.noise_sigma * noise
    if not np.all(np.isfinite(features)):
        raise ValueError("features overflow float64: lower noise_sigma or mean_sep")
    return edges, features, labels


def generate_sbm(spec: SbmSpec) -> LabeledGraph:
    """The SBM of spec (draw_sbm) as a LabeledGraph."""
    edges, features, labels = draw_sbm(spec)
    return LabeledGraph(adjacency=SparseSym.from_edges(len(labels), edges), features=features,
                        labels=labels)
