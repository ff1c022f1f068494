"""Linear spectral filters applied by iterated sparse propagation.

Two filter families over a degree-normalized adjacency W:

    sgc:   F X = W^K X
    s2gc:  F X = alpha*X + ((1-alpha)/K) * sum_{k=1..K} W^k X

Powers of W are never materialized; a single propagation state is pushed
through spmm K times, accumulating in ascending k for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import SparseSym, as_dense, spmm

KINDS = ("sgc", "s2gc", "identity")


@dataclass
class FilterConfig:
    kind: str = "s2gc"
    k_steps: int = 8
    alpha: float = 0.05

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"filter kind must be one of {KINDS}")
        if self.kind in ("sgc", "s2gc") and self.k_steps < 1:
            raise ValueError("k_steps must be >= 1 for sgc/s2gc")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


def _checked(fx: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(fx)):
        raise ValueError("filtered features overflow float64: rescale the features")
    return fx


def sgc_filter(w: SparseSym, x: np.ndarray, k_steps: int) -> np.ndarray:
    """Apply W k_steps times; k_steps=0 returns X unchanged."""
    if k_steps < 0:
        raise ValueError("k_steps must be >= 0")
    out = as_dense(x, "x").copy()
    for _ in range(k_steps):
        out = _checked(spmm(w, out))
    return out


def s2gc_filter(w: SparseSym, x: np.ndarray, k_steps: int, alpha: float) -> np.ndarray:
    """alpha*X plus the mean of the first k_steps propagations of X."""
    if k_steps < 1:
        raise ValueError("k_steps must be >= 1")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    x = as_dense(x, "x")
    prop = x
    acc = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for _ in range(k_steps):
            prop = _checked(spmm(w, prop))
            acc += prop
        out = alpha * x + ((1.0 - alpha) / k_steps) * acc
    return _checked(out)


def apply_filter(w: SparseSym, x: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    cfg.validate()
    if cfg.kind == "identity":
        return as_dense(x, "x").copy()
    if cfg.kind == "sgc":
        return sgc_filter(w, x, cfg.k_steps)
    return s2gc_filter(w, x, cfg.k_steps, cfg.alpha)
