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


@dataclass(frozen=True)
class FilterConfig:
    kind: str = "s2gc"
    k_steps: int = 8
    alpha: float = 0.05

    def __post_init__(self) -> None:
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


def apply_filter(w: SparseSym, x: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """F X for the filter cfg; identity returns a copy of X."""
    x = as_dense(x, "x")
    if cfg.kind == "identity":
        return x.copy()
    prop = x
    acc = np.zeros_like(x) if cfg.kind == "s2gc" else None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for _ in range(cfg.k_steps):
            prop = _checked(spmm(w, prop))
            if acc is not None:
                acc += prop
        if acc is None:
            return prop
        out = cfg.alpha * x + ((1.0 - cfg.alpha) / cfg.k_steps) * acc
    return _checked(out)
