"""Closed-form contrastive embeddings for linear graph networks.

The trace objective  max_P trace(P M P^T)  with  M = (FX)^T delta_w (FX)
and orthonormal rows P P^T = I is solved exactly by the top eigenvectors of
the small d x d matrix M. Eigenpairs come from LAPACK's dsyevd through
numpy.linalg.eigh, on the one BLAS runtime numpy has already loaded; M stays
at feature dimensionality, so d in the low thousands solves in seconds.
Wider feature matrices can be folded first with hash_features().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .graph_core import SparseSym, as_dense, normalized_adjacency, spmm
from .negative_sampling import NegSampleConfig, build_delta_w, sample_negative_graph
from .rng import mul_high, streams
from .spectral_filters import FilterConfig, apply_filter


@dataclass(frozen=True)
class ColesConfig:
    d_prime: int = 16
    filter: FilterConfig = field(default_factory=FilterConfig)
    negatives: NegSampleConfig = field(default_factory=NegSampleConfig)
    self_loops: bool = True

    def __post_init__(self) -> None:
        if self.d_prime < 1:
            raise ValueError("d_prime must be >= 1")


@dataclass
class EmbeddingResult:
    P: np.ndarray            # d' x d, orthonormal rows
    Y: np.ndarray            # n x d'
    eigenvalues: np.ndarray  # d' values, descending
    objective: float
    eigengap: float | None   # (lam_d' - lam_d'+1) / max |lam|; None if d' = d or M = 0
    rank_warning: bool = False  # fewer than d' positive eigenvalues


class EigResult(NamedTuple):
    values: np.ndarray   # descending
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] pairs values[i]
    # (both are reversed views of LAPACK's ascending output, not copies)


def sym_eig(m: np.ndarray) -> EigResult:
    """Full eigendecomposition of a symmetric matrix by LAPACK (dsyevd, through
    numpy.linalg.eigh).

    Eigenvalues are returned in descending order; each eigenvector's
    largest-magnitude component is made positive so signs are reproducible.
    A matrix that is symmetric bit for bit goes to LAPACK as it is; any other
    within 1e-9 of symmetric goes as 0.5 * (m + m.T).
    A non-finite matrix, one whose symmetrization or eigenvalues overflow
    float64, or a LAPACK failure raises LinAlgError.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    n = m.shape[0]
    if not np.all(np.isfinite(m)):
        raise LinAlgError("eigensolver failed: matrix has non-finite entries")
    if np.array_equal(m.view(np.uint64), m.T.view(np.uint64)):
        # symmetric bit for bit, signed zeros too: 0.5 * (m + m.T) would be m
        # itself, unless some 2 * m[i, j] overflows
        overflows = n > 0 and max(m.max(), -m.min()) > np.finfo(np.float64).max / 2
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            if np.max(np.abs(m - m.T)) > 1e-9:
                raise ValueError("matrix is not symmetric within 1e-9")
            m = 0.5 * (m + m.T)
        overflows = not np.all(np.isfinite(m))
    if overflows:
        raise LinAlgError("eigensolver failed: the symmetrized matrix overflows float64")
    try:
        values, vectors = np.linalg.eigh(m)
    except LinAlgError as exc:
        raise LinAlgError(f"eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise LinAlgError("eigensolver failed: an eigenvalue overflows float64")
    values, vectors = values[::-1], vectors[:, ::-1]  # views: no third d x d array
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    np.negative(vectors, out=vectors, where=lead < 0)
    return EigResult(values, vectors)


def build_quadratic_form(fx: np.ndarray, delta_w: SparseSym) -> np.ndarray:
    """M = fx^T (delta_w fx), explicitly symmetrized; LinAlgError if it overflows."""
    fx = as_dense(fx, "fx")
    if fx.shape[0] != delta_w.n:
        raise ValueError(f"fx has {fx.shape[0]} rows, delta_w is {delta_w.n}x{delta_w.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        m = fx.T @ spmm(delta_w, fx)
        m = 0.5 * (m + m.T)
    if not np.all(np.isfinite(m)):
        d = m.shape[0]
        raise LinAlgError(f"eigensolver failed: the {d} x {d} quadratic form overflows "
                          "float64; rescale the features")
    return m


def coles_objective(y: np.ndarray, delta_w: SparseSym) -> float:
    """trace(Y^T delta_w Y)."""
    y = as_dense(y, "y")
    if y.shape[0] != delta_w.n:
        raise ValueError(f"y has {y.shape[0]} rows, delta_w is {delta_w.n}x{delta_w.n}")
    return float(np.sum(y * spmm(delta_w, y)))


def solve_projection(fx: np.ndarray, delta_w: SparseSym, d_prime: int) -> EmbeddingResult:
    """Top-d' eigenvector projection of the quadratic form of (fx, delta_w).

    The eigengap is read off the full spectrum sym_eig returns anyway; a small
    one means the top-d' space of M, and so the projection, is ill-determined.
    """
    fx = as_dense(fx, "fx")
    d = fx.shape[1]
    if not (1 <= d_prime <= d):
        raise ValueError(f"d_prime must be in [1, {d}], got {d_prime}")
    m = build_quadratic_form(fx, delta_w)
    eig = sym_eig(m)
    p = eig.vectors[:, :d_prime].T.copy()
    y = fx @ p.T
    top = eig.values[:d_prime].copy()
    scale = float(np.max(np.abs(eig.values)))
    return EmbeddingResult(
        P=p,
        Y=np.ascontiguousarray(y),
        eigenvalues=top,
        objective=float(top.sum()),
        eigengap=(float((top[-1] - eig.values[d_prime]) / scale)
                  if d_prime < d and scale > 0 else None),
        rank_warning=bool(np.sum(eig.values > 0) < d_prime),
    )


def solve_linear_coles(x: np.ndarray, adjacency: SparseSym, cfg: ColesConfig) -> EmbeddingResult:
    """Full pipeline: normalize, sample negatives, filter, project.

    `adjacency` is the raw binary graph (no self-loops); `x` the n x d node
    features. The result's eigengap is that of the quadratic form built from
    these negatives and this filter. Deterministic given (x, adjacency, cfg).
    """
    x = as_dense(x, "x")
    if adjacency.n != x.shape[0]:
        raise ValueError(f"adjacency has {adjacency.n} nodes, features have {x.shape[0]} rows")
    w_pos = normalized_adjacency(adjacency, self_loops=cfg.self_loops)
    negs = [sample_negative_graph(adjacency.n, cfg.negatives, k)
            for k in range(cfg.negatives.kappa)]
    delta_w = build_delta_w(w_pos, negs, cfg.negatives.eta_prime)
    fx = apply_filter(w_pos, x, cfg.filter)
    return solve_projection(fx, delta_w, cfg.d_prime)


def hash_features(x: np.ndarray, n_buckets: int, seed: int = 0) -> np.ndarray:
    """Fold a wide feature matrix into n_buckets signed hash buckets.

    Column j lands in a bucket with a +-1 sign, both read off the state of
    substream j of seed (rng.streams); columns are folded in ascending j, so
    the output is deterministic. Use before the solver to shrink a very wide d x d form.
    """
    x = as_dense(x, "x")
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    d = x.shape[1]
    h1, h2 = streams(seed, np.arange(d))[:, :2].T
    signs = np.where(h2 & np.uint64(1), -1.0, 1.0)
    import scipy.sparse as sp  # here, not at the top: `import coles` skips its load
    fold = sp.csr_matrix((signs, (np.arange(d), mul_high(h1, n_buckets).astype(np.int64))),
                         shape=(d, n_buckets))
    out = np.ascontiguousarray(x @ fold)  # each bucket sums its columns in ascending j
    if not np.all(np.isfinite(out)):
        raise ValueError("hashed features overflow float64: rescale the features")
    return out
