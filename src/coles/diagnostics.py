"""Score-distribution diagnostics and graph homophily measures.

Quantifies how separated positive-pair and negative-pair dot-product scores
are: Parzen-window densities, the Jensen-Shannon divergence between them
(saturates at log 2 once supports separate) and the 1-D Wasserstein
distance (keeps growing with the gap), plus the label-homophily indices
that predict when the contrastive setting is easy.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .graph_core import SparseSym

LOG2 = math.log(2.0)

# parzen_density's workers hold 2 * _KERNEL_BLOCK float64 kernel values
# between them, 1 MiB, which fits in L2 (two grid rows once a row is wider)
_KERNEL_BLOCK = 2**16


def _clean_sample(values, name: str = "sample") -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def silverman_bandwidth(values) -> float:
    """Rule-of-thumb bandwidth 1.06 * std * n^(-1/5)."""
    v = _clean_sample(values)
    sigma = float(np.std(v, ddof=1)) if v.size > 1 else 1.0
    if sigma == 0:
        sigma = 1.0  # degenerate sample; any positive width works
    return 1.06 * sigma * v.size ** (-0.2)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _run_workers(work, workers: int) -> None:
    """work(0) in the calling thread and work(1) .. work(workers - 1) in
    threads, each in a copy of the caller's context (numpy's errstate lives
    there). Every thread started is joined before this returns, and the
    first exception a worker raised, or a thread's failure to start, is
    raised here."""
    failed = []

    def run(w):
        try:
            work(w)
        except BaseException as exc:  # re-raised in the caller below
            failed.append(exc)

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, w))
            thread.start()
            started.append(thread)
    except BaseException as exc:  # re-raised below, once the started threads are joined
        failed.append(exc)
    else:
        run(0)
    for thread in started:
        thread.join()
    if failed:
        raise failed[0]


def parzen_density(values, bandwidth: float, grid) -> np.ndarray:
    """Gaussian-kernel density estimate evaluated on a sorted grid.

    The kernel is evaluated a block of grid rows at a time, so memory is
    O(grid + sample), not their product. Each row is summed whole, in the
    order of exp(-0.5 * z * z).sum(axis=1) over the full matrix, so the
    result is bit-identical to that one-shot form for any number of workers.
    The blocks go, interleaved, to W workers: this thread and W - 1 threads.
    W is at most the usable CPUs, the blocks, and the grid rows that fit in
    2 * _KERNEL_BLOCK values (2 once a row is wider), so the workers' buffers
    hold at most 2 * max(_KERNEL_BLOCK, sample) values for any core count.
    """
    v = _clean_sample(values)
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    g = np.asarray(grid, dtype=np.float64).ravel()
    if g.size < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be sorted with at least 2 distinct points")
    rows = max(1, 2 * _KERNEL_BLOCK // v.size)
    workers = min(_usable_cpus(), -(-g.size // rows), max(2, rows))
    rows = max(1, rows // workers)
    buffers = np.empty((workers, min(rows, g.size), v.size))  # allocated here, not per thread
    sums = np.empty(g.size)

    def work(w):
        for start in range(w * rows, g.size, workers * rows):
            block = slice(start, start + rows)
            kb = buffers[w, :g.size - start]  # the last block may be short
            np.subtract(g[block, None], v, out=kb)
            kb /= bandwidth
            # -0.5 * z * z in one buffer, as -2 * (-0.5 * z)**2: the scalings by
            # powers of two are exact wherever exp's result depends on them, and
            # they overflow for the same z as the product does
            kb *= -0.5
            np.multiply(kb, kb, out=kb)
            kb *= -2.0
            np.exp(kb, out=kb)
            kb.sum(axis=1, out=sums[block])

    _run_workers(work, workers)
    sums /= v.size * bandwidth * math.sqrt(2.0 * math.pi)
    return sums


def shared_grid(p, q, bandwidth_p: float, bandwidth_q: float,
                grid_points: int = 512) -> np.ndarray:
    """Evenly spaced grid covering both supports padded by 5 bandwidths."""
    p = _clean_sample(p, "p")
    q = _clean_sample(q, "q")
    pad = 5.0 * max(bandwidth_p, bandwidth_q)
    lo = min(p.min(), q.min()) - pad
    hi = max(p.max(), q.max()) + pad
    return np.linspace(lo, hi, grid_points)


class ScoreDensities(NamedTuple):
    grid: np.ndarray
    p: np.ndarray
    q: np.ndarray


def score_densities(p, q, bandwidth: float | None = None,
                    grid_points: int = 512) -> ScoreDensities:
    """Parzen densities of two samples on one shared grid.

    With bandwidth=None each sample gets its own Silverman bandwidth;
    a given bandwidth must be finite and > 0 and applies to both.
    """
    p = _clean_sample(p, "p")
    q = _clean_sample(q, "q")
    if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    h_p = bandwidth if bandwidth is not None else silverman_bandwidth(p)
    h_q = bandwidth if bandwidth is not None else silverman_bandwidth(q)
    # Refused: a kernel of grid_points x sample size values (evaluated block by
    # block, never held whole) past what one float64 array could index, and a
    # grid that numpy cannot allocate.
    try:
        if grid_points * max(p.size, q.size) > np.iinfo(np.intp).max // 8:
            raise MemoryError("more values than a float64 array can hold")
        grid = shared_grid(p, q, h_p, h_q, grid_points)
        return ScoreDensities(grid, parzen_density(p, h_p, grid), parzen_density(q, h_q, grid))
    except MemoryError as exc:
        raise MemoryError(f"grid_points={grid_points} for {max(p.size, q.size)} "
                          f"scores: {exc}") from None


def js_divergence(p, q, bandwidth: float | None = None, grid_points: int = 512) -> float:
    """JS divergence (natural log) between Parzen densities of two samples.

    The densities are score_densities(p, q, bandwidth, grid_points); the
    value is clipped to [0, log 2 + 1e-6].
    """
    dens = score_densities(p, q, bandwidth, grid_points)
    return js_from_densities(dens.p, dens.q, dens.grid)


def js_from_densities(fp: np.ndarray, fq: np.ndarray, grid: np.ndarray) -> float:
    """JS divergence (natural log) of two densities sampled on one grid.

    Trapezoid rule over the grid; the value is clipped to [0, log 2 + 1e-6].
    """
    fm = 0.5 * (fp + fq)
    js = (0.5 * np.trapezoid(_rel_entr(fp, fm), grid)
          + 0.5 * np.trapezoid(_rel_entr(fq, fm), grid))
    return float(np.clip(js, 0.0, LOG2 + 1e-6))


def _rel_entr(f: np.ndarray, fm: np.ndarray) -> np.ndarray:
    """f log(f / fm) elementwise for densities f >= 0 and fm >= f / 2, with
    scipy.special.rel_entr's special cases: 0 where f = 0, inf where f > 0
    and fm underflows to 0, and log f - log fm where f / fm is subnormal or
    0. numpy's own log keeps scipy's second BLAS runtime out of the process."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the f = 0 terms are dropped
        ratio = f / fm
        log_ratio = np.where(ratio >= np.finfo(np.float64).smallest_normal, np.log(ratio),
                             np.log(f) - np.log(fm))
        return np.where(f > 0, f * log_ratio, 0.0)


def wasserstein1(p, q) -> float:
    """Exact 1-D Wasserstein distance between empirical measures.

    Integral of |CDF_p - CDF_q| over the pooled sample points.
    """
    p = np.sort(_clean_sample(p, "p"))
    q = np.sort(_clean_sample(q, "q"))
    allv = np.sort(np.concatenate([p, q]))
    deltas = np.diff(allv)
    cdf_p = np.searchsorted(p, allv[:-1], side="right") / p.size
    cdf_q = np.searchsorted(q, allv[:-1], side="right") / q.size
    return float(np.sum(np.abs(cdf_p - cdf_q) * deltas))


class LipschitzCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def lipschitz_check(u, u_prime, v) -> LipschitzCheck:
    """|u.v - u'.v| <= max|v| * ||u - u'||_1 (Hoelder), evaluated both sides."""
    u = np.asarray(u, dtype=np.float64)
    u_prime = np.asarray(u_prime, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != u_prime.shape or u.shape != v.shape:
        raise ValueError("vectors must share one dimension")
    lhs = abs(float(u @ v) - float(u_prime @ v))
    rhs = float(np.max(np.abs(v)) * np.sum(np.abs(u - u_prime))) if v.size else 0.0
    return LipschitzCheck(lhs, rhs, lhs <= rhs + 1e-12)


def homophily(adj: SparseSym, labels) -> float:
    """Mean same-label neighbor fraction, self-loops excluded.

    The mean runs over the nodes with at least one neighbor other than
    themselves; isolated nodes have no neighbor fraction and are skipped.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != adj.n:
        raise ValueError("labels length must match node count")
    coo = adj.csr.tocoo()  # entries in storage order
    off = coo.row != coo.col
    rows, cols = coo.row[off], coo.col[off]
    same = labels[rows] == labels[cols]
    degree = np.bincount(rows, minlength=adj.n)
    has_neighbor = degree > 0
    if not has_neighbor.any():
        raise ValueError("no node has a neighbor other than itself; homophily undefined")
    hits = np.bincount(rows, weights=same, minlength=adj.n)
    return float(np.mean(hits[has_neighbor] / degree[has_neighbor]))


def expected_negative_homophily(class_probs) -> float:
    """Probability two independently drawn nodes share a class: sum of rho_c^2."""
    rho = np.asarray(class_probs, dtype=np.float64)
    if rho.size == 0 or np.any(rho < 0) or abs(float(rho.sum()) - 1.0) > 1e-9:
        raise ValueError("class_probs must be a probability vector")
    return float(np.sum(rho * rho))


def separation(score_pos: float, score_neg: float) -> float:
    """|sigma(x) - sigma(x')| / (sigma(x) + sigma(x')) in [0, 1)."""
    if not (math.isfinite(score_pos) and math.isfinite(score_neg)):
        raise ValueError("scores must be finite")
    a = 1.0 / (1.0 + math.exp(-score_pos))
    b = 1.0 / (1.0 + math.exp(-score_neg))
    return abs(a - b) / (a + b)


def pair_scores(y: np.ndarray, graph: SparseSym, normalize: bool = True,
                tau: float = 1.0) -> np.ndarray:
    """Dot-product scores y_i . y_j over the graph's (i < j) edges, each row
    first scaled to norm tau > 0 when normalize is set (tau is unused otherwise)."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != graph.n:
        raise ValueError(f"y has {y.shape[0]} rows, graph is {graph.n}x{graph.n}")
    u, v = graph.edge_list().T
    if not u.size:
        raise ValueError("graph has no off-diagonal edges to score")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        if normalize:
            norms = np.linalg.norm(y, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            norms[norms == np.inf] = np.nan  # an overflowed norm must not scale its row to 0
            y = tau * y / norms
        scores = np.vecdot(y[u], y[v])
    if not np.all(np.isfinite(scores)):
        raise ValueError("pair scores overflow: the embeddings (or tau) are too large")
    return scores
