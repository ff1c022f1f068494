"""Sparse symmetric graphs, degree normalization and the propagation kernel.

SparseSym is the single sparse type used everywhere: it stores a symmetric
n x n matrix in canonical CSR form (sorted column indices, no duplicates,
no explicit zeros). Symmetry is checked bit-exactly where a foreign matrix
enters (the constructor and from_scipy); from_edges and the graph operations
of this package keep it by construction and do not recheck.
Dense matrices are plain 2-D float64 C-contiguous numpy arrays.
_parse_lines reads every text format: edge lists here, CSV and labels in io.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MAX_NODE_ID = 2**32 - 1


def as_dense(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 C-contiguous dense matrix."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


class SparseSym:
    """Symmetric sparse matrix in canonical CSR storage.

    Immutable by convention: operations return new instances. The stored
    pattern always satisfies (i, j, w) present iff (j, i, w) present with
    bit-identical w, indices sorted per row, no duplicates, finite weights:
    the constructor and from_scipy check it; from_edges checks its pairs and
    weight, and it and _wrap trust the symmetry of what they build.
    """

    __slots__ = ("n", "indptr", "indices", "data")

    def __init__(self, n: int, indptr, indices, data):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError("negative node count")
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr length must be n+1")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices/data length mismatch")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite weight")
        # row of each stored entry; searchsorted stays defined on a malformed indptr
        rows = np.searchsorted(self.indptr, np.arange(self.indices.size), side="right") - 1
        bad = np.flatnonzero((np.diff(self.indices) <= 0) & (rows[1:] == rows[:-1]))
        if bad.size:
            raise ValueError(f"row {rows[bad[0]]}: unsorted or duplicate column indices")
        # bit-exact symmetry: the CSR of the transpose must match entrywise
        t = self._scipy().T.tocsr()
        t.sort_indices()
        if not (np.array_equal(t.indptr.astype(np.int64), self.indptr)
                and np.array_equal(t.indices.astype(np.int64), self.indices)
                and np.array_equal(t.data, self.data)):
            raise ValueError("matrix is not bit-exactly symmetric")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scipy(cls, m) -> "SparseSym":
        m = sp.csr_matrix(m, dtype=np.float64, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        out = cls._wrap(m)
        out._validate()
        return out

    @classmethod
    def _wrap(cls, m: sp.csr_matrix) -> "SparseSym":
        """Canonicalize m in place and wrap it unchecked; m must be symmetric
        by construction and share no arrays with another matrix."""
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        out = cls.__new__(cls)
        out.n = m.shape[0]
        out.indptr = m.indptr.astype(np.int64)
        out.indices = m.indices.astype(np.int64)
        out.data = m.data
        return out

    @classmethod
    def from_edges(cls, n: int, edges, weight: float = 1.0) -> "SparseSym":
        """Build a symmetric matrix with one finite weight from undirected
        (u, v) pairs, given as an iterable of pairs or an (m, 2) integer array.

        Pairs are deduplicated; (u, v) and (v, u) count once. Ids outside
        [0, n) and self pairs are rejected. The result is symmetric by
        construction, so no transpose check runs.
        """
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                         dtype=np.int64).reshape(-1, 2)
        if not np.isfinite(weight):
            raise ValueError(f"non-finite weight {weight}")
        outside = pairs[(pairs < 0) | (pairs >= n)]
        if outside.size:
            raise ValueError(f"node id {outside[0]} outside [0, {n})")
        loops = pairs[pairs[:, 0] == pairs[:, 1], 0]
        if loops.size:
            raise ValueError(f"self-loop ({loops[0]}, {loops[0]}) not allowed here")
        uniq = np.unique(np.sort(pairs, axis=1), axis=0)
        rows, cols = np.concatenate([uniq, uniq[:, ::-1]]).T  # both orientations
        vals = np.full(rows.shape, float(weight))
        return cls._wrap(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))

    @classmethod
    def identity(cls, n: int) -> "SparseSym":
        return cls._wrap(sp.identity(n, format="csr"))

    @classmethod
    def zeros(cls, n: int) -> "SparseSym":
        return cls._wrap(sp.csr_matrix((n, n)))

    # -- views -------------------------------------------------------------

    def _scipy(self) -> sp.csr_matrix:
        m = sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        m.has_sorted_indices = True
        return m

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        return self._scipy().toarray()

    def _row_ids(self) -> np.ndarray:
        """The row index of each stored entry, in storage order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def degrees(self) -> np.ndarray:
        """Row sums (weighted degrees, diagonal included)."""
        return np.bincount(self._row_ids(), weights=self.data, minlength=self.n)

    def has_diagonal(self) -> bool:
        return bool(np.any(self.indices == self._row_ids()))

    def edge_list(self) -> list[tuple[int, int]]:
        """Upper-triangle (u < v) entry positions in sorted order."""
        rows = self._row_ids()
        upper = rows < self.indices
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    def equals(self, other: "SparseSym") -> bool:
        """Bit-identical structural and numerical equality."""
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))


@dataclass
class LabeledGraph:
    """A graph with node features and integer class labels."""

    adjacency: SparseSym
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = as_dense(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.adjacency.n
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("adjacency, features and labels disagree on node count")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


# -- text files ---------------------------------------------------------------

def _parse_lines(path, parse, what: str) -> list:
    """parse(line) for each stripped line of a UTF-8 text file but blank and '#'
    lines; errors name "path:line", or "path: empty <what>" if no line is left."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if line and not line.startswith("#"):
                try:
                    out.append(parse(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: empty {what}")
    return out


def _edge(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"expected 'u v', got {line!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"non-integer node id in {line!r}") from None
    if u < 0 or v < 0:
        raise ValueError("negative node id")
    if u > MAX_NODE_ID or v > MAX_NODE_ID:
        raise ValueError("node id overflow")
    if u == v:
        raise ValueError(f"self-loop in input ({u} {v})")
    return u, v


def load_edge_list(path, n: int | None = None) -> SparseSym:
    """Read an undirected binary graph from a "u v" text file.

    Lines starting with '#' and blank lines are ignored. Duplicate lines and
    reversed pairs collapse to one edge. Node count is 1 + max id unless a
    larger n is given explicitly (trailing isolated nodes).
    """
    pairs = np.array(_parse_lines(path, _edge, "edge list"), dtype=np.int64)
    max_id = int(pairs.max())
    if n is not None and n <= max_id:
        raise ValueError(f"{path}: node id {max_id} exceeds requested n={n}")
    return SparseSym.from_edges(max_id + 1 if n is None else n, pairs)


def save_edge_list(adj: SparseSym, path) -> None:
    """Write the upper-triangle edges as "u v" lines (sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in adj.edge_list():
            fh.write(f"{u} {v}\n")


# -- normalization pipeline --------------------------------------------------

def add_self_loops(adj: SparseSym) -> SparseSym:
    """Return adj + I. Rejects inputs that already carry diagonal entries."""
    if adj.has_diagonal():
        raise ValueError("adjacency already has diagonal entries")
    return SparseSym._wrap(adj._scipy() + sp.identity(adj.n, format="csr"))


def degree_normalize(adj: SparseSym) -> SparseSym:
    """Symmetric degree normalization: entry (i, j) -> w_ij / sqrt(d_i d_j)."""
    deg = adj.degrees()
    if np.any(deg <= 0):
        bad = int(np.argmin(deg))
        raise ValueError(f"node {bad} has zero degree; enable self-loops or connect it")
    inv_sqrt = 1.0 / np.sqrt(deg)
    m = adj._scipy().copy()
    m.data *= inv_sqrt[adj._row_ids()] * inv_sqrt[adj.indices]  # same scale for (i, j), (j, i)
    return SparseSym._wrap(m)


def laplacian(w_norm: SparseSym) -> SparseSym:
    """L = I - W for a degree-normalized W."""
    return SparseSym._wrap(sp.identity(w_norm.n, format="csr") - w_norm._scipy())


def normalized_adjacency(adj: SparseSym, self_loops: bool = True) -> SparseSym:
    """Full positive-graph pipeline: optional self-loops, then normalization."""
    return degree_normalize(add_self_loops(adj) if self_loops else adj)


def spmm(s: SparseSym, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product s @ x.

    Per output row the accumulation runs in ascending column order (canonical
    CSR, single-threaded), so results are bit-identical across runs.
    """
    x = as_dense(x, "x")
    if s.n != x.shape[0]:
        raise ValueError(f"dimension mismatch: sparse is {s.n}x{s.n}, dense has {x.shape[0]} rows")
    return np.ascontiguousarray(s._scipy() @ x)
