"""Sparse symmetric graphs, degree normalization and the propagation kernel.

SparseSym is the single sparse type used everywhere: it holds one scipy CSR
matrix of a symmetric n x n matrix in canonical form (sorted column indices,
no duplicates, no explicit zeros), and every product runs on that matrix.
A foreign matrix enters only through from_scipy, which checks it, bit-exact
symmetry included; from_edges and the graph operations of this package keep
symmetry by construction and do not recheck.
Dense matrices are plain 2-D float64 C-contiguous numpy arrays.
_read_table reads every text format, edge lists here, CSV and labels in io:
np.loadtxt is the one grammar, and each format's checks run on its table.
"""

from __future__ import annotations

import warnings
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
    """A symmetric n x n matrix: one scipy CSR matrix, csr, in canonical form.

    Immutable by convention: operations return new instances. The stored
    pattern always satisfies (i, j, w) present iff (j, i, w) present with
    bit-identical w, indices sorted per row, no duplicates or explicit
    zeros, finite weights. from_scipy checks it; from_edges checks its pairs,
    and it and _wrap trust the symmetry of what they build.
    """

    __slots__ = ("csr",)

    @classmethod
    def from_scipy(cls, m) -> "SparseSym":
        """The checked entry: a copy of any square, finite, bit-exactly
        symmetric matrix that scipy takes, canonicalized."""
        m = sp.csr_matrix(m, dtype=np.float64, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        m.check_format(full_check=True)  # indices in range, indptr ordered
        if not np.all(np.isfinite(m.data)):
            raise ValueError("non-finite weight")
        out = cls._wrap(m)
        out._validate()
        return out

    def _validate(self) -> None:
        # bit-exact symmetry: the CSR of the transpose must match entrywise
        t = self.csr.T.tocsr()
        t.sort_indices()
        if not (np.array_equal(t.indptr, self.indptr) and np.array_equal(t.indices, self.indices)
                and np.array_equal(t.data, self.data)):
            raise ValueError("matrix is not bit-exactly symmetric")

    @classmethod
    def _wrap(cls, m: sp.csr_matrix) -> "SparseSym":
        """Canonicalize m in place and store it unchecked; m must be symmetric
        by construction and share no arrays with another matrix."""
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        out = cls.__new__(cls)
        out.csr = m
        return out

    @classmethod
    def from_edges(cls, n: int, edges) -> "SparseSym":
        """Build a symmetric matrix of unit weights from undirected (u, v)
        pairs, given as an iterable of pairs or an (m, 2) integer array.

        Pairs are deduplicated; (u, v) and (v, u) count once. Ids outside
        [0, n) and self pairs are rejected. The result is symmetric by
        construction, so no transpose check runs.
        """
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                         dtype=np.int64).reshape(-1, 2)
        outside = pairs[(pairs < 0) | (pairs >= n)]
        if outside.size:
            raise ValueError(f"node id {outside[0]} outside [0, {n})")
        loops = pairs[pairs[:, 0] == pairs[:, 1], 0]
        if loops.size:
            raise ValueError(f"self-loop ({loops[0]}, {loops[0]}) not allowed here")
        rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T  # both orientations
        # a boolean pattern: repeated pairs merge to one True when it is built
        pattern = sp.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
        return cls._wrap(pattern.astype(np.float64))

    # -- views of csr, no copies -------------------------------------------

    n = property(lambda self: self.csr.shape[0])
    indptr = property(lambda self: self.csr.indptr)
    indices = property(lambda self: self.csr.indices)
    data = property(lambda self: self.csr.data)
    nnz = property(lambda self: self.csr.nnz)

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def _row_ids(self) -> np.ndarray:
        """The row index of each stored entry, in storage order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def degrees(self) -> np.ndarray:
        """Row sums (weighted degrees, diagonal included)."""
        return np.bincount(self._row_ids(), weights=self.data, minlength=self.n)

    def has_diagonal(self) -> bool:
        return bool(np.any(self.indices == self._row_ids()))

    def edge_list(self) -> np.ndarray:
        """Upper-triangle (u < v) entry positions in sorted order, as an
        (m, 2) int64 array."""
        rows = self._row_ids()
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))


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


# -- text files ---------------------------------------------------------------

def _loadtxt(source, dtype, delimiter) -> np.ndarray:
    """np.loadtxt's 2-D table of an open file or lines; warnings (empty input) raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)


def _parse(lines, dtype, delimiter) -> tuple[np.ndarray, tuple | None]:
    """_loadtxt's table of lines up to the first line that it refuses, alone or at
    the width of the lines before, and that line's (index, message), or None.
    A refused run of lines is halved until the line is found: O(lines) work."""
    parts = []

    def refusal(lo, hi):
        try:
            part = _loadtxt(lines[lo:hi], dtype, delimiter)
            width = parts[0].shape[1] if parts else part.shape[1]
            if part.shape[1] == width:
                parts.append(part)
                return None
            message = f"expected {width} columns, got {part.shape[1]}"
        except (ValueError, Warning):
            message = f"cannot read {{line!r}} as {np.dtype(dtype)} values"
        mid = (lo + hi) // 2
        return (lo, message) if hi - lo == 1 else refusal(lo, mid) or refusal(mid, hi)

    refused = refusal(0, len(lines))
    return np.concatenate(parts or [np.empty((0, 0), dtype)]), refused


def _first_failure(table: np.ndarray, checks) -> tuple | None:
    """(row, message) of the first row that fails a check, with the first check it
    fails, or None."""
    failures = []
    for holds, message in checks:
        ok = holds(table)  # a bool per row or per entry: the first False is in the first bad row
        if not ok.all():
            failures.append((int(np.argmin(ok)) // (ok.size // len(table)), message))
    return min(failures, key=lambda failure: failure[0], default=None)


def _read_table(path, what: str, dtype, delimiter, checks) -> np.ndarray:
    """The rows of a UTF-8 text file as a 2-D array of dtype passing every check:
    (holds, message) pairs, holds(table) a bool per row or entry and message a
    str.format template of the failing row's line. np.loadtxt reads the whole
    file, opened here (given a path, numpy would unzip .gz files and fetch
    URLs). If it cannot or a check fails, the stripped lines but blank and '#'
    ones, BOM skipped, go to the same np.loadtxt call, and an error names the
    first line that it refuses or that fails a check, or a byte not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            table = _loadtxt(fh, dtype, delimiter)
    except (ValueError, Warning):  # a UnicodeDecodeError is a ValueError too
        table = None
    if table is not None and _first_failure(table, checks) is None:
        return table
    numbers, lines = [], []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for number, line in enumerate(map(str.strip, fh), start=1):
            if not line.isascii():  # a byte that is not UTF-8 reads as a lone surrogate
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ValueError(f"{path}:{number}: byte {byte:#04x} is not UTF-8") from None
            if line and not line.startswith("#"):
                numbers.append(number)
                lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty {what}")
    table, refused = _parse(lines, dtype, delimiter)
    failure = _first_failure(table, checks) or refused
    if failure:
        row, message = failure
        raise ValueError(f"{path}:{numbers[row]}: " + message.format(line=lines[row]))
    return table


def load_edge_list(path, n: int | None = None) -> SparseSym:
    """Read an undirected binary graph from a "u v" text file.

    Lines starting with '#' and blank lines are ignored. Duplicate lines and
    reversed pairs collapse to one edge. Node count is 1 + max id unless a
    larger n is given explicitly (trailing isolated nodes).
    """
    pairs = _read_table(path, "edge list", np.int64, None, (
        (lambda t: np.full(len(t), t.shape[1] == 2), "expected 'u v', got {line!r}"),
        (lambda t: (t >= 0) & (t <= MAX_NODE_ID),
         f"node id outside [0, {MAX_NODE_ID}] in {{line!r}}"),
        (lambda t: t[:, :1] != t[:, -1:], "self-loop in {line!r}"),
    ))
    max_id = int(pairs.max())
    if n is not None and n <= max_id:
        raise ValueError(f"{path}: node id {max_id} exceeds requested n={n}")
    return SparseSym.from_edges(max_id + 1 if n is None else n, pairs)


def save_edge_list(adj: SparseSym, path) -> None:
    """Write the upper-triangle edges as "u v" lines (sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in adj.edge_list().tolist():
            fh.write(f"{u} {v}\n")


# -- normalization pipeline --------------------------------------------------

def add_self_loops(adj: SparseSym) -> SparseSym:
    """Return adj + I. Rejects inputs that already carry diagonal entries."""
    if adj.has_diagonal():
        raise ValueError("adjacency already has diagonal entries")
    return SparseSym._wrap(adj.csr + sp.identity(adj.n, format="csr"))


def degree_normalize(adj: SparseSym) -> SparseSym:
    """Symmetric degree normalization: entry (i, j) -> w_ij / sqrt(d_i d_j)."""
    deg = adj.degrees()
    if np.any(deg <= 0):
        bad = int(np.argmin(deg))
        raise ValueError(f"node {bad} has zero degree; enable self-loops or connect it")
    inv_sqrt = 1.0 / np.sqrt(deg)
    m = adj.csr.copy()
    m.data *= inv_sqrt[adj._row_ids()] * inv_sqrt[adj.indices]  # same scale for (i, j), (j, i)
    return SparseSym._wrap(m)


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
    return np.ascontiguousarray(s.csr @ x)
