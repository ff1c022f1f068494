"""Dense-matrix and label file formats, and the fixture file trio.

CLSM binary layout: magic b"CLSM", u32 version (=1), u64 rows, u64 cols,
then rows*cols little-endian float64 values in row-major order.
CSV is comma-separated with no header, values in round-trip repr. Labels
files hold one non-negative integer per line. Both skip blank and '#' lines.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .graph_core import LabeledGraph, _read_table, as_dense, save_edge_list

CLSM_MAGIC = b"CLSM"
CLSM_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def write_clsm(x: np.ndarray, path) -> None:
    x = as_dense(x, "matrix")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CLSM_MAGIC, CLSM_VERSION, x.shape[0], x.shape[1]))
        fh.write(x.astype("<f8", copy=False).tobytes(order="C"))


def read_clsm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(head)
        if magic != CLSM_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, not a CLSM file")
        if version != CLSM_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        # checked before reading: a forged header may declare more than memory holds
        available = os.fstat(fh.fileno()).st_size - _HEADER.size
        if 8 * rows * cols > available:
            raise ValueError(f"{path}: header declares {rows}x{cols} values, "
                             f"payload holds {available} bytes (truncated payload)")
        payload = fh.read(8 * rows * cols)
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return as_dense(data.reshape(rows, cols), path)


def write_csv(x: np.ndarray, path, header: str | None = None) -> None:
    """Write x as CSV, after one header line if given (read_csv takes none)."""
    x = as_dense(x, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in x:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_csv(path) -> np.ndarray:
    return _read_table(path, "matrix file", np.float64, ",",
                       ((np.isfinite, "non-finite value in {line!r}"),))


def read_dense(path) -> np.ndarray:
    """Read either format, sniffing the CLSM magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return read_clsm(path) if magic == CLSM_MAGIC else read_csv(path)


def write_labels(labels, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{v}\n" for v in np.asarray(labels, dtype=np.int64).tolist())


def read_labels(path) -> np.ndarray:
    return _read_table(path, "labels file", np.int64, None, (
        (lambda t: np.full(len(t), t.shape[1] == 1), "expected one label, got {line!r}"),
        (lambda t: t >= 0, "negative label {line}"),
    )).reshape(-1)


def write_fixture(graph: LabeledGraph, out_dir) -> None:
    """Write the edges.txt / features.csv / labels.txt trio the CLI consumes."""
    os.makedirs(out_dir, exist_ok=True)
    save_edge_list(graph.adjacency, os.path.join(out_dir, "edges.txt"))
    write_csv(graph.features, os.path.join(out_dir, "features.csv"))
    write_labels(graph.labels, os.path.join(out_dir, "labels.txt"))
