"""Dense-matrix and label file formats.

CLSM binary layout: magic b"CLSM", u32 version (=1), u64 rows, u64 cols,
then rows*cols little-endian float64 values in row-major order.
CSV is comma-separated with no header. Labels files hold one non-negative
integer per line ('#' comments allowed).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .graph_core import as_dense

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


def write_csv(x: np.ndarray, path) -> None:
    x = as_dense(x, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_dense(np.array(rows), path)


def read_dense(path) -> np.ndarray:
    """Read either format, sniffing the CLSM magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return read_clsm(path) if magic == CLSM_MAGIC else read_csv(path)


def write_labels(labels, path) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def read_labels(path) -> np.ndarray:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                label = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer label {line!r}") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label {label}")
            out.append(label)
    if not out:
        raise ValueError(f"{path}: empty labels file")
    return np.array(out, dtype=np.int64)
