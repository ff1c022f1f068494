"""Optional reader for the Planetoid on-disk citation-network layout.

Expects the classic eight files per dataset (ind.<name>.x/y/tx/ty/allx/
ally/graph/test.index) in one directory. No downloading: if the files are
absent the caller should skip. Pickles are py2-era, hence latin1 decoding.
"""

from __future__ import annotations

import os
import pickle
import sys

import numpy as np
import scipy.sparse as sp

from .graph_core import LabeledGraph, SparseSym
from .io import read_labels, write_fixture

PARTS = ("x", "y", "tx", "ty", "allx", "ally", "graph", "test.index")


def dataset_files(root: str, name: str) -> list[str]:
    return [os.path.join(root, f"ind.{name}.{part}") for part in PARTS]


def is_available(root: str, name: str) -> bool:
    return all(os.path.isfile(p) for p in dataset_files(root, name))


def _load_pickle(path: str):
    with open(path, "rb") as fh:
        try:
            return pickle.load(fh, encoding="latin1")
        except (EOFError, pickle.UnpicklingError) as exc:  # a truncated or foreign file
            raise ValueError(f"{path}: not a readable pickle: {exc}") from exc


def load_planetoid(root: str, name: str) -> LabeledGraph:
    if not is_available(root, name):
        missing = [p for p in dataset_files(root, name) if not os.path.isfile(p)]
        raise FileNotFoundError(f"planetoid dataset {name!r} incomplete under {root}: "
                                f"missing {missing[0]}")
    x, y, tx, ty, allx, ally, graph = (_load_pickle(p) for p in dataset_files(root, name)[:7])
    test_idx = read_labels(dataset_files(root, name)[7])
    test_sorted = np.sort(test_idx)
    tx = sp.csr_matrix(tx).toarray()

    span = int(test_sorted.max()) - int(test_sorted.min()) + 1
    if span > tx.shape[0]:
        # isolated test nodes (citeseer): widen with zero feature rows / labels
        rows = test_sorted - test_sorted.min()
        tx_ext, ty_ext = np.zeros((span, tx.shape[1])), np.zeros((span, ty.shape[1]))
        tx_ext[rows], ty_ext[rows] = tx, ty
        tx, ty = tx_ext, ty_ext

    features = np.vstack([sp.csr_matrix(allx).toarray(), tx], dtype=np.float64)
    features[test_idx, :] = features[test_sorted, :]
    onehot = np.vstack([ally, ty])
    onehot[test_idx, :] = onehot[test_sorted, :]
    labels = np.argmax(onehot, axis=1).astype(np.int64)

    n = features.shape[0]
    edges = [(int(u), int(v)) for u, nbrs in graph.items() for v in nbrs
             if u != v and 0 <= u < n and 0 <= v < n]
    adjacency = SparseSym.from_edges(n, edges)
    return LabeledGraph(adjacency=adjacency, features=features, labels=labels)


def main(argv=None) -> int:
    """python -m coles.planetoid <root> <name> <out_dir>: export for the CLI."""
    args = sys.argv[1:] if argv is None else argv
    try:
        if len(args) != 3:
            raise ValueError("usage: python -m coles.planetoid <root> <name> <out_dir>")
        graph = load_planetoid(args[0], args[1])
        write_fixture(graph.adjacency.edge_list(), graph.features, graph.labels, args[2])
    except (OSError, ValueError) as exc:
        print(f"coles.planetoid: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
