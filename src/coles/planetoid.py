"""Optional reader for the Planetoid on-disk citation-network layout.

Expects the classic eight files per dataset (ind.<name>.x/y/tx/ty/allx/
ally/graph/test.index) in one directory. No downloading: if the files are
absent the caller should skip. Pickles are py2-era, hence latin1 decoding.
"""

from __future__ import annotations

import os
import pickle

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
        return pickle.load(fh, encoding="latin1")


def load_planetoid(root: str, name: str) -> LabeledGraph:
    if not is_available(root, name):
        missing = [p for p in dataset_files(root, name) if not os.path.isfile(p)]
        raise FileNotFoundError(f"planetoid dataset {name!r} incomplete under {root}: "
                                f"missing {missing[0]}")
    x, y, tx, ty, allx, ally, graph = (_load_pickle(p) for p in dataset_files(root, name)[:7])
    test_idx = read_labels(dataset_files(root, name)[7])
    test_sorted = np.sort(test_idx)

    n_base = allx.shape[0]
    span = int(test_sorted.max()) - int(test_sorted.min()) + 1
    if span > tx.shape[0]:
        # isolated test nodes (citeseer): widen with zero feature rows / labels
        tx_ext = sp.lil_matrix((span, tx.shape[1]))
        tx_ext[test_sorted - test_sorted.min(), :] = tx
        tx = tx_ext.tocsr()
        ty_ext = np.zeros((span, ty.shape[1]))
        ty_ext[test_sorted - test_sorted.min(), :] = ty
        ty = ty_ext

    features = sp.vstack([sp.csr_matrix(allx), sp.csr_matrix(tx)]).tolil()
    features[test_idx, :] = features[test_sorted, :]
    onehot = np.vstack([ally, ty])
    onehot[test_idx, :] = onehot[test_sorted, :]
    labels = np.argmax(onehot, axis=1).astype(np.int64)

    n = n_base + tx.shape[0]
    edges = [(int(u), int(v)) for u, nbrs in graph.items() for v in nbrs
             if u != v and 0 <= u < n and 0 <= v < n]
    adjacency = SparseSym.from_edges(n, edges)
    return LabeledGraph(adjacency=adjacency,
                        features=np.asarray(features.todense(), dtype=np.float64),
                        labels=labels)


if __name__ == "__main__":  # python -m coles.planetoid <root> <name> <out_dir>
    import sys

    if len(sys.argv) != 4:
        print("usage: python -m coles.planetoid <root> <name> <out_dir>", file=sys.stderr)
        sys.exit(1)
    write_fixture(load_planetoid(sys.argv[1], sys.argv[2]), sys.argv[3])
