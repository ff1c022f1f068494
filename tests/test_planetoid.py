import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from coles import cli, planetoid
from coles.io import read_clsm, read_labels
from coles.planetoid import dataset_files, is_available, load_planetoid

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def write_fixture(root, name, test_index):
    """Minimal 6-node dataset in the classic on-disk layout.

    Nodes 0-3 come from allx, the rest are test nodes addressed by
    test_index. Feature row i is [i, i, i] so reordering is observable.
    """
    n_base = 4
    n_test = len(test_index)
    span_ids = sorted(test_index)
    feats = np.arange(n_base + max(test_index) + 1 - 0, dtype=float)

    allx = sp.csr_matrix(np.tile(np.arange(n_base, dtype=float)[:, None], (1, 3)))
    tx = sp.csr_matrix(np.tile(np.array(test_index, dtype=float)[:, None], (1, 3)))
    ally = np.zeros((n_base, 2))
    ally[np.arange(n_base), [0, 0, 1, 1]] = 1.0
    ty = np.zeros((n_test, 2))
    ty[:, 1] = 1.0
    x = allx[:2]
    y = ally[:2]
    graph = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, span_ids[0]],
             span_ids[0]: [3], span_ids[1]: [0], 0: [1, span_ids[1]]}

    objs = {"x": x, "y": y, "tx": tx, "ty": ty, "allx": allx, "ally": ally,
            "graph": graph}
    for part, path in zip(("x", "y", "tx", "ty", "allx", "ally", "graph"),
                          dataset_files(str(root), name)):
        with open(path, "wb") as fh:
            pickle.dump(objs[part], fh)
    with open(dataset_files(str(root), name)[7], "w") as fh:
        fh.write("\n".join(str(i) for i in test_index) + "\n")


def test_availability_check(tmp_path):
    assert not is_available(str(tmp_path), "toy")
    with pytest.raises(FileNotFoundError, match="missing"):
        load_planetoid(str(tmp_path), "toy")


def test_reader_reorders_test_rows(tmp_path):
    # test.index out of order: graph node 5 is tx row 0, node 4 is tx row 1
    write_fixture(tmp_path, "toy", test_index=[5, 4])
    g = load_planetoid(str(tmp_path), "toy")
    assert g.adjacency.n == 6
    assert np.array_equal(g.features[5], [5.0, 5.0, 5.0])
    assert np.array_equal(g.features[4], [4.0, 4.0, 4.0])
    assert np.array_equal(g.labels[:4], [0, 0, 1, 1])
    assert np.array_equal(g.labels[4:], [1, 1])
    edges = set(map(tuple, g.adjacency.edge_list().tolist()))
    assert (3, 4) in edges and (0, 5) in edges and (0, 1) in edges


def test_reader_handles_index_gaps(tmp_path):
    # citeseer-style: ids 4 and 6 with isolated 5 -> widened zero rows
    write_fixture(tmp_path, "gappy", test_index=[6, 4])
    g = load_planetoid(str(tmp_path), "gappy")
    assert g.adjacency.n == 7
    assert np.array_equal(g.features[6], [6.0, 6.0, 6.0])
    assert np.array_equal(g.features[4], [4.0, 4.0, 4.0])
    assert np.array_equal(g.features[5], [0.0, 0.0, 0.0])  # widened gap row


def test_test_index_errors_name_the_line(tmp_path):
    write_fixture(tmp_path, "bad", test_index=[5, 4])
    index = dataset_files(str(tmp_path), "bad")[7]
    with open(index, "w") as fh:
        fh.write("5\n# comment\nfour\n")
    with pytest.raises(ValueError, match=r"test\.index:3: cannot read 'four' as int64 values"):
        load_planetoid(str(tmp_path), "bad")


def test_export_usage_error(capsys):
    assert planetoid.main(["only", "two"]) == 1
    assert capsys.readouterr().err == (
        "coles.planetoid: usage: python -m coles.planetoid <root> <name> <out_dir>\n")


def test_export_of_a_missing_dataset_is_one_line(tmp_path):
    # run as README's export command, so the __main__ block is covered too
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-m", "coles.planetoid", str(tmp_path / "none"),
                           "cora", str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("coles.planetoid: planetoid dataset 'cora' incomplete")
    assert proc.stderr.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b"", b"\x80\x04\x95", b"not a pickle"])
def test_export_of_an_unreadable_pickle_is_one_line(tmp_path, capsys, content):
    write_fixture(tmp_path, "toy", test_index=[5, 4])
    (tmp_path / "ind.toy.allx").write_bytes(content)
    assert planetoid.main([str(tmp_path), "toy", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("coles.planetoid: ") and "ind.toy.allx: not a readable pickle" in err
    assert err.count("\n") == 1


def test_export_feeds_coles_embed(tmp_path):
    write_fixture(tmp_path, "toy", test_index=[5, 4])
    out = tmp_path / "toy"
    assert planetoid.main([str(tmp_path), "toy", str(out)]) == 0
    g = load_planetoid(str(tmp_path), "toy")
    assert np.array_equal(read_labels(str(out / "labels.txt")), g.labels)
    assert cli.main(["embed", "--edges", str(out / "edges.txt"),
                     "--features", str(out / "features.csv"), "--out", str(tmp_path / "run"),
                     "--dim", "2", "--per-node", "1", "--seed", "1"]) == 0
    assert read_clsm(str(tmp_path / "run" / "embeddings.clsm")).shape == (6, 2)
