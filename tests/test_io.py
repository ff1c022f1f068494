import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coles.graph_core import LabeledGraph, SparseSym, load_edge_list, save_edge_list
from coles.io import (read_clsm, read_csv, read_dense, read_labels, write_clsm,
                      write_csv, write_fixture, write_labels)
from coles.rng import Xoshiro256StarStar
from helpers import random_graph


def random_matrix(rows, cols, seed=0):
    return np.array(Xoshiro256StarStar(seed).normals(rows * cols)).reshape(rows, cols)


def test_clsm_roundtrip_bit_exact(tmp_path):
    x = random_matrix(7, 5, seed=3)
    p = tmp_path / "m.clsm"
    write_clsm(x, p)
    back = read_clsm(p)
    assert back.shape == (7, 5)
    assert np.array_equal(back, x)


def test_clsm_header(tmp_path):
    p = tmp_path / "m.clsm"
    write_clsm(np.zeros((2, 3)), p)
    raw = p.read_bytes()
    assert raw[:4] == b"CLSM"
    assert len(raw) == 4 + 4 + 8 + 8 + 2 * 3 * 8


def test_clsm_rejects_garbage(tmp_path):
    p = tmp_path / "m.clsm"
    p.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_clsm(p)


def test_clsm_rejects_truncation(tmp_path):
    p = tmp_path / "m.clsm"
    write_clsm(np.ones((4, 4)), p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_clsm(p)


def test_csv_roundtrip_value_exact(tmp_path):
    x = random_matrix(6, 4, seed=9)
    p = tmp_path / "m.csv"
    write_csv(x, p)
    assert np.array_equal(read_csv(p), x)  # repr round-trips float64


def test_csv_rejects_ragged(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="columns"):
        read_csv(p)


def test_csv_rejects_non_numeric(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,zzz\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_csv(p)


def test_read_dense_sniffs_format(tmp_path):
    x = random_matrix(3, 3, seed=1)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.txt"
    write_clsm(x, a)
    write_csv(x, b)
    assert np.array_equal(read_dense(a), x)
    assert np.array_equal(read_dense(b), x)


def test_labels_roundtrip(tmp_path):
    labels = np.array([0, 2, 1, 1, 0])
    p = tmp_path / "labels.txt"
    write_labels(labels, p)
    assert np.array_equal(read_labels(p), labels)


def test_labels_reject_junk(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("0\nfoo\n")
    with pytest.raises(ValueError, match=":2:"):
        read_labels(p)
    p.write_text("0\n# comment\n-1\n")
    with pytest.raises(ValueError, match=":3: negative label -1"):
        read_labels(p)


def test_labels_reject_int64_overflow(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text(f"0\n{2**63}\n")
    with pytest.raises(ValueError, match=f":2: label {2**63} does not fit in int64"):
        read_labels(p)
    p.write_text(f"{2**63 - 1}\n")
    assert read_labels(p).tolist() == [2**63 - 1]


def test_csv_skips_blank_and_comment_lines(tmp_path):
    # one line grammar for every text format: line numbers count skipped lines
    p = tmp_path / "m.csv"
    p.write_text("# 2 x 2\n1.0,2.0\n\n3.0,4.0\n")
    assert np.array_equal(read_csv(p), [[1.0, 2.0], [3.0, 4.0]])
    p.write_text("# 2 x 2\n1.0,2.0\n\n3.0\n")
    with pytest.raises(ValueError, match=":4: expected 2 columns, got 1"):
        read_csv(p)
    p.write_text("# nothing\n\n")
    with pytest.raises(ValueError, match="empty matrix file"):
        read_csv(p)


def test_csv_header_line(tmp_path):
    p = tmp_path / "m.csv"
    write_csv(np.array([[1.0, -0.0], [2.5, 1e-300]]), p, header="a,b")
    assert p.read_text() == "a,b\n1.0,-0.0\n2.5,1e-300\n"


def test_fixture_trio_reads_back(tmp_path):
    graph = LabeledGraph(random_graph(9, 1, seed=4), np.arange(18.0).reshape(9, 2),
                         np.arange(9) % 3)
    write_fixture(graph, tmp_path / "fx")
    assert sorted(os.listdir(tmp_path / "fx")) == ["edges.txt", "features.csv", "labels.txt"]
    assert load_edge_list(tmp_path / "fx" / "edges.txt").equals(graph.adjacency)
    assert np.array_equal(read_csv(tmp_path / "fx" / "features.csv"), graph.features)
    assert np.array_equal(read_labels(tmp_path / "fx" / "labels.txt"), graph.labels)


# -- round-trip properties: read(write(x)) == x and write(read(file)) == file ----------

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
ROUNDTRIP = settings(max_examples=60)


def roundtrip(write, read, value, same):
    """Write value, read it back, write that again: equal values, equal bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        write(value, first)
        back = read(first)
        assert same(back, value)
        write(back, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


@ROUNDTRIP
@given(x=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                elements=FINITE))
def test_csv_roundtrip_property(x):
    roundtrip(write_csv, read_csv, x, bits_equal)


@ROUNDTRIP
@given(x=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                elements=FINITE))
def test_clsm_roundtrip_property(x):
    roundtrip(write_clsm, read_clsm, x, bits_equal)


@ROUNDTRIP
@given(labels=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
def test_labels_roundtrip_property(labels):
    roundtrip(write_labels, read_labels, np.array(labels, dtype=np.int64),
              lambda a, b: a.dtype == np.int64 and np.array_equal(a, b))


@ROUNDTRIP
@given(data=st.data(), n=st.integers(2, 16), tail=st.integers(0, 3))
def test_edge_list_roundtrip_property(data, n, tail):
    # tail isolated nodes after the last id only come back with an explicit n
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), min_size=1, max_size=40))
    graph = SparseSym.from_edges(n + tail, pairs)
    roundtrip(save_edge_list, lambda p: load_edge_list(p, n=n + tail), graph,
              lambda a, b: a.equals(b))
