import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coles import graph_core
from coles.graph_core import (MAX_NODE_ID, LabeledGraph, SparseSym, load_edge_list,
                              save_edge_list)
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


TEXT_FORMATS = {  # reader, file text, what it reads
    "edges": (lambda p: load_edge_list(p).edge_list().tolist(), "0 4\n1 2\n", [[0, 4], [1, 2]]),
    "csv": (lambda p: read_dense(p).tolist(), "1.5,2\n3,-4\n", [[1.5, 2.0], [3.0, -4.0]]),
    "labels": (lambda p: read_labels(p).tolist(), "0\n4\n", [0, 4]),
}


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
def test_text_formats_skip_a_leading_byte_order_mark(tmp_path, fmt):
    read, text, want = TEXT_FORMATS[fmt]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(marked) == read(plain) == want


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_text_formats_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, fmt, end):
    read, text, _ = TEXT_FORMATS[fmt]
    lines = text.splitlines()
    # a long first line puts the bad byte past the reader's first decode
    raw = end.join(["# " + "x" * 20000, *lines, "# caf\udce9", lines[0]]) + end
    p = tmp_path / "bad"
    p.write_bytes(raw.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError) as err:
        read(p)
    assert str(err.value) == f"{p}:4: byte 0xe9 is not UTF-8"


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


# a CSV field: float reprs, float-like text, and any text that fits in one field
CSV_FIELD = st.one_of(
    st.floats().map(repr),
    st.text(st.sampled_from(list("0123456789.eE+-_ \tinfatyINFATY") + ["１", "٣", "\xa0"]),
            max_size=8),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
            max_size=6))


@settings(max_examples=200)
@given(fields=st.lists(CSV_FIELD, min_size=1, max_size=5))
@example(fields=["1e400", "-1e400", "1e-400"])
@example(fields=["1_000", " ١٢ ", "+.5E-3", "-0"])
def test_csv_parses_fields_as_float_does(fields):
    line = ",".join(fields)
    assume(line.strip() and not line.strip().startswith("#"))  # else a skipped line
    try:
        want = np.array([float(f) for f in fields])
    except ValueError:
        want = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "row.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        if want is None:
            with pytest.raises(ValueError, match="non-numeric value"):
                read_csv(path)
        elif not np.all(np.isfinite(want)):
            with pytest.raises(ValueError, match="non-finite"):
                read_csv(path)
        else:
            assert bits_equal(read_csv(path), want[None])


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


# mostly ids below 200, the node count the files are read with; a few zero-padded or too large
PLAIN_ID = st.integers(0, 199).map(
    lambda i: str(i) if i < 196 else ["007", "0000000001", "4294967295", "4294967296"][i - 196])
PLAIN_LINE = st.tuples(PLAIN_ID, PLAIN_ID).map(" ".join)
EDGE_ID = st.one_of(PLAIN_ID, st.sampled_from(["00000000001", "+3", "-1", "1_0", "\u0663", "\uff13",
                                               "x"]))
ODD_LINE = st.one_of(
    st.tuples(EDGE_ID, EDGE_ID).map(" ".join),
    st.tuples(EDGE_ID, st.sampled_from(["\t", "  ", " \t"]), EDGE_ID).map("".join),
    st.tuples(EDGE_ID, EDGE_ID, EDGE_ID).map(" ".join),
    st.sampled_from(["", "   ", "# a comment", "#1 2", " 1 2", "1 2 ", "1 ", " 1", "\ufeff1 2",
                     "\x0c", "\udcff 1"]))  # the last is the byte 0xff, not UTF-8
PLAIN_EDGES = re.compile(rb"([0-9]{1,10} [0-9]{1,10}\n)*[0-9]{1,10} [0-9]{1,10}\n?")


def is_plain(raw: bytes) -> bool:
    """save_edge_list's own format: "u v" lines of ASCII ids, no self-loop, no id
    above MAX_NODE_ID."""
    if not PLAIN_EDGES.fullmatch(raw):
        return False
    ids = [int(t) for t in raw.split()]
    return max(ids) <= MAX_NODE_ID and all(u != v for u, v in zip(ids[0::2], ids[1::2]))


def edge_list_outcome(path):
    try:
        return load_edge_list(path, n=200)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(lines=st.lists(PLAIN_LINE, max_size=8),
       odd=st.one_of(st.just([]), st.just([]),
                     st.lists(st.tuples(st.integers(0, 8), ODD_LINE), min_size=1, max_size=2)),
       ends=st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]), last_end=st.booleans())
@example(lines=[], odd=[], ends="\n", last_end=False)
@example(lines=["0 4294967295"], odd=[], ends="\n", last_end=True)
@example(lines=["0 4294967296"], odd=[], ends="\n", last_end=True)
@example(lines=["3 1", "1 2", "3 1", "2 3"], odd=[], ends="\n", last_end=False)
@example(lines=["00000000001 5"], odd=[], ends="\n", last_end=True)
@example(lines=["99999999999999999999 1"], odd=[], ends="\n", last_end=True)
def test_edge_list_one_pass_agrees_with_the_per_line_parse(lines, odd, ends, last_end):
    """Both parses give the same graph or the same message, and the one-pass
    parse takes exactly the plain files."""
    lines = list(lines)
    for at, line in odd:
        lines.insert(at, line)
    raw = (ends.join(lines) + (ends if last_end else "")).encode("utf-8", "surrogateescape")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        with open(path, "wb") as fh:
            fh.write(raw)
        got = edge_list_outcome(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_plain_edges", lambda data: None)
            want = edge_list_outcome(path)
    assert (graph_core._plain_edges(raw) is not None) == is_plain(raw)
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else got.equals(want)
