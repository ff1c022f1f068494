import gzip
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coles import graph_core
from coles.graph_core import LabeledGraph, SparseSym, load_edge_list, save_edge_list
from coles.io import (read_clsm, read_csv, read_dense, read_labels, write_clsm,
                      write_csv, write_fixture, write_labels)
from coles.rng import Xoshiro256StarStar
from helpers import random_graph, sparse_equal


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


@pytest.mark.parametrize("content,message", [
    (b"CLSM\x01\x00", "truncated header"),
    (b"CLSM" + (2).to_bytes(4, "little") + bytes(16), "unsupported version 2"),
], ids=["truncated-header", "version-2"])
def test_clsm_header_refusals_name_the_file(tmp_path, content, message):
    p = tmp_path / "m.clsm"
    p.write_bytes(content)
    with pytest.raises(ValueError, match=message) as exc:
        read_clsm(p)
    assert str(exc.value).startswith(f"{p}: ")


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
    with pytest.raises(ValueError, match=":1: cannot read '1.0,zzz' as float64 values"):
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
    with pytest.raises(ValueError, match=f":2: cannot read '{2**63}' as int64 values"):
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


def test_csv_names_the_line_of_a_non_finite_value(tmp_path):
    p = tmp_path / "m.csv"
    for text, line in [("1,2\n# big\n1e400,3\n", "3: non-finite value in '1e400,3'"),
                       ("nan,1\n", "1: non-finite value in 'nan,1'")]:
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            read_csv(p)
        assert str(err.value) == f"{p}:{line}"


# per format: a bad line, and the message it gets
REFUSED = {
    "edges": [("1_0 2", "cannot read '1_0 2' as int64 values"),
              ("\u0663 1", "cannot read '\u0663 1' as int64 values"),
              ("1 \uff13", "cannot read '1 \uff13' as int64 values")],
    "csv": [("1_0,2", "cannot read '1_0,2' as float64 values"),
            ("\u0663,1", "cannot read '\u0663,1' as float64 values"),
            ("1,\uff13.5", "cannot read '1,\uff13.5' as float64 values")],
    "labels": [("1_0", "cannot read '1_0' as int64 values"),
               ("\u0663", "cannot read '\u0663' as int64 values"),
               ("\uff13", "cannot read '\uff13' as int64 values")],
}


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
@pytest.mark.parametrize("head", ["", "\n", "  \n", "# c\n", "\ufeff", "\ufeff# c\n\n"])
def test_text_formats_count_blank_comment_and_bom_lines(tmp_path, fmt, head):
    # Python's int() and float() take an underscore and a non-ASCII digit;
    # numpy's parser refuses both, and the message counts every line before
    read, text, _ = TEXT_FORMATS[fmt]
    p = tmp_path / "bad"
    for bad, message in REFUSED[fmt]:
        p.write_text(head + text + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read(p)
        assert str(err.value) == f"{p}:{head.count(chr(10)) + 3}: {message}"


def test_csv_header_line(tmp_path):
    p = tmp_path / "m.csv"
    write_csv(np.array([[1.0, -0.0], [2.5, 1e-300]]), p, header="a,b")
    assert p.read_text() == "a,b\n1.0,-0.0\n2.5,1e-300\n"


def test_fixture_trio_reads_back(tmp_path):
    graph = LabeledGraph(random_graph(9, 1, seed=4), np.arange(18.0).reshape(9, 2),
                         np.arange(9) % 3)
    write_fixture(graph.adjacency.edge_list(), graph.features, graph.labels, tmp_path / "fx")
    assert sorted(os.listdir(tmp_path / "fx")) == ["edges.txt", "features.csv", "labels.txt"]
    assert sparse_equal(load_edge_list(tmp_path / "fx" / "edges.txt"), graph.adjacency)
    assert np.array_equal(read_csv(tmp_path / "fx" / "features.csv"), graph.features)
    assert np.array_equal(read_labels(tmp_path / "fx" / "labels.txt"), graph.labels)


# -- round-trip properties: read(write(x)) == x and write(read(file)) == file ----------

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
ROUNDTRIP = settings(max_examples=60)


def kept_lines_forbidden(lines, dtype, delimiter):
    raise AssertionError(f"{lines[:3]}..., as their writer wrote them, went to the kept-lines route")


def roundtrip(write, read, value, same):
    """Write value, read it back, write that again: equal values, equal bytes.
    A text file its own writer wrote is read by np.loadtxt in one pass."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        write(value, first)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_parse", kept_lines_forbidden)
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
@example(fields=["1_000", "+.5E-3", "-0"])
@example(fields=[" \u0661\u0662 ", "\uff13"])
@example(fields=["\xa01.5\u2028", "2"])
def test_csv_parses_fields_as_float_does(fields):
    # float() is the oracle, but numpy's parser also refuses an underscore and a
    # non-ASCII digit, both of which float() takes
    line = ",".join(fields)
    assume(line.strip() and not line.strip().startswith("#"))  # else a skipped line
    try:
        if any("_" in f or any(c.isdecimal() and not c.isascii() for c in f) for f in fields):
            raise ValueError
        want = np.array([float(f) for f in fields])
    except ValueError:
        want = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "row.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        if want is None:
            with pytest.raises(ValueError, match=":1: cannot read .* as float64 values"):
                read_csv(path)
        elif not np.all(np.isfinite(want)):
            with pytest.raises(ValueError, match=":1: non-finite value in "):
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
    roundtrip(lambda g, p: save_edge_list(g.edge_list(), p),
              lambda p: load_edge_list(p, n=n + tail), graph, sparse_equal)


# -- the whole-file read against the kept-lines route --------------------------------

def edge_arrays(path):
    csr = load_edge_list(path, n=200).csr  # n keeps a huge id from sizing the graph
    return csr.indptr, csr.indices, csr.data


READERS = {  # each returns the arrays it read
    "edges": edge_arrays,
    "csv": lambda path: (read_csv(path),),
    "labels": lambda path: (read_labels(path),),
}

# Line soups, each line one draw from a fixed list, which keeps the examples cheap.
# Edge ids: mostly below 200, the node count edge lists are read with; a few
# zero-padded or too large.
PLAIN_IDS = [str(i) for i in range(196)] + ["007", "0000000001", "4294967295", "4294967296"]
ODD_IDS = ["5", "00000000001", "+3", "-1", "-0", "1_0", "\u0663", "\uff13", "1.0", str(2**63), "x"]
ANY_LINES = ["", "   ", "# a comment", "#1 2", "\x0c", "\u2028", "\x00", "1\x00", "\ufeff1",
             "\udcff 1"]  # the last is the byte 0xff, not UTF-8
FIELDS = [repr(v) for v in [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                            -1.7976931348623157e308, 1.5, -2.0, 0.1, 123456789.125, 3e-7]]
ODD_FIELDS = ["", " ", " 1.5 ", "1.5\xa0", "1_0", "\u0663", "\uff13", "+.5E-3", "-0", "inf", "nan",
              "1e400", "0x1", "1d3", "1 2", "x", "#1", "1\u20282", "\ufeff1"]
# per format: lines as its writer writes them, and other lines, good or bad
SOUPS = {
    "edges": (st.integers(0, 200 * 200 - 1).map(lambda k: f"{PLAIN_IDS[k // 200]} "
                                                           f"{PLAIN_IDS[k % 200]}"),
              st.sampled_from(ANY_LINES + [" 1 2", "1 2 ", "1 ", " 1", "1 2 3", "1 2 #3"] + [
                  u + sep + v for u in ODD_IDS for v in ("1", *ODD_IDS)
                  for sep in (" ", "\t", "  ", " \t", "\xa0", "\u2028")])),
    "csv": (st.tuples(st.sampled_from(FIELDS), st.sampled_from(FIELDS)).map(",".join),
            st.one_of(st.sampled_from(ANY_LINES + ["1,2#3"]),
                      st.lists(st.sampled_from(FIELDS + ODD_FIELDS), min_size=1, max_size=3)
                      .map(",".join))),
    "labels": (st.integers(0, 2**63 - 1).map(str),
               st.sampled_from(ANY_LINES + ["+3", "-1", "-0", " 4 ", "4 #5", "1 2", "1.0", "1_0",
                                            "\u0663", "\uff13", "0x1", str(2**63),
                                            "99999999999999999999"])),
}


LOADTXT = graph_core._loadtxt


def lines_only(source, *args):
    """_loadtxt that refuses an open file: the whole-file read is switched off."""
    if hasattr(source, "read"):
        raise ValueError("whole-file read switched off")
    return LOADTXT(source, *args)


def read_outcome(fmt, path):
    try:
        return READERS[fmt](path)
    except ValueError as exc:
        return str(exc)


def assert_fast_path_agrees(fmt, raw: bytes):
    """A file of raw bytes reads as it does with the whole-file read switched
    off, which sends every file to its kept lines: the same arrays (dtype,
    shape and bytes) or the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(raw)
        got = read_outcome(fmt, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_loadtxt", lines_only)
            want = read_outcome(fmt, path)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
            [(b.dtype, b.shape, b.tobytes()) for b in want]


def text_file(plain, odd):
    """Files of the writer's lines, half of them with other lines mixed in, in
    any line ending, with or without a BOM."""
    def join(lines, end, last_end, bom):
        text = bom + end.join(lines) + (end if last_end else "")
        return text.encode("utf-8", "surrogateescape")
    return st.builds(join, st.one_of(st.lists(plain, max_size=8),
                                     st.lists(st.one_of(plain, odd), max_size=8)),
                     st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]), st.booleans(),
                     st.sampled_from(["", "\ufeff"]))


TEXT_FILES = {fmt: text_file(plain, odd) for fmt, (plain, odd) in SOUPS.items()}


@pytest.mark.parametrize("fmt", sorted(TEXT_FILES))
@settings(max_examples=300)
@given(data=st.data())
def test_loadtxt_fast_path_agrees_with_the_kept_lines_route(fmt, data):
    assert_fast_path_agrees(fmt, data.draw(TEXT_FILES[fmt]))


FALLBACK_TRIGGERS = {  # format: files the whole-file read refuses, or whose table fails a check
    "edges": [b"", b"0 4294967296\n", b"00000000001 5\n", b"99999999999999999999 1\n",
              b"# a comment\n0 1\n", b"0 1 # a comment\n", b"1_0 2\n", "\u0663 1\n".encode(),
              b"0 1\n\xff\n", b"\xef\xbb\xbf0 1\n\xef\xbb\xbf1 2\n", "0 1\u20282 3\n".encode(),
              f"{2**63} 1\n".encode(), b"0 -1\n", b"2 2\n", b"0 1 2\n", b"1.0 2\n"],
    "csv": [b"", b"# 1 x 2\n1,2\n", b"1,2 # a comment\n", b"1,2\n   \n3,4\n", b"1_0,2\n",
            "\u0663,1\n".encode(), b"1,2\n\xff\n", b"1,2\n\xef\xbb\xbf3,4\n",
            "1,2\u20283,4\n".encode(), b"1,2\n3\n", b"1,2\n1e400,3\n", b"nan\n"],
    "labels": [b"", b"# one\n0\n", b"0 # a comment\n", b"1_0\n", "\u0663\n".encode(),
               b"0\n\xff\n", b"0\n\xef\xbb\xbf1\n", "1\u20282\n".encode(),
               f"{2**63}\n".encode(), b"0\n-1\n",
               b"1.0\n"],  # numpy 1.23 deprecated loadtxt's reading "1.0" as an integer; it warned
}
ACCEPTED = {  # format: other files the whole-file read takes
    "edges": [b"0 4294967295\n", b"3 1\n1 2\n3 1\n2 3", b"\xef\xbb\xbf0 1\n", b"0 1\r1 2\r",
              b"0 1\r\n1 2\r\n", "0\u20281\n".encode(), "0\xa01\n".encode()],
    "csv": [b"\xef\xbb\xbf1,2\n", b"1,2\r3,4", b" 1.5 , -0.0 \n", b"5e-324\n1e-300\n"],
    "labels": [b"\xef\xbb\xbf0\n", b"0\r1\r", f"{2**63 - 1}\n+3\n-0\n".encode()],
}


@pytest.mark.parametrize("fmt,raw", [(fmt, raw) for table in (FALLBACK_TRIGGERS, ACCEPTED)
                                     for fmt, files in table.items() for raw in files])
def test_loadtxt_fast_path_agrees_on_explicit_files(fmt, raw):
    assert_fast_path_agrees(fmt, raw)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_text_readers_report_a_missing_file_or_a_directory_as_open_does(tmp_path, fmt):
    # numpy would say "... not found." of a missing path; open()'s message stays
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(OSError) as want:
            open(path, encoding="utf-8")
        with pytest.raises(OSError) as got:
            READERS[fmt](path)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
def test_text_formats_refuse_a_gzip_file(tmp_path, fmt):
    # numpy decompresses a .gz path by its name; the readers take the bytes as they are
    _, text, _ = TEXT_FORMATS[fmt]
    path = tmp_path / "x.gz"
    path.write_bytes(gzip.compress(text.encode("utf-8")))
    with pytest.raises(ValueError) as err:
        READERS[fmt](path)
    assert str(err.value) == f"{path}:1: byte 0x8b is not UTF-8"
