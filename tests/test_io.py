import numpy as np
import pytest

from coles.io import (read_clsm, read_csv, read_dense, read_labels, write_clsm,
                      write_csv, write_labels)
from coles.rng import Xoshiro256StarStar


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
