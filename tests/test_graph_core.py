import numpy as np
import pytest

from coles.graph_core import (LabeledGraph, SparseSym, add_self_loops, as_dense,
                              degree_normalize, load_edge_list, normalized_adjacency,
                              save_edge_list, spmm)
from coles.rng import Xoshiro256StarStar
from helpers import ScalarXoshiro, random_graph, sparse_equal, weighted_graph


def path3():
    return SparseSym.from_edges(3, [(0, 1), (1, 2)])


# -- SparseSym invariants ------------------------------------------------------

def test_from_edges_symmetric_and_canonical():
    s = path3()
    assert s.n == 3 and s.nnz == 4
    dense = s.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(dense, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_asymmetric_rejected():
    import scipy.sparse as sp
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        SparseSym.from_scipy(m)


def test_from_scipy_leaves_input_unchanged():
    import scipy.sparse as sp
    # row 0 stores an explicit zero that canonicalization drops
    m = sp.csr_matrix((np.array([0.0, 1.0, 1.0]), np.array([0, 1, 0]), np.array([0, 2, 3])),
                      shape=(2, 2))
    before = (m.indptr.copy(), m.indices.copy(), m.data.copy())
    s = SparseSym.from_scipy(m)
    assert s.nnz == 2
    assert m.nnz == 3
    for got, want in zip((m.indptr, m.indices, m.data), before):
        assert np.array_equal(got, want)


def test_nonfinite_rejected():
    import scipy.sparse as sp
    m = sp.csr_matrix((np.array([np.inf, np.inf]), np.array([1, 0]), np.array([0, 1, 2])),
                      shape=(2, 2))
    with pytest.raises(ValueError, match="non-finite weight"):
        SparseSym.from_scipy(m)


def test_self_pair_rejected_in_from_edges():
    with pytest.raises(ValueError, match="self-loop"):
        SparseSym.from_edges(2, [(1, 1)])


@pytest.mark.parametrize("edges,bad", [([(0, 1), (-1, 2)], -1), ([(0, 3)], 3),
                                       ([(2, 7), (0, 1)], 7)])
def test_from_edges_rejects_ids_outside_range(edges, bad):
    with pytest.raises(ValueError, match=rf"node id {bad} outside \[0, 3\)"):
        SparseSym.from_edges(3, edges)


def test_from_edges_runs_no_transpose_check(monkeypatch):
    def no_check(s):
        raise AssertionError("from_edges builds symmetric matrices")

    monkeypatch.setattr(SparseSym, "_validate", no_check)
    assert SparseSym.from_edges(3, [(0, 1), (2, 1)]).nnz == 4


def test_from_scipy_sorts_and_sums_rows_before_the_symmetry_check():
    import scipy.sparse as sp

    def csr(indptr, indices, data):
        return sp.csr_matrix((np.array(data, dtype=float), np.array(indices), np.array(indptr)),
                             shape=(3, 3))

    # rows: [1], [2, 0], [1] -- row 1 is out of order
    assert sparse_equal(SparseSym.from_scipy(csr([0, 1, 3, 4], [1, 2, 0, 1], [1, 1, 1, 1])),
                        path3())
    # rows: [1], [0, 2, 0], [1] -- row 1 repeats column 0, and the halves sum to (0, 1)'s weight
    summed = SparseSym.from_scipy(csr([0, 1, 4, 5], [1, 0, 2, 0, 1], [1, 0.5, 1, 0.5, 1]))
    assert sparse_equal(summed, path3())
    # rows: [1], [0, 2], [1, 1] -- row 2 repeats column 1, so (2, 1) sums to 2 against 1
    with pytest.raises(ValueError, match="symmetric"):
        SparseSym.from_scipy(csr([0, 1, 3, 5], [1, 0, 2, 1, 1], [1, 1, 1, 1, 1]))


@pytest.mark.parametrize("indptr,indices", [([0, 1, 2, 2], [1, 3]), ([0, 2, 1, 2], [1, 0])])
def test_from_scipy_rejects_malformed_storage(indptr, indices):
    import scipy.sparse as sp
    m = sp.csr_matrix((np.ones(2), np.array(indices), np.array(indptr)), shape=(3, 3))
    with pytest.raises(ValueError) as exc:  # scipy's check_format, in scipy's words
        SparseSym.from_scipy(m)
    assert "symmetric" not in str(exc.value)


def _loop_has_diagonal(s):
    return any(i in s.indices[s.indptr[i]:s.indptr[i + 1]] for i in range(s.n))


def _loop_edge_list(s):
    return np.array([(i, j) for i in range(s.n)
                     for j in s.indices[s.indptr[i]:s.indptr[i + 1]] if i < j],
                    dtype=np.int64).reshape(-1, 2)


def _loop_from_edges(n, edges):
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    return SparseSym.from_scipy(dense)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vectorised_graph_ops_match_loops(seed):
    rng = ScalarXoshiro(seed)
    n = 30
    edges = [(rng.below(n), rng.below(n)) for _ in range(80)]
    edges = [(u, v) for u, v in edges if u != v] + [(v, u) for u, v in edges[:10] if u != v]
    s = SparseSym.from_edges(n, edges)
    assert sparse_equal(s, _loop_from_edges(n, edges))
    assert np.array_equal(s.edge_list(), _loop_edge_list(s))
    assert s.edge_list().dtype == np.int64
    assert s.has_diagonal() is _loop_has_diagonal(s) is False
    looped = add_self_loops(s)
    assert looped.has_diagonal() is _loop_has_diagonal(looped) is True
    assert np.array_equal(looped.edge_list(), _loop_edge_list(looped))


def test_equals_is_bit_exact():
    a = path3()
    b = path3()
    assert sparse_equal(a, b)
    c = SparseSym.from_edges(3, [(0, 1)])
    assert not sparse_equal(a, c)


# -- edge list I/O -------------------------------------------------------------

def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n")
    s = load_edge_list(p)
    assert sparse_equal(s, path3())


def test_load_edge_list_dedupes_reversed(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 0\n")
    s = load_edge_list(p)
    assert s.n == 2 and s.nnz == 2


def test_load_edge_list_rejects_self_loop(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 0\n")
    with pytest.raises(ValueError, match=":1: self-loop in '0 0'"):
        load_edge_list(p)


def test_load_edge_list_reports_line_numbers(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n0 1\n\n2 x\n")
    with pytest.raises(ValueError, match=":4: cannot read '2 x' as int64 values"):
        load_edge_list(p)


@pytest.mark.parametrize("text,message", [
    ("0 1\n2 2\n0 -1\n", "2: self-loop in '2 2'"),
    ("0 -1\n2 2\n", "1: node id outside [0, 4294967295] in '0 -1'"),
    ("-1 -1\n", "1: node id outside [0, 4294967295] in '-1 -1'"),  # the first check wins a tie
    ("0 1\n2 2\n3 x\n", "2: self-loop in '2 2'"),  # a failed check before a refused line
    ("0 1\n3 x\n2 2\n", "2: cannot read '3 x' as int64 values"),
    ("0 1 2\n0 1\n", "1: expected 'u v', got '0 1 2'"),
])
def test_load_edge_list_names_the_first_bad_line(tmp_path, text, message):
    p = tmp_path / "edges.txt"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        load_edge_list(p)
    assert str(err.value) == f"{p}:{message}"


def test_load_edge_list_empty_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# nothing\n")
    with pytest.raises(ValueError, match=": empty edge list"):
        load_edge_list(p)


def test_load_edge_list_overflow(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text(f"0 {2**40}\n")
    with pytest.raises(ValueError, match=f":1: node id outside \\[0, 4294967295\\] in '0 {2**40}'"):
        load_edge_list(p)


def test_load_edge_list_pads_isolated_tail(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n")
    s = load_edge_list(p, n=4)
    assert s.n == 4
    with pytest.raises(ValueError, match="exceeds"):
        load_edge_list(p, n=1)


def test_edge_list_roundtrip(tmp_path):
    s = random_graph(23, 2, seed=99)
    path = tmp_path / "rt.txt"
    save_edge_list(s, path)
    assert sparse_equal(load_edge_list(path), s)


# -- self loops / normalization / Laplacian I - W ---------------------------------

def test_add_self_loops_single_edge():
    out = add_self_loops(SparseSym.from_edges(2, [(0, 1)]))
    assert np.array_equal(out.toarray(), [[1, 1], [1, 1]])


def test_add_self_loops_edgeless_single_node():
    out = add_self_loops(SparseSym.from_edges(1, []))
    assert np.array_equal(out.toarray(), [[1.0]])


def test_add_self_loops_triangle():
    tri = SparseSym.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert np.array_equal(add_self_loops(tri).toarray(), np.ones((3, 3)))


def test_add_self_loops_rejects_existing_diagonal():
    withdiag = add_self_loops(SparseSym.from_edges(2, [(0, 1)]))
    with pytest.raises(ValueError, match="diagonal"):
        add_self_loops(withdiag)


def test_degree_normalize_pair():
    w = add_self_loops(SparseSym.from_edges(2, [(0, 1)]))
    out = degree_normalize(w)
    assert np.allclose(out.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_degree_normalize_identity():
    out = degree_normalize(add_self_loops(SparseSym.from_edges(1, [])))
    assert np.array_equal(out.toarray(), [[1.0]])


def test_degree_normalize_triangle_uniform():
    tri = add_self_loops(SparseSym.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    out = degree_normalize(tri)
    assert np.allclose(out.toarray(), np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    assert np.array_equal(out.toarray(), out.toarray().T)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normalized_adjacency_of_weighted_graph_matches_dense(seed):
    adj = weighted_graph(20, 2, seed)
    a = adj.toarray() + np.eye(20)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    expected = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    out = normalized_adjacency(adj)
    assert np.max(np.abs(out.toarray() - expected)) < 1e-15
    assert np.array_equal(out.toarray(), out.toarray().T)


def test_degree_normalize_rejects_isolated():
    s = SparseSym.from_edges(3, [(0, 1)])  # node 2 isolated
    with pytest.raises(ValueError, match="zero degree"):
        degree_normalize(s)


def normalized_laplacian(w):
    """L = I - W of a degree-normalized W, dense."""
    return np.eye(w.n) - w.toarray()


def test_laplacian_pair():
    w = degree_normalize(add_self_loops(SparseSym.from_edges(2, [(0, 1)])))
    l = normalized_laplacian(w)
    assert np.allclose(l, [[0.5, -0.5], [-0.5, 0.5]], atol=0)
    eigs = np.sort(np.linalg.eigvalsh(l))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-12)


def test_laplacian_single_node():
    l = normalized_laplacian(degree_normalize(add_self_loops(SparseSym.from_edges(1, []))))
    assert np.array_equal(l, [[0.0]])


# -- spmm ------------------------------------------------------------------------

def test_spmm_identity():
    x = np.arange(12, dtype=float).reshape(4, 3)
    assert np.array_equal(spmm(add_self_loops(SparseSym.from_edges(4, [])), x), x)


def test_spmm_pair_matrix():
    w = degree_normalize(add_self_loops(SparseSym.from_edges(2, [(0, 1)])))
    assert np.allclose(spmm(w, np.eye(2)), [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_spmm_zero_matrix():
    x = np.ones((3, 2))
    assert np.array_equal(spmm(SparseSym.from_edges(3, []), x), np.zeros((3, 2)))


def test_spmm_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        spmm(add_self_loops(SparseSym.from_edges(3, [])), np.ones((4, 2)))


def test_spmm_matches_dense_product():
    s = random_graph(17, 2, seed=4)
    w = degree_normalize(add_self_loops(s))
    x = np.array(Xoshiro256StarStar(8).normals(17 * 5)).reshape(17, 5)
    assert np.allclose(spmm(w, x), w.toarray() @ x, atol=1e-12)


def test_spmm_distributes_over_addition():
    s = degree_normalize(add_self_loops(random_graph(11, 2, seed=1)))
    rng = Xoshiro256StarStar(2)
    a = np.array(rng.normals(11 * 3)).reshape(11, 3)
    b = np.array(rng.normals(11 * 3)).reshape(11, 3)
    lhs = spmm(s, a + b)
    rhs = spmm(s, a) + spmm(s, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spmm_deterministic():
    s = degree_normalize(add_self_loops(random_graph(30, 3, seed=6)))
    x = np.array(Xoshiro256StarStar(3).normals(30 * 4)).reshape(30, 4)
    assert np.array_equal(spmm(s, x), spmm(s, x))


# -- spectral invariants -----------------------------------------------------------

def test_normalized_spectral_radius_at_most_one():
    for seed in range(5):
        w = normalized_adjacency(random_graph(40, 3, seed=seed))
        top = np.max(np.abs(np.linalg.eigvalsh(w.toarray())))
        assert top <= 1.0 + 1e-9


def test_laplacian_kernel_is_sqrt_degree():
    adj = random_graph(35, 2, seed=12)
    with_loops = add_self_loops(adj)
    l = normalized_laplacian(degree_normalize(with_loops))
    v = np.sqrt(with_loops.degrees())
    assert np.linalg.norm(l @ v) < 1e-10


# -- labeled graph ------------------------------------------------------------------

def test_labeled_graph_validation():
    adj = path3()
    with pytest.raises(ValueError, match="node count"):
        LabeledGraph(adjacency=adj, features=np.zeros((2, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="non-negative"):
        LabeledGraph(adjacency=adj, features=np.zeros((3, 2)), labels=np.array([0, -1, 1]))
    g = LabeledGraph(adjacency=adj, features=np.zeros((3, 2)), labels=np.array([0, 1, 1]))
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1, 1]


def test_as_dense_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        as_dense(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("call,message", [
    (lambda: as_dense(np.zeros(3), "x"), r"x must be 2-D, got shape \(3,\)"),
    (lambda: SparseSym.from_scipy(np.zeros((2, 3))), "matrix must be square"),
], ids=["as-dense-1d", "from-scipy-not-square"])
def test_matrix_entries_refuse_bad_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()
