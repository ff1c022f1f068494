import numpy as np
import pytest

from coles.graph_core import (LabeledGraph, SparseSym, add_self_loops, as_dense,
                              degree_normalize, laplacian, load_edge_list,
                              normalized_adjacency, save_edge_list, spmm)
from coles.rng import Xoshiro256StarStar
from helpers import random_graph, weighted_graph


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
        SparseSym(2, m.indptr, m.indices, m.data)


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
    with pytest.raises(ValueError, match="finite"):
        SparseSym.from_edges(2, [(0, 1)], weight=np.inf)


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


def test_unsorted_or_duplicate_row_rejected():
    # rows: [1], [2, 0], [1] -- row 1 is out of order
    with pytest.raises(ValueError, match="row 1: unsorted or duplicate"):
        SparseSym(3, [0, 1, 3, 4], [1, 2, 0, 1], np.ones(4))
    # rows: [1], [0, 2], [1, 1] -- row 2 repeats a column
    with pytest.raises(ValueError, match="row 2: unsorted or duplicate"):
        SparseSym(3, [0, 1, 3, 5], [1, 0, 2, 1, 1], np.ones(5))


def _loop_has_diagonal(s):
    return any(i in s.indices[s.indptr[i]:s.indptr[i + 1]] for i in range(s.n))


def _loop_edge_list(s):
    return [(i, int(j)) for i in range(s.n)
            for j in s.indices[s.indptr[i]:s.indptr[i + 1]] if i < j]


def _loop_from_edges(n, edges):
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    return SparseSym.from_scipy(dense)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vectorised_graph_ops_match_loops(seed):
    rng = Xoshiro256StarStar(seed)
    n = 30
    edges = [(rng.below(n), rng.below(n)) for _ in range(80)]
    edges = [(u, v) for u, v in edges if u != v] + [(v, u) for u, v in edges[:10] if u != v]
    s = SparseSym.from_edges(n, edges)
    assert s.equals(_loop_from_edges(n, edges))
    assert s.edge_list() == _loop_edge_list(s)
    assert all(type(u) is int and type(v) is int for u, v in s.edge_list())
    assert s.has_diagonal() is _loop_has_diagonal(s) is False
    looped = add_self_loops(s)
    assert looped.has_diagonal() is _loop_has_diagonal(looped) is True
    assert looped.edge_list() == _loop_edge_list(looped)


def test_equals_is_bit_exact():
    a = path3()
    b = path3()
    assert a.equals(b)
    c = SparseSym.from_edges(3, [(0, 1)])
    assert not a.equals(c)


# -- edge list I/O -------------------------------------------------------------

def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n")
    s = load_edge_list(p)
    assert s.equals(path3())


def test_load_edge_list_dedupes_reversed(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 0\n")
    s = load_edge_list(p)
    assert s.n == 2 and s.nnz == 2


def test_load_edge_list_rejects_self_loop(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 0\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_edge_list(p)


def test_load_edge_list_reports_line_numbers(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n0 1\n\n2 x\n")
    with pytest.raises(ValueError, match=":4:"):
        load_edge_list(p)


def test_load_edge_list_empty_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(p)


def test_load_edge_list_overflow(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text(f"0 {2**40}\n")
    with pytest.raises(ValueError, match="overflow"):
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
    assert load_edge_list(path).equals(s)


# -- self loops / normalization / laplacian -------------------------------------

def test_add_self_loops_single_edge():
    out = add_self_loops(SparseSym.from_edges(2, [(0, 1)]))
    assert np.array_equal(out.toarray(), [[1, 1], [1, 1]])


def test_add_self_loops_edgeless_single_node():
    out = add_self_loops(SparseSym.zeros(1))
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
    out = degree_normalize(SparseSym.identity(1))
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


def test_laplacian_pair():
    w = degree_normalize(add_self_loops(SparseSym.from_edges(2, [(0, 1)])))
    l = laplacian(w)
    assert np.allclose(l.toarray(), [[0.5, -0.5], [-0.5, 0.5]], atol=0)
    eigs = np.sort(np.linalg.eigvalsh(l.toarray()))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-12)


def test_laplacian_single_node():
    l = laplacian(degree_normalize(SparseSym.identity(1)))
    assert np.array_equal(l.toarray(), [[0.0]])


# -- spmm ------------------------------------------------------------------------

def test_spmm_identity():
    x = np.arange(12, dtype=float).reshape(4, 3)
    assert np.array_equal(spmm(SparseSym.identity(4), x), x)


def test_spmm_pair_matrix():
    w = degree_normalize(add_self_loops(SparseSym.from_edges(2, [(0, 1)])))
    assert np.allclose(spmm(w, np.eye(2)), [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_spmm_zero_matrix():
    x = np.ones((3, 2))
    assert np.array_equal(spmm(SparseSym.zeros(3), x), np.zeros((3, 2)))


def test_spmm_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        spmm(SparseSym.identity(3), np.ones((4, 2)))


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
    l = laplacian(degree_normalize(with_loops))
    v = np.sqrt(with_loops.degrees())
    assert np.linalg.norm(l.toarray() @ v) < 1e-10


# -- labeled graph ------------------------------------------------------------------

def test_labeled_graph_validation():
    adj = path3()
    with pytest.raises(ValueError, match="node count"):
        LabeledGraph(adjacency=adj, features=np.zeros((2, 2)), labels=np.zeros(3, dtype=int))
    g = LabeledGraph(adjacency=adj, features=np.zeros((3, 2)), labels=np.array([0, 1, 1]))
    assert g.n_classes == 2


def test_as_dense_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        as_dense(np.array([[np.nan, 0.0]]))
