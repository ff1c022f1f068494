import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.linalg import LinAlgError

from coles.coles_solver import (ColesConfig, build_quadratic_form, coles_objective,
                                hash_features, solve_linear_coles, solve_projection,
                                sym_eig)
from coles.graph_core import SparseSym, normalized_adjacency
from coles.negative_sampling import NegSampleConfig, build_delta_w, sample_negative_graph
from coles.rng import Xoshiro256StarStar
from coles.spectral_filters import FilterConfig, apply_filter
from helpers import (ScalarXoshiro, rand_x, random_graph, splitmix64, stream_key,
                     symmetrizing_sym_eig, weighted_graph)


def random_sym(n, seed):
    b = rand_x(n, n, seed)
    return 0.5 * (b + b.T)


# -- sym_eig -----------------------------------------------------------------

def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert np.allclose(eig.values, [1, 1, 1], atol=0)


def test_sym_eig_diagonal_sorted_with_permutation_vectors():
    eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(eig.values, [3.0, 2.0, 1.0])
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
    assert np.array_equal(eig.vectors, expected)


def test_sym_eig_two_by_two_laplacian():
    eig = sym_eig(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(eig.values, [1.0, 0.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(eig.vectors[:, 0], [r, -r], atol=1e-14)


def test_sym_eig_reconstruction_and_orthonormality():
    for seed in range(10):
        n = 2 + ScalarXoshiro(seed).below(63)
        m = random_sym(n, seed + 100)
        eig = sym_eig(m)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        scale = np.linalg.norm(m)
        assert np.linalg.norm(recon - m) < 1e-8 * max(scale, 1e-30)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) < 1e-8


def test_sym_eig_matches_lapack_values():
    for seed in (3, 17):
        m = random_sym(24, seed)
        ours = sym_eig(m).values
        lapack = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(ours - lapack)) < 1e-10 * max(1.0, np.linalg.norm(m))


def test_sym_eig_values_descending():
    eig = sym_eig(random_sym(33, 5))
    assert np.all(np.diff(eig.values) <= 1e-12)


def test_sym_eig_sign_convention():
    eig = sym_eig(random_sym(12, 8))
    for i in range(12):
        col = eig.vectors[:, i]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.ones((2, 3)))


def test_sym_eig_zero_matrix():
    eig = sym_eig(np.zeros((4, 4)))
    assert np.array_equal(eig.values, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sym_eig_non_finite_is_not_converged(bad):
    with pytest.raises(LinAlgError, match="eigensolver failed"):
        sym_eig(np.array([[1.0, 0.0], [0.0, bad]]))


HALF_MAX = np.finfo(np.float64).max / 2  # the largest entry 2 * m[i, j] holds


@pytest.mark.parametrize("m,message", [
    ([[1.7e308]], "the symmetrized matrix overflows float64"),
    ([[1.7e308, 1.0], [1.0, -1.7e308]], "the symmetrized matrix overflows float64"),
    ([[8e307] * 3] * 3, "an eigenvalue overflows float64"),
    ([[-np.nextafter(HALF_MAX, np.inf), 0.0], [0.0, 1.0]],
     "the symmetrized matrix overflows float64"),
    ([[1.7e308, 1.0], [1.0 + 2**-52, 0.0]], "the symmetrized matrix overflows float64"),
], ids=["one-by-one", "two-by-two", "eigenvalue", "just-past-half-max", "asymmetric"])
def test_sym_eig_overflow_is_linalg_error(m, message):
    # finite and symmetric, but 0.5 * (m + m.T) or an eigenvalue overflows;
    # the pytest config turns any RuntimeWarning on the way into an error
    with pytest.raises(LinAlgError, match=f"eigensolver failed: .*{message}"):
        sym_eig(np.array(m))


def test_sym_eig_takes_half_max_entries():
    # 2 * (max / 2) is finite, so the symmetrization that is skipped would not overflow
    m = np.array([[HALF_MAX, 1.0], [1.0, -HALF_MAX]])
    values, vectors = symmetrizing_sym_eig(m)
    eig = sym_eig(m)
    assert np.all(np.isfinite(values))
    assert np.array_equal(eig.values, values) and np.array_equal(eig.vectors, vectors)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def quadratic_forms():
    """Exactly symmetric forms: random ones, one from build_quadratic_form,
    one with signed zeros mirrored, the zero form and a 1 x 1 one."""
    yield from (random_sym(n, seed) for n, seed in ((2, 1), (7, 2), (40, 3), (129, 4)))
    yield build_quadratic_form(rand_x(6, 4, seed=5), delta_fixture())
    signed = random_sym(9, 6)
    signed[0, 3] = signed[3, 0] = -0.0
    signed[2, 2] = -0.0
    yield signed
    yield np.zeros((5, 5))
    yield np.array([[-3.5]])


def test_sym_eig_keeps_the_bits_of_the_symmetrizing_path():
    for m in quadratic_forms():
        values, vectors = symmetrizing_sym_eig(m)
        eig = sym_eig(m)
        assert np.array_equal(bits(eig.values), bits(values))
        assert np.array_equal(bits(eig.vectors), bits(vectors))


@pytest.mark.parametrize("perturb", ["off-diagonal-ulp", "signed-zero"])
def test_sym_eig_symmetrizes_a_form_that_is_not_symmetric_bit_for_bit(perturb):
    m = random_sym(8, 7)
    if perturb == "off-diagonal-ulp":
        m[1, 5] = np.nextafter(m[5, 1], np.inf)
    else:  # 0.0 against -0.0: equal values, but 0.5 * (m + m.T) has +0.0 on both sides
        m[1, 5], m[5, 1] = 0.0, -0.0
    values, vectors = symmetrizing_sym_eig(m)
    eig = sym_eig(m)
    assert np.array_equal(bits(eig.values), bits(values))
    assert np.array_equal(bits(eig.vectors), bits(vectors))
    assert np.array_equal(bits(sym_eig(0.5 * (m + m.T)).vectors), bits(vectors))


def test_sym_eig_peak_memory_is_a_d_by_d_array_below_the_symmetrizing_path():
    # tracemalloc sees numpy's arrays: skipping 0.5 * (m + m.T) on an exactly
    # symmetric form saves one d x d array of float64
    d = 300
    m = random_sym(d, 8)
    peaks = []
    for solve in (symmetrizing_sym_eig, sym_eig):
        solve(m)  # warm: numpy's first call allocates for itself
        tracemalloc.start()
        try:
            solve(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] >= d * d * 8 - 1024, peaks  # 1 KiB for small objects


# -- quadratic form -------------------------------------------------------------

def delta_fixture(n=6, seed=2):
    w = normalized_adjacency(random_graph(n, 2, seed=seed))
    neg = sample_negative_graph(n, NegSampleConfig(kappa=1, per_node=2, seed=seed + 50), 0)
    return build_delta_w(w, [neg], eta_prime=1.0)


def test_quadratic_form_overflow_names_the_form():
    with pytest.raises(LinAlgError, match="eigensolver failed: the 3 x 3 quadratic form "
                                          "overflows float64; rescale the features"):
        build_quadratic_form(np.full((5, 3), 1e200), delta_fixture(5))


def test_quadratic_form_identity_sandwich():
    delta = delta_fixture(5)
    m = build_quadratic_form(np.eye(5), delta)
    assert np.allclose(m, delta.toarray(), atol=1e-15)


def test_quadratic_form_zero_features():
    delta = delta_fixture(4)
    assert np.array_equal(build_quadratic_form(np.zeros((4, 2)), delta), np.zeros((2, 2)))


def test_quadratic_form_matches_triple_loop():
    delta = delta_fixture(6, seed=9)
    fx = rand_x(6, 3, seed=21)
    dense = delta.toarray()
    oracle = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            for i in range(6):
                for j in range(6):
                    oracle[a, b] += fx[i, a] * dense[i, j] * fx[j, b]
    oracle = 0.5 * (oracle + oracle.T)
    assert np.max(np.abs(build_quadratic_form(fx, delta) - oracle)) < 1e-10


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValueError, match="rows"):
        build_quadratic_form(np.ones((3, 2)), delta_fixture(4))


@pytest.mark.parametrize("call,message", [
    (lambda: ColesConfig(d_prime=0), "d_prime must be >= 1"),
    (lambda: coles_objective(np.ones((3, 2)), delta_fixture(4)), "y has 3 rows, delta_w is 4x4"),
    (lambda: solve_linear_coles(np.eye(7), random_graph(8, 2, seed=67), ColesConfig(d_prime=2)),
     "adjacency has 8 nodes, features have 7 rows"),
], ids=["no-dims", "objective-rows", "solver-rows"])
def test_solver_refuses_bad_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- objectives -------------------------------------------------------------------

def test_objective_zero_embedding():
    assert coles_objective(np.zeros((5, 2)), delta_fixture(5)) == 0.0


def test_objective_indicator_reads_diagonal():
    delta = delta_fixture(5)
    e0 = np.zeros((5, 1))
    e0[0, 0] = 1.0
    assert abs(coles_objective(e0, delta) - delta.toarray()[0, 0]) < 1e-15


def test_objective_matches_pairwise_expansion():
    delta = delta_fixture(7, seed=3)
    y = rand_x(7, 3, seed=30)
    dense = delta.toarray()
    oracle = 0.0
    for i in range(7):
        for j in range(7):
            oracle += dense[i, j] * float(y[i] @ y[j])
    assert abs(coles_objective(y, delta) - oracle) < 1e-10


# -- solver ------------------------------------------------------------------------

def test_solver_hand_computed_two_node_case():
    delta = SparseSym.from_scipy(sp.csr_matrix(np.array([[0.5, -0.5], [-0.5, 0.5]])))
    res = solve_projection(np.eye(2), delta, d_prime=1)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(res.P), [[r, r]], atol=1e-12)
    assert np.allclose(res.P, [[r, -r]], atol=1e-12)  # sign convention
    assert abs(res.objective - 1.0) < 1e-12


def test_solver_eta_zero_reduces_to_positive_graph_eigenvectors():
    adj = random_graph(10, 2, seed=60)
    cfg = ColesConfig(d_prime=3, filter=FilterConfig(kind="identity"),
                      negatives=NegSampleConfig(kappa=0, eta_prime=0.0, seed=1))
    res = solve_linear_coles(np.eye(10), adj, cfg)
    w = normalized_adjacency(adj).toarray()
    vals, vecs = np.linalg.eigh(w)
    top = vecs[:, np.argsort(vals)[::-1][:3]]
    # same subspace: projector difference vanishes
    ours = res.P.T
    assert np.linalg.norm(ours @ ours.T - top @ top.T) < 1e-8


def test_solver_objective_self_consistency():
    adj = random_graph(12, 2, seed=61)
    cfg = ColesConfig(d_prime=4, filter=FilterConfig(kind="s2gc", k_steps=3, alpha=0.1),
                      negatives=NegSampleConfig(kappa=2, per_node=3, seed=5))
    x = rand_x(12, 6, seed=62)
    res = solve_linear_coles(x, adj, cfg)
    w = normalized_adjacency(adj)
    negs = [sample_negative_graph(12, cfg.negatives, k) for k in range(2)]
    delta = build_delta_w(w, negs, cfg.negatives.eta_prime)
    assert abs(res.objective - coles_objective(res.Y, delta)) < 1e-8
    assert abs(res.objective - float(res.eigenvalues.sum())) < 1e-12
    # the gap is that of the form the embedding was read off
    assert res.eigengap == solve_projection(apply_filter(w, x, cfg.filter), delta, 4).eigengap


def test_solver_accepts_weighted_graph():
    adj = weighted_graph(16, 2, seed=68)
    cfg = ColesConfig(d_prime=3, negatives=NegSampleConfig(kappa=2, per_node=3, seed=4))
    res = solve_linear_coles(rand_x(16, 6, seed=69), adj, cfg)
    assert res.eigengap >= 0.0
    assert np.all(np.isfinite(res.Y))


def test_solver_checks_no_graph(monkeypatch):
    # the inputs were checked on entry, and from_edges builds each negative graph
    # symmetric, so nothing runs the transpose check again
    adj = random_graph(12, 2, seed=61)
    x = rand_x(12, 6, seed=62)
    checks = []
    validate = SparseSym._validate

    def counted_validate(s):
        checks.append(s.n)
        validate(s)

    monkeypatch.setattr(SparseSym, "_validate", counted_validate)
    for kappa in (0, 1, 3):
        checks.clear()
        cfg = ColesConfig(d_prime=3, negatives=NegSampleConfig(kappa=kappa, per_node=3, seed=5))
        solve_linear_coles(x, adj, cfg)
        assert checks == []


def test_solver_rows_orthonormal_and_values_sorted():
    adj = random_graph(14, 2, seed=63)
    cfg = ColesConfig(d_prime=5, negatives=NegSampleConfig(kappa=1, per_node=2, seed=3),
                      filter=FilterConfig(kind="sgc", k_steps=2))
    res = solve_linear_coles(rand_x(14, 8, seed=64), adj, cfg)
    assert np.linalg.norm(res.P @ res.P.T - np.eye(5)) < 1e-8
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)
    assert res.Y.shape == (14, 5)


def test_solver_rayleigh_maximality_spot():
    m = random_sym(10, 70)
    delta = SparseSym.from_scipy(sp.csr_matrix(m))
    res = solve_projection(np.eye(10), delta, d_prime=3)
    rng = Xoshiro256StarStar(71)
    for _ in range(200):
        g = np.array(rng.normals(10 * 3)).reshape(10, 3)
        q, _ = np.linalg.qr(g)
        p = q.T
        assert np.trace(p @ m @ p.T) <= res.objective + 1e-9


def test_solver_deterministic():
    adj = random_graph(16, 2, seed=65)
    cfg = ColesConfig(d_prime=4, negatives=NegSampleConfig(kappa=3, per_node=2, seed=9))
    x = rand_x(16, 6, seed=66)
    a = solve_linear_coles(x, adj, cfg)
    b = solve_linear_coles(x, adj, cfg)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.Y, b.Y)
    assert a.objective == b.objective


def test_solver_rank_warning():
    # negative-definite quadratic form: identity positive graph cannot win
    m = -np.eye(3)
    delta = SparseSym.from_scipy(sp.csr_matrix(m))
    res = solve_projection(np.eye(3), delta, d_prime=2)
    assert res.rank_warning
    assert res.eigengap == 0.0  # a flat spectrum


def test_solver_rejects_overlarge_dim():
    adj = random_graph(8, 2, seed=67)
    cfg = ColesConfig(d_prime=9, negatives=NegSampleConfig(kappa=0))
    with pytest.raises(ValueError, match="d_prime"):
        solve_linear_coles(np.eye(8), adj, cfg)


# -- feature hashing ------------------------------------------------------------

def test_hash_features_shape_and_determinism():
    x = rand_x(9, 40, seed=80)
    a = hash_features(x, 8, seed=1)
    b = hash_features(x, 8, seed=1)
    assert a.shape == (9, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, hash_features(x, 8, seed=2))


def loop_hash_features(x, n_buckets, seed):
    """One column at a time, in ascending j: the reference for the one-product fold."""
    out = np.zeros((x.shape[0], n_buckets))
    for j in range(x.shape[1]):
        state, h1 = splitmix64(stream_key(seed, j))
        _, h2 = splitmix64(state)
        out[:, (h1 * n_buckets) >> 64] += (1.0 if (h2 & 1) == 0 else -1.0) * x[:, j]
    return out


@pytest.mark.parametrize("seed", [0, 7, 411, 2**64 - 1, 12345678901234])
def test_hash_features_matches_column_loop(seed):
    x = rand_x(7, 300, seed=83)
    for n_buckets in (1, 3, 64, 1000):
        assert np.array_equal(hash_features(x, n_buckets, seed=seed),
                              loop_hash_features(x, n_buckets, seed))


def test_hash_features_linear():
    a = rand_x(5, 12, seed=81)
    b = rand_x(5, 12, seed=82)
    lhs = hash_features(a + b, 4, seed=0)
    rhs = hash_features(a, 4, seed=0) + hash_features(b, 4, seed=0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hash_features_refuses_overflowing_buckets():
    signs = hash_features(np.eye(4), 1, seed=0)[:, 0]  # every column's sign in bucket 0
    with pytest.raises(ValueError, match="hashed features overflow"):
        hash_features(np.tile(1e308 * signs, (2, 1)), 1, seed=0)
