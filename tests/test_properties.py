"""Property tests for the spectral kernels over random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coles.coles_solver import (build_quadratic_form, coles_objective, solve_projection,
                                sym_eig)
from coles.graph_core import (SparseSym, add_self_loops, degree_normalize, laplacian,
                              normalized_adjacency)
from coles.negative_sampling import (NegSampleConfig, build_delta_w, psd_margin,
                                     sample_negative_graph)
from coles.rng import Xoshiro256StarStar
from coles.synthetic import SbmSpec, generate_sbm
from helpers import rand_x, random_graph, weighted_graph

PROPERTY = settings(max_examples=40)
SEEDS = st.integers(0, 2**32 - 1)


def repeated_spectrum(n, distinct, seed):
    """Q diag(lam) Q^T whose n eigenvalues take at most `distinct` values."""
    rng = Xoshiro256StarStar(seed)
    lam = [float(rng.below(distinct)) - 1.5 for _ in range(n)]
    q, _ = np.linalg.qr(rand_x(n, n, seed=seed + 1))
    m = q @ np.diag(lam) @ q.T
    return 0.5 * (m + m.T)


def check_eigendecomposition(m, eig):
    n = m.shape[0]
    assert eig.converged
    scale = max(np.linalg.norm(m), 1e-300)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(recon - m) < 1e-8 * scale
    assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) < 1e-8
    assert np.all(np.diff(eig.values) <= 0)
    for i in range(n):
        col = eig.vectors[:, i]
        assert col[int(np.argmax(np.abs(col)))] > 0


@PROPERTY
@given(n=st.integers(1, 40), seed=SEEDS)
def test_sym_eig_random_symmetric(n, seed):
    b = rand_x(n, n, seed=seed)
    m = 0.5 * (b + b.T)
    check_eigendecomposition(m, sym_eig(m))


@PROPERTY
@given(n=st.integers(2, 30), distinct=st.integers(1, 4), seed=SEEDS)
def test_sym_eig_repeated_eigenvalues(n, distinct, seed):
    m = repeated_spectrum(n, distinct, seed)
    eig = sym_eig(m)
    check_eigendecomposition(m, eig)
    oracle = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.max(np.abs(eig.values - oracle)) < 1e-10 * max(1.0, np.linalg.norm(m))


@PROPERTY
@given(n=st.integers(1, 12))
def test_sym_eig_zero_matrix_property(n):
    m = np.zeros((n, n))
    eig = sym_eig(m)
    check_eigendecomposition(m, eig)
    assert np.array_equal(eig.values, np.zeros(n))


def assert_checked_rebuild(out):
    """An unchecked result passes the entry check unchanged and stores no zeros."""
    rebuilt = SparseSym(out.n, out.indptr, out.indices, out.data)
    assert rebuilt.equals(out)
    assert np.all(out.data != 0)


@PROPERTY
@given(n=st.integers(6, 40), seed=SEEDS, kappa=st.integers(0, 4),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]),
       eta_prime=st.sampled_from([0.0, 0.8, 1.0]))
def test_graph_ops_keep_symmetry_by_construction(n, seed, kappa, mode, eta_prime):
    for adj in (random_graph(n, 1, seed), weighted_graph(n, 1, seed)):
        looped = add_self_loops(adj)
        w = degree_normalize(looped)
        for out in (looped, w, laplacian(w)):
            assert_checked_rebuild(out)
    cfg = NegSampleConfig(kappa=kappa, per_node=2, mode=mode, p_prime=0.3, seed=seed)
    negs = [sample_negative_graph(n, cfg, k) for k in range(kappa)]
    for out in negs + [build_delta_w(w, negs, eta_prime)]:
        assert_checked_rebuild(out)


@PROPERTY
@given(data=st.data(), n=st.integers(2, 12),
       weight=st.sampled_from([1.0, 0.5, -2.0, 1e-300, 3e300, 0.0]))
def test_from_edges_passes_the_checked_constructor(data, n, weight):
    # duplicates, reversed pairs and empty input; the unchecked wrap must agree
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=30))
    k = data.draw(st.integers(0, len(pairs)), label="k")
    pairs = pairs + pairs[:k] + [(v, u) for u, v in pairs[k:]]
    out = SparseSym.from_edges(n, pairs, weight=weight)
    assert_checked_rebuild(out)
    assert out.nnz == (0 if weight == 0.0 else 2 * len({tuple(sorted(p)) for p in pairs}))


def delta_instance(n, seed, kappa, mode):
    adj = random_graph(n, 2, seed=seed)
    cfg = NegSampleConfig(kappa=kappa, per_node=2, mode=mode, p_prime=0.3,
                          eta_prime=0.8, seed=seed)
    w_pos = normalized_adjacency(adj)
    negs = [sample_negative_graph(n, cfg, k) for k in range(kappa)]
    return w_pos, negs, cfg


@PROPERTY
@given(n=st.integers(6, 40), d=st.integers(1, 12), seed=SEEDS, kappa=st.integers(0, 3),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]), data=st.data())
def test_objective_is_sum_of_top_eigenvalues(n, d, seed, kappa, mode, data):
    w_pos, negs, cfg = delta_instance(n, seed, kappa, mode)
    delta = build_delta_w(w_pos, negs, cfg.eta_prime)
    fx = rand_x(n, d, seed=seed + 1)
    d_prime = data.draw(st.integers(1, d), label="d_prime")
    res = solve_projection(fx, delta, d_prime)
    m = build_quadratic_form(fx, delta)
    tol = 1e-9 * max(1.0, np.linalg.norm(m)) * d_prime
    assert res.converged
    top = np.sort(np.linalg.eigvalsh(m))[::-1][:d_prime]
    assert abs(res.objective - float(np.sum(top))) < tol
    assert abs(res.objective - coles_objective(res.Y, delta)) < tol


def dense_margin(l_pos, l_negs, eta_prime):
    s = l_pos.toarray()
    if l_negs:
        s = s - (eta_prime / len(l_negs)) * sum(l.toarray() for l in l_negs)
    return float(np.min(np.linalg.eigvalsh(s)))


@PROPERTY
@given(n=st.integers(6, 60), seed=SEEDS, kappa=st.integers(0, 4),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]))
def test_psd_margin_matches_dense(n, seed, kappa, mode):
    w_pos, negs, cfg = delta_instance(n, seed, kappa, mode)
    l_pos, l_negs = laplacian(w_pos), [laplacian(w) for w in negs]
    eta_prime = cfg.eta_prime if negs else 0.0
    margin = psd_margin(build_delta_w(w_pos, negs, eta_prime), eta_prime)
    assert margin.converged
    assert abs(margin.value - dense_margin(l_pos, l_negs, cfg.eta_prime)) < 1e-9


@settings(max_examples=6)
@given(seed=SEEDS, eta_prime=st.sampled_from([0.5, 1.0]))
def test_psd_margin_three_block_sbm(seed, eta_prime):
    # the spectrum bottom clusters here: a power method needed thousands of steps
    g = generate_sbm(SbmSpec(n_classes=3, per_block=60, p_in=0.1, p_out=0.01, seed=seed))
    cfg = NegSampleConfig(kappa=3, per_node=5, eta_prime=eta_prime, seed=seed)
    w_pos = normalized_adjacency(g.adjacency)
    w_negs = [sample_negative_graph(g.adjacency.n, cfg, k) for k in range(3)]
    l_negs = [laplacian(w) for w in w_negs]
    margin = psd_margin(build_delta_w(w_pos, w_negs, eta_prime), eta_prime)
    assert margin.converged
    assert abs(margin.value - dense_margin(laplacian(w_pos), l_negs, eta_prime)) < 1e-9
