"""Property tests for the spectral kernels, the batched evaluation and the blocked
Parzen kernel over random instances."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coles.coles_solver import (ColesConfig, build_quadratic_form, coles_objective,
                                solve_linear_coles, solve_projection, sym_eig)
from coles.diagnostics import _KERNEL_BLOCK, parzen_density
from coles.graph_core import SparseSym, add_self_loops, degree_normalize, normalized_adjacency
from coles.negative_sampling import NegSampleConfig, build_delta_w, sample_negative_graph
from coles import evaluation
from coles.evaluation import SplitSpec, kmeans, logreg_fit, random_splits
from coles.rng import _LONG_LANE, Xoshiro256StarStar, draw_u64s, shuffle_with, streams
from coles.spectral_filters import KINDS, FilterConfig, apply_filter
from coles.synthetic import SbmSpec, generate_sbm
import helpers
from helpers import (ScalarXoshiro, bulk_everywhere, loop_kmeans, rand_x, random_graph,
                     sparse_equal, stream_key, weighted_graph)

PROPERTY = settings(max_examples=40)
SEEDS = st.integers(0, 2**32 - 1)


def repeated_spectrum(n, distinct, seed):
    """Q diag(lam) Q^T whose n eigenvalues take at most `distinct` values."""
    rng = ScalarXoshiro(seed)
    lam = [float(rng.below(distinct)) - 1.5 for _ in range(n)]
    q, _ = np.linalg.qr(rand_x(n, n, seed=seed + 1))
    m = q @ np.diag(lam) @ q.T
    return 0.5 * (m + m.T)


def check_eigendecomposition(m, eig):
    n = m.shape[0]
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


@settings(max_examples=150)
@given(n=st.integers(1, 40), seed=SEEDS, data=st.data(),
       kind=st.sampled_from(["random", "rank-deficient", "repeated"]))
def test_sym_eig_agrees_with_scipys_evr(n, seed, data, kind):
    # numpy's dsyevd against the dsyevr driver sym_eig used before: the same
    # spectrum within 1e-12 of its scale, and a decomposition of the same quality
    from scipy.linalg import eigh
    if kind == "random":
        b = rand_x(n, n, seed=seed)
        m = 0.5 * (b + b.T)
    elif kind == "rank-deficient":
        b = rand_x(n, data.draw(st.integers(1, n), label="rank"), seed=seed)
        m = b @ b.T
        m = 0.5 * (m + m.T)
    else:
        m = repeated_spectrum(n, data.draw(st.integers(1, 4), label="distinct"), seed)
    eig = sym_eig(m)
    evr = eigh(m, driver="evr", eigvals_only=True)[::-1]
    tol = 1e-12 * max(float(np.max(np.abs(evr))), 1e-300)
    assert np.max(np.abs(eig.values - evr)) <= tol
    assert np.max(np.abs(m @ eig.vectors - eig.vectors * eig.values)) <= tol
    assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n))) <= 1e-12
    lead = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), np.arange(n)]
    assert np.all(lead > 0)


@PROPERTY
@given(n=st.integers(1, 12))
def test_sym_eig_zero_matrix_property(n):
    m = np.zeros((n, n))
    eig = sym_eig(m)
    check_eigendecomposition(m, eig)
    assert np.array_equal(eig.values, np.zeros(n))


def assert_checked_rebuild(out):
    """An unchecked result passes the entry check unchanged and stores no zeros."""
    assert sparse_equal(SparseSym.from_scipy(out.csr), out)
    assert np.all(out.data != 0)


@PROPERTY
@given(n=st.integers(6, 40), seed=SEEDS, kappa=st.integers(0, 4),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]),
       eta_prime=st.sampled_from([0.0, 0.8, 1.0]))
def test_graph_ops_keep_symmetry_by_construction(n, seed, kappa, mode, eta_prime):
    for adj in (random_graph(n, 1, seed), weighted_graph(n, 1, seed)):
        looped = add_self_loops(adj)
        w = degree_normalize(looped)
        for out in (looped, w):
            assert_checked_rebuild(out)
    cfg = NegSampleConfig(kappa=kappa, per_node=2, mode=mode, p_prime=0.3, seed=seed)
    negs = [sample_negative_graph(n, cfg, k) for k in range(kappa)]
    for out in negs + [build_delta_w(w, negs, eta_prime)]:
        assert_checked_rebuild(out)


@PROPERTY
@given(data=st.data(), n=st.integers(2, 12))
def test_from_edges_passes_the_checked_constructor(data, n):
    # duplicates, reversed pairs and empty input; the unchecked wrap must agree
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=30))
    k = data.draw(st.integers(0, len(pairs)), label="k")
    pairs = pairs + pairs[:k] + [(v, u) for u, v in pairs[k:]]
    out = SparseSym.from_edges(n, pairs)
    assert_checked_rebuild(out)
    want = np.zeros((n, n))  # the definition: a unit weight per undirected pair in the set
    for u, v in {tuple(sorted(p)) for p in pairs}:
        want[u, v] = want[v, u] = 1.0
    assert sparse_equal(out, SparseSym.from_scipy(want))


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
    top = np.sort(np.linalg.eigvalsh(m))[::-1][:d_prime]
    assert abs(res.objective - float(np.sum(top))) < tol
    assert abs(res.objective - coles_objective(res.Y, delta)) < tol


@PROPERTY
@given(n=st.integers(6, 40), d=st.integers(1, 12), seed=SEEDS, kappa=st.integers(0, 3),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]),
       form=st.sampled_from(["random", "zero features", "cancelled graph"]), data=st.data())
def test_eigengap_is_read_off_the_spectrum(n, d, seed, kappa, mode, form, data):
    w_pos, negs, cfg = delta_instance(n, seed, kappa, mode)
    delta = (build_delta_w(w_pos, [w_pos], 1.0) if form == "cancelled graph"
             else build_delta_w(w_pos, negs, cfg.eta_prime))
    fx = np.zeros((n, d)) if form == "zero features" else rand_x(n, d, seed=seed + 1)
    d_prime = data.draw(st.integers(1, d), label="d_prime")
    res = solve_projection(fx, delta, d_prime)
    m = build_quadratic_form(fx, delta)
    if d_prime == d or not m.any():
        assert res.eigengap is None
    else:
        values = sym_eig(m).values
        assert res.eigengap == (values[d_prime - 1] - values[d_prime]) / np.max(np.abs(values))
        assert res.eigengap >= 0.0


@PROPERTY
@given(n=st.integers(6, 40), d=st.integers(1, 8), seed=SEEDS, kind=st.sampled_from(KINDS),
       k_steps=st.integers(1, 4), self_loops=st.booleans(), data=st.data())
def test_kappa_zero_gives_laplacian_eigenmaps(n, d, seed, kind, k_steps, self_loops, data):
    # with no negative graph delta_w is W_pos: the projection is Laplacian
    # eigenmaps of L_pos = I - W_pos on the filtered features
    adj = random_graph(n, 2, seed=seed)
    x = rand_x(n, d, seed=seed + 1)
    d_prime = data.draw(st.integers(1, d), label="d_prime")
    filt = FilterConfig(kind=kind, k_steps=k_steps, alpha=0.3)
    w_pos = normalized_adjacency(adj, self_loops=self_loops)
    want = solve_projection(apply_filter(w_pos, x, filt), w_pos, d_prime)
    # no other negative-sampling setting may matter when nothing is sampled
    others = NegSampleConfig(
        kappa=0, per_node=data.draw(st.integers(1, 1000), label="per_node"),
        mode=data.draw(st.sampled_from(["per-node-k", "erdos-renyi"]), label="mode"),
        p_prime=data.draw(st.floats(0.01, 0.99), label="p_prime"),
        eta_prime=data.draw(st.floats(0.0, 1.0), label="eta_prime"),
        seed=data.draw(st.integers(0, 2**64 - 1), label="neg_seed"))
    for negatives in (NegSampleConfig(kappa=0), others):
        res = solve_linear_coles(x, adj, ColesConfig(d_prime, filt, negatives, self_loops))
        assert np.array_equal(res.P, want.P) and np.array_equal(res.Y, want.Y)
        assert np.array_equal(res.eigenvalues, want.eigenvalues)
        assert res.objective == want.objective and res.rank_warning == want.rank_warning
        assert res.eigengap == want.eigengap


RELABEL_REL_TOL = 1e-9  # of max |Y|; with the gaps assumed below the error is ~1e-12


@PROPERTY
@given(seed=SEEDS, per_block=st.integers(6, 20), kind=st.sampled_from(KINDS),
       d_prime=st.integers(1, 5))
def test_relabelling_nodes_permutes_embedding_rows(seed, per_block, kind, d_prime):
    # at kappa = 0: negative graphs are keyed by node id, so they do not relabel
    g = generate_sbm(SbmSpec(n_classes=3, per_block=per_block, p_in=0.4, p_out=0.05,
                             feature_dim=6, seed=seed))
    n = g.adjacency.n
    draws = Xoshiro256StarStar(seed + 1).next_u64s(n - 1)[None]
    perm = shuffle_with(np.arange(n)[None], draws)[0]  # relabelled node i is node perm[i]
    new_id = np.argsort(perm)
    relabelled = SparseSym.from_edges(n, new_id[g.adjacency.edge_list()])
    cfg = ColesConfig(d_prime, FilterConfig(kind=kind, k_steps=2),
                      NegSampleConfig(kappa=0))
    res = solve_linear_coles(g.features, g.adjacency, cfg)
    # order and sign of each eigenvector are defined: distinct eigenvalues
    # through d'+1 and one largest-magnitude component per vector
    w_pos = normalized_adjacency(g.adjacency)
    values = sym_eig(build_quadratic_form(apply_filter(w_pos, g.features, cfg.filter),
                                          w_pos)).values
    scale = np.max(np.abs(values))
    assume(np.all(-np.diff(values[:d_prime + 1]) > 1e-4 * scale))
    lead = np.sort(np.abs(res.P), axis=1)
    assume(np.all(lead[:, -1] - lead[:, -2] > 1e-4))
    moved = solve_linear_coles(g.features[perm], relabelled, cfg)
    tol = RELABEL_REL_TOL * np.max(np.abs(res.Y))
    assert np.max(np.abs(moved.Y - res.Y[perm])) <= tol
    assert np.max(np.abs(moved.P - res.P)) <= RELABEL_REL_TOL
    assert np.max(np.abs(moved.eigenvalues - res.eigenvalues)) <= RELABEL_REL_TOL * scale


# -- batched evaluation: every split and fit bit for bit its one-at-a-time form -------

@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), keys=st.integers(0, 6),
       count=st.integers(0, 3 * _LONG_LANE), long_lanes=st.booleans())
def test_lane_draws_equal_scalar_steps_of_each_generator(seed, keys, count, long_lanes):
    states = streams(seed, np.arange(keys))
    scalar = [ScalarXoshiro(seed, s) for s in range(keys)]
    with bulk_everywhere(long_lanes):
        got = draw_u64s(states, count)
    assert got.dtype == np.uint64 and got.shape == (keys, count)
    assert got.tolist() == [[g.next_u64() for _ in range(count)] for g in scalar]
    # each stream ends where count scalar steps leave it
    assert states.tolist() == [g.state for g in scalar]


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), per_class=st.integers(1, 5), data=st.data(),
       n_splits=st.integers(1, 5))
def test_random_splits_row_is_the_keyed_random_split(seed, per_class, data, n_splits):
    sizes = data.draw(st.lists(st.integers(per_class + 1, per_class + 30), min_size=1,
                               max_size=4), label="sizes")
    labels = np.repeat(np.arange(len(sizes)), sizes)[None]
    labels = shuffle_with(labels, Xoshiro256StarStar(seed).next_u64s(labels.size - 1)[None])[0]
    spec = SplitSpec(per_class=per_class, val_size=data.draw(st.integers(0, 40)), seed=seed)
    stacks = random_splits(labels, spec, n_splits)
    for s in range(n_splits):
        want = random_splits(labels, SplitSpec(per_class, spec.val_size, stream_key(seed, s)), 1)
        for stack, part in zip(stacks, want):
            assert np.array_equal(stack[s], part[0])


@PROPERTY
@given(seed=SEEDS, n_sets=st.integers(1, 6), m=st.integers(2, 30), d=st.integers(1, 6),
       n_classes=st.integers(2, 5), l2=st.sampled_from([0.0, 1e-4, 0.1]))
def test_stacked_logreg_fit_equals_per_set_fits(seed, n_sets, m, d, n_classes, l2):
    x = rand_x(n_sets * m, d, seed=seed).reshape(n_sets, m, d)
    rng = ScalarXoshiro(seed + 1)
    labels = np.array([rng.below(n_classes) for _ in range(n_sets * m)]).reshape(n_sets, m)
    labels[:, 0], labels[:, 1] = 0, n_classes - 1  # two classes, and C the same, in each set
    w = logreg_fit(x, labels, l2=l2, epochs=30)
    assert w.shape == (n_sets, d + 1, n_classes)
    for s in range(n_sets):
        w_s = logreg_fit(x[s:s + 1], labels[s:s + 1], l2=l2, epochs=30)
        assert np.array_equal(w[s:s + 1].view(np.uint64), w_s.view(np.uint64))


@PROPERTY
@given(seed=SEEDS, n_sets=st.integers(1, 4), m=st.integers(2, 30), d=st.integers(1, 5),
       n_classes=st.integers(2, 12), l2=st.sampled_from([0.0, 1e-4, 0.1]),
       scale=st.sampled_from([1.0, 10.0]), epochs=st.integers(1, 30))
@example(seed=8, n_sets=3, m=40, d=3, n_classes=11, l2=1e-4, scale=1.0, epochs=25)
@example(seed=5, n_sets=2, m=30, d=4, n_classes=8, l2=1e-4, scale=10.0, epochs=30)
@example(seed=13, n_sets=3, m=48, d=5, n_classes=16, l2=0.0, scale=1.0, epochs=30)
def test_logreg_fit_is_the_reference_epoch_bit_for_bit(seed, n_sets, m, d, n_classes, l2,
                                                       scale, epochs):
    # the class-major loop against the plain (S, m, C) epoch, whose softmax
    # adds the classes in class order, as the fit's class sum does
    x = scale * rand_x(n_sets * m, d, seed=seed).reshape(n_sets, m, d)
    rng = ScalarXoshiro(seed + 1)
    labels = np.array([rng.below(n_classes) for _ in range(n_sets * m)]).reshape(n_sets, m)
    labels[:, 0], labels[:, 1] = 0, n_classes - 1
    with np.errstate(over="ignore", invalid="ignore"):
        want_w, _ = helpers.loop_logreg(x, labels, l2=l2, epochs=epochs)
    assume(np.all(np.isfinite(want_w)))  # else the fit refuses its weights
    w = logreg_fit(x, labels, l2=l2, epochs=epochs)
    assert np.array_equal(w.view(np.uint64), want_w.view(np.uint64))


# -- blocked Parzen kernel: bit for bit the full kernel matrix -------------------


@PROPERTY
@given(seed=SEEDS, data=st.data(), bandwidth=st.floats(1e-3, 10.0),
       n=st.one_of(st.integers(1, 400), st.integers(2**10, _KERNEL_BLOCK - 2),
                   st.sampled_from([_KERNEL_BLOCK - 1, _KERNEL_BLOCK, _KERNEL_BLOCK + 1,
                                    2 * _KERNEL_BLOCK + 3])))
def test_parzen_density_equals_the_full_kernel_matrix(seed, data, bandwidth, n):
    # sizes on both sides of one block, and grids that leave a short last block
    v = rand_x(n, 1, seed=seed).ravel()
    grid_points = data.draw(st.integers(2, max(2, min(700, 2**21 // n))), label="grid_points")
    grid = np.linspace(v.min() - 5 * bandwidth, v.max() + 5 * bandwidth, grid_points)
    z = (grid[:, None] - v[None, :]) / bandwidth
    dense = np.exp(-0.5 * z * z).sum(axis=1) / (n * bandwidth * np.sqrt(2.0 * np.pi))
    got = parzen_density(v, bandwidth, grid)
    assert np.array_equal(got.view(np.uint64), dense.view(np.uint64))


# -- batched k-means: bit for bit the per-restart loop ---------------------------

def kmeans_points(kind, n, d, seed):
    """n x d rows: continuous, rounded to integers (ties), drawn from a few
    rows (duplicates) or all one row (every k-means++ distance is 0)."""
    y = 3.0 * rand_x(n, d, seed=seed)
    if kind == "rounded":
        return np.round(y)
    if kind == "duplicates":
        rng = ScalarXoshiro(seed + 1)
        return y[np.array([rng.below(min(n, 3)) for _ in range(n)])]
    if kind == "identical":
        return np.repeat(y[:1], n, axis=0)
    return y


@settings(max_examples=150)
@given(seed=SEEDS, data=st.data(), n=st.integers(1, 60), d=st.integers(1, 5),
       kind=st.sampled_from(["continuous", "rounded", "duplicates", "identical"]),
       max_iter=st.sampled_from([1, 2, evaluation.KMEANS_MAX_ITER]))
def test_kmeans_equals_the_per_restart_loop(seed, data, n, d, kind, max_iter):
    y = kmeans_points(kind, n, d, seed)
    k = data.draw(st.one_of(st.just(min(n, 12)), st.integers(1, min(n, 12))), label="k")
    # None keeps the default budget (one block); else blocks of that many
    # restarts (kmeans sizes them _KMEANS_BLOCK // (n (k + 8))), the last one
    # short unless it divides KMEANS_RESTARTS
    per_block = data.draw(st.sampled_from([None, 1, 2, 3, 4, 7]), label="per_block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "KMEANS_MAX_ITER", max_iter)
        if per_block is not None:
            mp.setattr(evaluation, "_KMEANS_BLOCK", per_block * n * (k + 8))
        got = kmeans(y, k, [seed])[0]
        want = loop_kmeans(y, k, seed=seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@PROPERTY
@given(seed=SEEDS, data=st.data(), n=st.integers(1, 60), d=st.integers(1, 5),
       seeds=st.lists(SEEDS, min_size=1, max_size=4),
       kind=st.sampled_from(["continuous", "rounded", "duplicates", "identical"]),
       per_block=st.sampled_from([None, 1, 3, 7, 13]))
def test_kmeans_runs_are_the_per_seed_calls(seed, data, n, d, seeds, kind, per_block):
    # eval-cluster passes all its run seeds at once; blocks of 3, 7 or 13
    # restarts straddle two runs
    y = kmeans_points(kind, n, d, seed)
    k = data.draw(st.integers(1, min(n, 12)), label="k")
    want = np.concatenate([kmeans(y, k, [s]) for s in seeds])
    with pytest.MonkeyPatch.context() as mp:
        if per_block is not None:
            mp.setattr(evaluation, "_KMEANS_BLOCK", per_block * n * (k + 8))
        got = kmeans(y, k, seeds)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@PROPERTY
@given(seed=SEEDS, data=st.data(), n=st.integers(1, 60), d=st.integers(1, 5),
       kind=st.sampled_from(["continuous", "rounded", "duplicates", "identical"]))
def test_kmeans_returns_k_nonempty_clusters(seed, data, n, d, kind):
    # the re-seed fills every empty cluster, also when fewer than k rows differ
    y = kmeans_points(kind, n, d, seed)
    k = data.draw(st.integers(1, n), label="k")
    assert np.unique(kmeans(y, k, [seed])[0]).size == k


@PROPERTY
@given(seed=SEEDS, data=st.data(), n=st.integers(1, 40), d=st.integers(1, 4),
       n_restarts=st.integers(1, 12), kind=st.sampled_from(["continuous", "duplicates", "identical"]))
@example(seed=3, data=None, n=5, d=2, n_restarts=4, kind="identical")
@example(seed=4, data=None, n=9, d=3, n_restarts=2, kind="duplicates")
def test_kmeanspp_draws_each_restarts_seeds_as_the_loop(seed, data, n, d, n_restarts, kind):
    # one draw per centre: below(n), or random() while some distance is not 0;
    # fewer distinct rows than k leave every distance 0, and below(n) picks
    y = kmeans_points(kind, n, d, seed)
    k = min(n, 6) if data is None else data.draw(st.integers(1, min(n, 6)), label="k")
    states = streams(seed, np.arange(n_restarts))
    got = evaluation._kmeanspp(y, (y * y).sum(axis=1), 2.0 * y, k, states)
    for t, (state, cents) in enumerate(zip(states.tolist(), got)):
        loop = ScalarXoshiro(seed, t)
        want = helpers._kmeanspp(y, k, loop)
        assert np.array_equal(cents.view(np.uint64), want.view(np.uint64))
        assert state == loop.state  # k draws, no more


@PROPERTY
@given(seed=SEEDS, data=st.data(), n=st.integers(1, 300),
       d=st.one_of(st.integers(1, 6), st.just(16)), n_restarts=st.integers(1, 5),
       kind=st.sampled_from(["continuous", "rounded", "duplicates", "identical"]),
       max_iter=st.sampled_from([1, 2, evaluation.KMEANS_MAX_ITER]))
def test_batched_seeds_and_centroids_are_the_loops_bits(seed, data, n, d, n_restarts, kind,
                                                       max_iter):
    # kmeans returns assignments only; a centroid that is one ulp off rarely
    # moves one, so compare the seeds and the final centroids themselves;
    # d = 16 is the width of the wide-features embedding
    y = kmeans_points(kind, n, d, seed)
    k = data.draw(st.integers(1, min(n, 12)), label="k")
    cents = evaluation._kmeanspp(y, (y * y).sum(axis=1), 2.0 * y, k,
                                 streams(seed, np.arange(n_restarts)))
    want = [helpers._kmeanspp(y, k, ScalarXoshiro(seed, t)) for t in range(n_restarts)]
    assert np.array_equal(cents.view(np.uint64), np.stack(want).view(np.uint64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "KMEANS_MAX_ITER", max_iter)
        assign = evaluation._lloyd(y, (y * y).sum(axis=1), 2.0 * y, cents)
        want_assign = [helpers.loop_lloyd(y, c) for c in want]  # updates want in place
    assert np.array_equal(assign, np.stack(want_assign))
    # == and not the bits: a zero sum may differ in its sign (0.0 + -0.0 is 0.0)
    assert np.array_equal(cents, np.stack(want))
