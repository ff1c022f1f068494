import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from coles import diagnostics
from coles.diagnostics import (LOG2, _KERNEL_BLOCK, _rel_entr, _usable_cpus,
                               expected_negative_homophily, homophily, js_divergence,
                               js_from_densities, lipschitz_check, pair_scores, parzen_density,
                               score_densities, separation, shared_grid, silverman_bandwidth,
                               wasserstein1)
from coles.graph_core import SparseSym, add_self_loops
from coles.negative_sampling import NegSampleConfig, sample_negative_graph
from coles.rng import Xoshiro256StarStar
from helpers import CountedThread, ScalarXoshiro, rand_x, random_graph

INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)


# -- parzen ---------------------------------------------------------------------

def test_kernel_peak_single_sample():
    dens = parzen_density([0.0], 1.0, np.array([-1.0, 0.0, 1.0]))
    assert abs(dens[1] - INV_SQRT_2PI) < 1e-12


def test_density_symmetry():
    samples = [-2.0, -0.5, 0.5, 2.0]
    grid = np.linspace(-4, 4, 81)
    dens = parzen_density(samples, 0.7, grid)
    assert np.max(np.abs(dens - dens[::-1])) < 1e-12


def test_density_integrates_to_one():
    rng = Xoshiro256StarStar(5)
    samples = np.array(rng.normals(400)) * 2.0 + 1.0
    h = silverman_bandwidth(samples)
    grid = np.linspace(samples.min() - 5 * h, samples.max() + 5 * h, 2048)
    dens = parzen_density(samples, h, grid)
    assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-3


def test_parzen_rejects_bad_grid():
    with pytest.raises(ValueError, match="grid"):
        parzen_density([0.0], 1.0, np.array([1.0, 0.5]))
    # a nan bandwidth would give an all-nan density and an infinite one all zeros
    for bandwidth in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            parzen_density([0.0], bandwidth, np.array([0.0, 1.0]))


def test_parzen_peak_memory_is_independent_of_grid_times_sample():
    # tracemalloc sees numpy's buffers. The full 512 x 30 000 kernel matrix
    # would be 117 MiB per temporary; two blocks of 2**16 values are 1 MiB.
    v = rand_x(30_000, 1, seed=3).ravel()
    grid = np.linspace(v.min() - 1.0, v.max() + 1.0, 512)
    tracemalloc.start()
    try:
        parzen_density(v, 0.2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.fixture()
def counted_threads(monkeypatch):
    monkeypatch.setattr(CountedThread, "starts", 0)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    return CountedThread


@pytest.mark.parametrize("n,grid_points", [
    (1000, 2003),                # short last blocks for every worker count
    (5000, 97),                  # 4 blocks of 2 * _KERNEL_BLOCK values: at most 4 workers
    (30_000, 50),                # 4 rows in 2 * _KERNEL_BLOCK values: at most 4 workers
    (_KERNEL_BLOCK + 5, 11),     # one grid row a block: at most 2 workers
    (2 * _KERNEL_BLOCK + 3, 4),
], ids=["short-last-block", "a-few-rows-a-block", "four-rows-fit", "wider-than-a-block",
        "twice-as-wide"])
def test_parzen_density_bytes_do_not_depend_on_the_worker_count(monkeypatch, counted_threads,
                                                                 n, grid_points):
    v = rand_x(n, 1, seed=n).ravel()
    grid = np.linspace(v.min() - 1.0, v.max() + 1.0, grid_points)
    rows = max(1, 2 * _KERNEL_BLOCK // n)
    blocks = -(-grid_points // rows)
    want = None
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: cpus)
        counted_threads.starts = 0
        before = threading.active_count()
        got = parzen_density(v, 0.3, grid).tobytes()
        assert threading.active_count() == before
        assert counted_threads.starts == min(cpus, blocks, max(2, rows)) - 1
        want = want or got
        assert got == want, cpus


def test_parzen_peak_memory_does_not_grow_with_the_core_count(monkeypatch, counted_threads):
    # 512 grid rows of 30 000 scores are 128 blocks; one buffer of a row for
    # each of 64 workers would be 15 MiB, so the workers are capped at the
    # 4 rows that fit in 2 * _KERNEL_BLOCK values
    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 64)
    v = rand_x(30_000, 1, seed=3).ravel()
    grid = np.linspace(v.min() - 1.0, v.max() + 1.0, 512)
    tracemalloc.start()
    try:
        parzen_density(v, 0.2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted_threads.starts == 3
    assert peak < 4 * 2**20


@pytest.mark.parametrize("failing", ["a-thread", "the-caller"])
def test_a_worker_failure_is_raised_in_the_caller(monkeypatch, counted_threads, failing):
    real_exp = np.exp

    def exp(x, out=None):
        if (threading.current_thread() is threading.main_thread()) == (failing == "the-caller"):
            raise MemoryError("injected into one worker")
        return real_exp(x, out=out)

    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(np, "exp", exp)
    v = rand_x(2000, 1, seed=4).ravel()
    before = threading.active_count()
    with pytest.raises(MemoryError, match="injected into one worker"):
        parzen_density(v, 0.3, np.linspace(-5.0, 5.0, 512))
    assert counted_threads.starts == 2
    assert threading.active_count() == before


def test_parzen_workers_run_under_the_callers_errstate(monkeypatch, counted_threads):
    # every nonzero z = (grid - v) / 1e-300 overflows; under the caller's
    # over="ignore" no worker may warn (the pytest config makes a warning an error)
    monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 2)
    v = rand_x(2000, 1, seed=5).ravel()
    with np.errstate(over="ignore"):
        dens = parzen_density(v, 1e-300, np.linspace(-5.0, 5.0, 512))
    assert counted_threads.starts == 1
    assert np.all(dens == 0.0)


def test_usable_cpus_is_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert _usable_cpus() == (os.cpu_count() or 1)


def test_silverman_rule_values():
    rng = Xoshiro256StarStar(6)
    samples = np.array(rng.normals(1000))
    h = silverman_bandwidth(samples)
    assert abs(h - 1.06 * np.std(samples, ddof=1) * 1000 ** (-0.2)) < 1e-12


def test_silverman_constant_sample_takes_unit_sigma():
    assert silverman_bandwidth(np.full(32, 3.0)) == 1.06 * 32 ** (-0.2)  # 32 ** -0.2 = 0.5


# -- JS divergence ------------------------------------------------------------------

def test_js_identical_samples_near_zero():
    rng = Xoshiro256StarStar(7)
    s = np.array(rng.normals(500))
    assert js_divergence(s, s.copy()) < 1e-6


def test_js_disjoint_saturates_at_log2():
    p = np.full(50, -100.0) + np.linspace(0, 0.1, 50)
    q = np.full(50, 100.0) + np.linspace(0, 0.1, 50)
    js = js_divergence(p, q, bandwidth=0.5)
    assert abs(js - LOG2) < 1e-3


def test_js_matches_quadrature_oracle_for_gaussians():
    """KDE-based JS vs numerical integration of the analytic densities."""
    gap = 1.0
    grid = np.linspace(-12.0, 13.0, 20001)
    fp = scipy.stats.norm.pdf(grid, 0.0, 1.0)
    fq = scipy.stats.norm.pdf(grid, gap, 1.0)
    fm = 0.5 * (fp + fq)
    with np.errstate(divide="ignore", invalid="ignore"):
        ip = np.where(fp > 0, fp * np.log(fp / fm), 0.0)
        iq = np.where(fq > 0, fq * np.log(fq / fm), 0.0)
    oracle = 0.5 * np.trapezoid(ip, grid) + 0.5 * np.trapezoid(iq, grid)

    rng = Xoshiro256StarStar(8)
    p = np.array(rng.normals(10000))
    q = np.array(rng.normals(10000)) + gap
    assert abs(js_divergence(p, q) - oracle) < 0.02


def test_js_symmetric():
    rng = Xoshiro256StarStar(9)
    p = np.array(rng.normals(300))
    q = np.array(rng.normals(300)) * 1.5 + 0.7
    assert abs(js_divergence(p, q) - js_divergence(q, p)) < 1e-9


def test_js_from_densities_matches_js_divergence():
    p = np.linspace(0.0, 1.0, 40) ** 2
    q = np.linspace(0.5, 2.0, 30)
    h_p, h_q = silverman_bandwidth(p), silverman_bandwidth(q)
    grid = shared_grid(p, q, h_p, h_q, 128)
    fp, fq = parzen_density(p, h_p, grid), parzen_density(q, h_q, grid)
    dens = score_densities(p, q, grid_points=128)
    assert dens.grid.tobytes() == grid.tobytes()
    assert dens.p.tobytes() == fp.tobytes() and dens.q.tobytes() == fq.tobytes()
    assert js_from_densities(fp, fq, grid) == js_divergence(p, q, grid_points=128)


# densities as js_from_densities pairs them: f, g >= 0 and fm = (f + g) / 2
TINY = np.finfo(np.float64).smallest_normal
EDGE_DENSITIES = [0.0, 5e-324, 1e-320, TINY, 1e-300, 0.5, 1.0, 1e300]


def test_rel_entr_special_cases_are_scipys():
    # f = 0 gives 0; f > 0 over an fm that underflows to 0 (5e-324 halved)
    # gives inf; f = g gives 0; an f / fm that is subnormal or 0 takes
    # log f - log fm
    f, g = (a.ravel() for a in np.meshgrid(EDGE_DENSITIES, EDGE_DENSITIES))
    fm = 0.5 * (f + g)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = (f > 0) & (f / fm < TINY)
    special = (f == 0) | (fm == 0) | (f == g) | small
    assert small.sum() == 8 and (f[special] > 0).sum() == 16
    got, want = _rel_entr(f, fm)[special], scipy.special.rel_entr(f, fm)[special]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isinf(got).sum() == 1


def test_js_keeps_a_density_ratio_that_underflows():
    # 5e-324 over fm = 2 rounds to 0: taken as log(0), this term would make
    # JS -inf, which the clip turns into 0 for two nearly disjoint densities
    grid = np.arange(4.0)
    fp, fq = np.array([0.5, 0.5, 5e-324, 0.0]), np.array([0.0, 0.0, 4.0, 4.0])
    fm = 0.5 * (fp + fq)
    want = (0.5 * np.trapezoid(scipy.special.rel_entr(fp, fm), grid)
            + 0.5 * np.trapezoid(scipy.special.rel_entr(fq, fm), grid))
    assert js_from_densities(fp, fq, grid) == min(want, LOG2 + 1e-6) > 0.5


DENSITY = st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.floats(0.0, 1e-300))


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(DENSITY, DENSITY), min_size=1, max_size=40))
def test_rel_entr_is_scipys_within_rounding(pairs):
    # scipy takes log1p((f - fm) / fm) where f / fm is in (0.5, 2), numpy's
    # log of the ratio here: a few ulps apart
    f, g = np.array(pairs).T
    fm = 0.5 * (f + g)
    got, want = _rel_entr(f, fm), scipy.special.rel_entr(f, fm)
    assert np.array_equal(np.isinf(got), np.isinf(want)) and not np.isnan(got).any()
    finite = np.isfinite(want)
    got, want, f = got[finite], want[finite], f[finite]
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want) + f))


def test_js_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError, match="bandwidth"):
        js_divergence([0.0, 1.0], [2.0, 3.0], bandwidth=-1.0)


@pytest.mark.parametrize("bandwidth", [math.inf, math.nan])
def test_score_densities_rejects_non_finite_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        score_densities([0.0, 1.0], [2.0, 3.0], bandwidth=bandwidth)


# -- Wasserstein ----------------------------------------------------------------------

def test_w1_identical():
    s = [0.0, 1.0, 2.0]
    assert wasserstein1(s, list(s)) == 0.0


def test_w1_point_masses():
    assert wasserstein1([0.0], [3.0]) == 3.0


def test_w1_sorted_coupling():
    assert abs(wasserstein1([0.0, 1.0], [1.0, 2.0]) - 1.0) < 1e-15


def test_w1_matches_scipy_unequal_sizes():
    rng = Xoshiro256StarStar(11)
    p = np.array(rng.normals(137))
    q = np.array(rng.normals(211)) * 2.0 - 0.3
    ours = wasserstein1(p, q)
    ref = scipy.stats.wasserstein_distance(p, q)
    assert abs(ours - ref) < 1e-10


def test_w1_triangle_inequality():
    rng = ScalarXoshiro(12)
    for _ in range(10):
        a = np.array(rng.normals(60))
        b = np.array(rng.normals(60)) + rng.random()
        c = np.array(rng.normals(60)) - rng.random()
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9


def test_js_plateaus_while_w1_grows():
    rng = Xoshiro256StarStar(13)
    base_p = np.array(rng.normals(1000))
    base_q = np.array(rng.normals(1000))
    js_vals = []
    for gap in range(11):
        p = base_p
        q = base_q + gap
        w1 = wasserstein1(p, q)
        js = js_divergence(p, q)
        js_vals.append(js)
        if gap >= 2:
            assert abs(w1 - gap) < 0.1 * gap
        if gap >= 6:
            assert abs(js - LOG2) < 0.05
    for prev, nxt in zip(js_vals, js_vals[1:]):
        assert nxt >= prev - 0.02


# -- lipschitz -----------------------------------------------------------------------

def test_lipschitz_equal_vectors():
    out = lipschitz_check([1.0, 2.0], [1.0, 2.0], [0.5, -0.5])
    assert out.lhs == 0.0 and out.holds


def test_lipschitz_zero_reference():
    out = lipschitz_check([1.0, 2.0], [3.0, -1.0], [0.0, 0.0])
    assert out.lhs == 0.0 and out.rhs == 0.0 and out.holds


def test_lipschitz_random_triples():
    rng = Xoshiro256StarStar(14)
    for _ in range(1000):
        u = np.array(rng.normals(6))
        up = np.array(rng.normals(6))
        v = np.array(rng.normals(6))
        assert lipschitz_check(u, up, v).holds


# -- homophily -----------------------------------------------------------------------

def clique_edges(nodes):
    nodes = list(nodes)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def test_homophily_single_label_clique():
    adj = SparseSym.from_edges(5, clique_edges(range(5)))
    assert homophily(adj, np.zeros(5, dtype=int)) == 1.0


def test_homophily_single_cross_edge():
    adj = SparseSym.from_edges(2, [(0, 1)])
    assert homophily(adj, np.array([0, 1])) == 0.0


def test_homophily_two_cliques_one_bridge():
    # two 3-cliques with distinct labels joined by one cross edge:
    # 4 nodes keep fraction 1, the two endpoints have 2/3 -> H = (4 + 2*2/3)/6
    edges = clique_edges(range(3)) + clique_edges(range(3, 6)) + [(2, 3)]
    adj = SparseSym.from_edges(6, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    expected = (4 * 1.0 + 2 * (2.0 / 3.0)) / 6.0
    assert abs(homophily(adj, labels) - expected) < 1e-15


def test_homophily_random_labels_concentrates():
    adj = random_graph(200, 3, seed=15)
    rng = ScalarXoshiro(16)
    c = 4
    labels = np.array([rng.below(c) for _ in range(200)])
    assert abs(homophily(adj, labels) - 1.0 / c) < 0.1


def test_homophily_skips_isolated_nodes():
    # node 2 has no neighbor: the mean runs over nodes 0 and 1 only
    adj = SparseSym.from_edges(3, [(0, 1)])
    assert homophily(adj, np.array([0, 0, 1])) == 1.0
    assert homophily(adj, np.array([0, 1, 1])) == 0.0
    # a self-loop is not a neighbor; with no neighbor anywhere there is no mean
    loops_only = add_self_loops(SparseSym.from_edges(3, []))
    with pytest.raises(ValueError, match="no node has a neighbor"):
        homophily(loops_only, np.array([0, 0, 1]))


def test_expected_negative_homophily():
    assert expected_negative_homophily([1.0]) == 1.0
    assert abs(expected_negative_homophily([0.25] * 4) - 0.25) < 1e-15
    assert abs(expected_negative_homophily([0.9, 0.1]) - 0.82) < 1e-15
    with pytest.raises(ValueError, match="probability"):
        expected_negative_homophily([0.5, 0.4])


# -- separation --------------------------------------------------------------------

def test_separation_cases():
    assert separation(2.5, 2.5) == 0.0
    assert abs(separation(50.0, -50.0) - 1.0) < 1e-9
    assert abs(separation(1.0, -1.0) - 0.4621171572600098) < 1e-12
    with pytest.raises(ValueError, match="finite"):
        separation(float("nan"), 0.0)


# -- pair scores --------------------------------------------------------------------

def test_pair_scores_normalized():
    y = np.array([[2.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    adj = SparseSym.from_edges(3, [(0, 1), (0, 2)])
    scores = pair_scores(y, adj, normalize=True, tau=1.0)
    assert np.allclose(sorted(scores), [0.0, 1.0], atol=1e-12)
    raw = pair_scores(y, adj, normalize=False)
    assert np.allclose(sorted(raw), [0.0, 8.0], atol=0)


def loop_pair_scores(y, graph, normalize, tau):
    """The per-edge loop pair_scores ran before it was vectorised."""
    y = np.asarray(y, dtype=np.float64)
    if normalize:
        norms = np.linalg.norm(y, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        y = tau * y / norms
    return np.array([float(y[i] @ y[j]) for i, j in graph.edge_list()])


@pytest.mark.parametrize("d", [3, 4, 8, 16, 64])
@pytest.mark.parametrize("normalize", [True, False])
def test_pair_scores_equal_edge_loop(d, normalize):
    # bit for bit: the diagnose outputs must not move when the loop is replaced
    n = 200
    y = rand_x(n, d, seed=d)
    er = NegSampleConfig(mode="erdos-renyi", p_prime=0.05, seed=d)
    for graph in (random_graph(n, 3, seed=d), sample_negative_graph(n, er, 0)):
        got = pair_scores(y, graph, normalize=normalize, tau=0.7)
        assert got.tobytes() == loop_pair_scores(y, graph, normalize, 0.7).tobytes()


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_pair_scores_refuse_a_non_finite_tau(tau):
    # 0 would turn every score into 0, and a negative tau mirror them
    with pytest.raises(ValueError, match=r"tau must be finite and > 0"):
        pair_scores(np.eye(3), SparseSym.from_edges(3, [(0, 1), (1, 2)]), tau=tau)


@pytest.mark.parametrize("normalize", [True, False])
def test_pair_scores_overflow_is_value_error(normalize):
    # normalized, the row norms overflow; raw, the dot products do
    y = np.array([[1e200, 0.0], [1e200, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="pair scores overflow"):
        pair_scores(y, SparseSym.from_edges(3, [(0, 1), (1, 2)]), normalize=normalize)


@pytest.mark.parametrize("call,message", [
    (lambda: wasserstein1([], [1.0]), "p is empty"),
    (lambda: silverman_bandwidth([1.0, np.nan]), "sample contains non-finite values"),
    (lambda: lipschitz_check([1.0, 2.0], [1.0], [0.5, 0.5]), "share one dimension"),
    (lambda: homophily(SparseSym.from_edges(3, [(0, 1)]), [0, 1]),
     "labels length must match node count"),
    (lambda: pair_scores(np.eye(3), SparseSym.from_edges(3, [])), "no off-diagonal edges"),
    (lambda: pair_scores(np.ones((10, 2)), SparseSym.from_edges(5, [(0, 1)])),
     "y has 10 rows, graph is 5x5"),
    (lambda: pair_scores(np.ones((3, 2)), SparseSym.from_edges(5, [(3, 4)])),
     "y has 3 rows, graph is 5x5"),
], ids=["empty-sample", "non-finite-sample", "lipschitz-shapes", "homophily-labels",
        "pair-scores-no-edges", "pair-scores-more-rows", "pair-scores-fewer-rows"])
def test_diagnostics_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
