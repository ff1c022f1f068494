import numpy as np
import pytest

from coles.diagnostics import expected_negative_homophily, homophily
from coles.graph_core import SparseSym
from coles.synthetic import SbmSpec, generate_sbm, simplex_means
from helpers import ScalarXoshiro, bulk_everywhere, loop_normals, sparse_equal


def _loop_sbm(spec):
    """generate_sbm as a scalar double loop over pairs, then scalar Box-Muller."""
    n = spec.n_classes * spec.per_block
    labels = np.repeat(np.arange(spec.n_classes), spec.per_block)
    rng = ScalarXoshiro(spec.seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = spec.p_in if labels[i] == labels[j] else spec.p_out
            if rng.random() < p:
                edges.append((i, j))
    adjacency = SparseSym.from_edges(n, edges)
    means = simplex_means(spec.n_classes, spec.feature_dim, spec.mean_sep)
    noise = np.array(loop_normals(rng, n * spec.feature_dim)).reshape(n, spec.feature_dim)
    return adjacency, means[labels] + spec.noise_sigma * noise


SMALL_SPECS = [
    SbmSpec(n_classes=3, per_block=30, p_in=0.3, p_out=0.05, feature_dim=7, seed=5),
    SbmSpec(n_classes=2, per_block=12, p_in=1.0, p_out=0.0, feature_dim=3, seed=6),
    SbmSpec(n_classes=4, per_block=2, p_in=0.5, p_out=0.2, feature_dim=5, seed=7),
    SbmSpec(n_classes=1, per_block=2, p_in=0.0, p_out=0.0, feature_dim=1, seed=8),
]
# large enough for bulk draws and two pair blocks at the library's own settings
LARGE_SPEC = SbmSpec(n_classes=3, per_block=200, p_in=0.05, p_out=0.005, feature_dim=16, seed=9)


@pytest.mark.parametrize("spec, bulk", [(s, b) for s in SMALL_SPECS for b in (False, True)]
                         + [(LARGE_SPEC, False)])
def test_generate_sbm_matches_loops(spec, bulk):
    adjacency, features = _loop_sbm(spec)
    with bulk_everywhere(bulk):
        g = generate_sbm(spec)
    assert sparse_equal(g.adjacency, adjacency)
    assert np.array_equal(g.features, features)


def test_no_cross_edges_when_p_out_zero():
    g = generate_sbm(SbmSpec(n_classes=2, per_block=20, p_in=0.3, p_out=0.0, seed=3))
    for u, v in g.adjacency.edge_list():
        assert g.labels[u] == g.labels[v]


def test_disjoint_cliques_full_homophily():
    g = generate_sbm(SbmSpec(n_classes=2, per_block=10, p_in=1.0, p_out=0.0, seed=0))
    dense = g.adjacency.toarray()
    for b in range(2):
        block = dense[b * 10:(b + 1) * 10, b * 10:(b + 1) * 10]
        assert np.array_equal(block, np.ones((10, 10)) - np.eye(10))
    assert homophily(g.adjacency, g.labels) == 1.0


def test_generation_deterministic():
    spec = SbmSpec(n_classes=3, per_block=15, p_in=0.2, p_out=0.02, seed=11)
    a = generate_sbm(spec)
    b = generate_sbm(spec)
    assert sparse_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_labels_are_block_ids():
    g = generate_sbm(SbmSpec(n_classes=3, per_block=4, seed=0))
    assert np.array_equal(g.labels, np.repeat([0, 1, 2], 4))


def test_simplex_means_equidistant():
    means = simplex_means(4, 9, sep=2.5)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(means[i] - means[j]) - 2.5) < 1e-12


def test_feature_noise_scale():
    spec = SbmSpec(n_classes=2, per_block=400, feature_dim=8, mean_sep=0.0,
                   noise_sigma=1.7, seed=5)
    g = generate_sbm(spec)
    assert abs(np.std(g.features) - 1.7) < 0.05


def test_within_block_edge_count_near_binomial_mean():
    per_block, p_in = 60, 0.15
    spec = SbmSpec(n_classes=2, per_block=per_block, p_in=p_in, p_out=0.0, seed=21)
    g = generate_sbm(spec)
    n_pairs = 2 * per_block * (per_block - 1) // 2
    count = len(g.adjacency.edge_list())
    sd = np.sqrt(n_pairs * p_in * (1 - p_in))
    assert abs(count - n_pairs * p_in) < 4 * sd


def test_homophily_above_negative_baseline():
    for seed in range(20):
        spec = SbmSpec(n_classes=3, per_block=100, p_in=0.1, p_out=0.01, seed=seed)
        g = generate_sbm(spec)
        h = homophily(g.adjacency, g.labels)
        assert h > expected_negative_homophily(np.full(3, 1.0 / 3.0))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="p_out"):
        SbmSpec(p_in=0.1, p_out=0.5)
    with pytest.raises(ValueError, match="per_block"):
        SbmSpec(per_block=1)
    with pytest.raises(ValueError, match="simplex"):
        SbmSpec(n_classes=5, feature_dim=3)
