import numpy as np
import pytest

from coles.graph_core import SparseSym, normalized_adjacency, spmm
from coles.rng import Xoshiro256StarStar
from coles.spectral_filters import FilterConfig, apply_filter
from helpers import rand_x, random_graph


def sgc(w, x, k_steps):
    return apply_filter(w, x, FilterConfig(kind="sgc", k_steps=k_steps))


def s2gc(w, x, k_steps, alpha):
    return apply_filter(w, x, FilterConfig(kind="s2gc", k_steps=k_steps, alpha=alpha))


def projector_w():
    """Degree-normalized 2-node pair: a rank-1 projector, so W @ W == W."""
    return normalized_adjacency(SparseSym.from_edges(2, [(0, 1)]))


def test_sgc_zero_steps_is_identity():
    w = projector_w()
    x = rand_x(2, 3, seed=1)
    out = apply_filter(w, x, FilterConfig(kind="identity"))
    assert np.array_equal(out, x) and out is not x


def test_sgc_one_step():
    w = projector_w()
    assert np.allclose(sgc(w, np.eye(2), 1), [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_sgc_projector_is_idempotent():
    w = projector_w()
    x = rand_x(2, 4, seed=2)
    one = sgc(w, x, 1)
    two = sgc(w, x, 2)
    assert np.max(np.abs(one - two)) < 1e-15


def test_s2gc_alpha_one_keeps_input():
    w = projector_w()
    x = rand_x(2, 3, seed=3)
    assert np.max(np.abs(s2gc(w, x, 4, alpha=1.0) - x)) < 1e-15


def test_s2gc_alpha_zero_one_step_equals_sgc():
    w = normalized_adjacency(random_graph(15, 2, seed=5))
    x = rand_x(15, 3, seed=6)
    assert np.array_equal(s2gc(w, x, 1, alpha=0.0), sgc(w, x, 1))


def test_s2gc_projector_collapses_sum():
    w = projector_w()
    x = rand_x(2, 3, seed=7)
    expected = 0.5 * x + 0.5 * spmm(w, x)
    assert np.max(np.abs(s2gc(w, x, 2, alpha=0.5) - expected)) < 1e-12


def test_filters_linear_in_x():
    w = normalized_adjacency(random_graph(20, 2, seed=8))
    a = rand_x(20, 3, seed=9)
    b = rand_x(20, 3, seed=10)
    for f in (lambda x: sgc(w, x, 3), lambda x: s2gc(w, x, 3, 0.2)):
        assert np.max(np.abs(f(a + b) - (f(a) + f(b)))) < 1e-12


def test_sgc_converges_to_dominant_eigenvector():
    w = normalized_adjacency(random_graph(50, 3, seed=13))
    # positive starting column guarantees overlap with the Perron direction
    x = np.array(Xoshiro256StarStar(14).normals(50)).reshape(50, 1) ** 2 + 0.1
    out = sgc(w, x, 32)[:, 0]
    vals, vecs = np.linalg.eigh(w.toarray())
    dominant = vecs[:, np.argmax(vals)]
    cos = abs(out @ dominant) / (np.linalg.norm(out) * np.linalg.norm(dominant))
    assert cos > 0.999


def test_apply_filter_dispatch():
    w = projector_w()
    x = rand_x(2, 2, seed=15)
    assert np.array_equal(apply_filter(w, x, FilterConfig(kind="identity")), x)
    one = spmm(w, x)
    two = spmm(w, one)
    assert np.array_equal(apply_filter(w, x, FilterConfig(kind="sgc", k_steps=2)), two)
    assert np.array_equal(apply_filter(w, x, FilterConfig(kind="s2gc", k_steps=2, alpha=0.3)),
                          0.3 * x + (0.7 / 2) * (one + two))


def test_filter_config_validation():
    with pytest.raises(ValueError, match="kind"):
        FilterConfig(kind="mystery")
    with pytest.raises(ValueError, match="k_steps"):
        FilterConfig(kind="sgc", k_steps=0)
    with pytest.raises(ValueError, match="alpha"):
        FilterConfig(kind="s2gc", alpha=1.5)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sgc(projector_w(), np.ones((3, 2)), 1)


@pytest.mark.parametrize("k_steps", [1, 3])
def test_filters_refuse_overflow(k_steps):
    # the hub row of a star's normalized adjacency sums to 1/5 + 4/sqrt(10) > 1
    w = normalized_adjacency(SparseSym.from_edges(5, [(0, j) for j in range(1, 5)]))
    x = np.full((5, 2), 1.7e308)
    with pytest.raises(ValueError, match="filtered features overflow"):
        sgc(w, x, k_steps)
    with pytest.raises(ValueError, match="filtered features overflow"):
        s2gc(w, x, k_steps, 0.05)
