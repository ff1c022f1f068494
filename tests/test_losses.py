import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coles.coles_solver import coles_objective
from coles.graph_core import normalized_adjacency
from coles.losses import (ContrastiveBatch, align_uniform, block_form,
                          coles_pointwise, generalized_mean, log_sigmoid,
                          sampled_nce_sigmoid)
from coles.negative_sampling import NegSampleConfig, build_delta_w, sample_negative_graph
from coles.rng import Xoshiro256StarStar
from helpers import ScalarXoshiro, rand_x, random_graph

# frozen via the stable log-sigmoid -log(1+exp(-x)) evaluated independently
LOG_SIG_0 = -0.6931471805599453
LOG_SIG_1 = -0.31326168751822286
LOG_SIG_NEG1 = -1.3132616875182228


def batch(v, pos=(), neg=(), eta=1.0):
    return ContrastiveBatch(anchor=np.array(v, dtype=float),
                            positives=[np.array(u, dtype=float) for u in pos],
                            negatives=[np.array(u, dtype=float) for u in neg],
                            eta=eta)


# -- sampled NCE ----------------------------------------------------------------

def test_nce_orthogonal_positive():
    b = batch((1.0, 0.0), pos=[(0.0, 1.0)], eta=0.0)
    assert abs(sampled_nce_sigmoid(b) - LOG_SIG_0) < 1e-12


def test_nce_aligned_positive():
    b = batch((1.0, 0.0), pos=[(1.0, 0.0)], eta=0.0)
    assert abs(sampled_nce_sigmoid(b) - LOG_SIG_1) < 1e-12


def test_nce_single_negative():
    b = batch((1.0, 0.0), neg=[(1.0, 0.0)], eta=1.0)
    assert abs(sampled_nce_sigmoid(b) - LOG_SIG_NEG1) < 1e-12


def test_nce_stable_for_extreme_scores():
    b = batch((1.0,), pos=[(800.0,)], neg=[(900.0,)], eta=1.0)
    val = sampled_nce_sigmoid(b)
    assert math.isfinite(val)
    assert abs(val - (0.0 + 1.0 * (-900.0))) < 1e-9  # log sigma(-900) ~ -900


def test_log_sigmoid_matches_naive_in_safe_range():
    for x in np.linspace(-30, 30, 61):
        assert abs(log_sigmoid(x) - math.log(1.0 / (1.0 + math.exp(-x)))) < 1e-12


def test_log_sigmoid_is_a_drop_in_for_log_expit():
    from scipy.special import log_expit

    import coles
    assert coles.log_sigmoid is log_sigmoid
    edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308]
    normals = np.random.default_rng(3).standard_normal(1000)
    cases = edges + [np.array(edges), normals, normals.reshape(40, 25),
                     normals.astype(np.float32)]
    for x in cases:
        got, want = log_sigmoid(x), log_expit(x)
        assert type(got) is type(want)
        assert (np.shape(got), np.asarray(got).dtype) == (np.shape(want), np.asarray(want).dtype)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# -- pointwise ---------------------------------------------------------------------

def test_pointwise_trivial_cases():
    assert coles_pointwise(batch((1.0, 0.0), pos=[(1.0, 0.0)])) == 1.0
    assert coles_pointwise(batch((1.0, 0.0), neg=[(1.0, 0.0)], eta=1.0)) == -1.0
    b = batch((1.0, 0.0), pos=[(1.0, 0.0)], neg=[(0.0, 1.0)], eta=1.0)
    assert coles_pointwise(b) == 1.0


def test_pointwise_linear_in_anchor():
    rng = Xoshiro256StarStar(1)
    pos = [np.array(rng.normals(4)) for _ in range(3)]
    neg = [np.array(rng.normals(4)) for _ in range(2)]
    v1 = np.array(rng.normals(4))
    v2 = np.array(rng.normals(4))
    b1 = ContrastiveBatch(v1, pos, neg, eta=0.7)
    b2 = ContrastiveBatch(v2, pos, neg, eta=0.7)
    b12 = ContrastiveBatch(v1 + v2, pos, neg, eta=0.7)
    assert abs(coles_pointwise(b12) - coles_pointwise(b1) - coles_pointwise(b2)) < 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="anchor dim"):
        batch((1.0, 0.0), pos=[(1.0, 0.0, 0.0)])


@pytest.mark.parametrize("call,message", [
    (lambda: batch((1.0, 0.0), pos=[(1.0, 0.0)], eta=-0.5), "eta must be >= 0"),
    (lambda: align_uniform(batch((1.0, 0.0), neg=[(0.0, 1.0)]), 1.0), "exactly one positive"),
    (lambda: align_uniform(batch((1.0, 0.0), pos=[(1.0, 0.0)]), 1.0), "at least one negative"),
    (lambda: align_uniform(batch((1.0, 0.0), pos=[(1.0, 0.0)], neg=[(0.0, 1.0)]), 1.0, tau=0.0),
     "tau must be > 0"),
], ids=["negative-eta", "no-positive", "no-negative", "zero-tau"])
def test_batch_and_align_uniform_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- block form ---------------------------------------------------------------------

def test_block_form_hand_example():
    b = batch((1.0, 0.0), pos=[(1.0, 0.0), (0.0, 1.0)], neg=[(1.0, 0.0)])
    out = block_form(b)
    assert np.allclose(out.mu_plus, [0.5, 0.5], atol=0)
    assert np.allclose(out.mu_minus, [1.0, 0.0], atol=0)
    assert abs(out.loss - 0.5) < 1e-15


def test_block_form_identical_blocks():
    same = [(0.3, -0.2), (1.0, 2.0)]
    assert abs(block_form(batch((0.5, 0.5), pos=same, neg=same)).loss) < 1e-15


def test_block_form_equals_negated_pointwise():
    rng = Xoshiro256StarStar(3)
    b = ContrastiveBatch(np.array(rng.normals(5)),
                         [np.array(rng.normals(5)) for _ in range(4)],
                         [np.array(rng.normals(5)) for _ in range(3)],
                         eta=1.0)
    assert abs(block_form(b).loss + coles_pointwise(b)) < 1e-12


def test_block_form_requires_both_blocks():
    with pytest.raises(ValueError, match="non-empty"):
        block_form(batch((1.0,), pos=[(1.0,)]))


def test_block_losses_sum_to_negated_trace():
    """Anchor-summed block losses with weight-scaled neighborhoods equal
    -trace(Y^T delta_w Y); cross-checked with an explicit double loop."""
    n, d_prime = 12, 3
    w_pos = normalized_adjacency(random_graph(n, 2, seed=8))
    neg = sample_negative_graph(n, NegSampleConfig(kappa=1, per_node=2, seed=99), 0)
    delta = build_delta_w(w_pos, [neg], eta_prime=1.0)
    y = rand_x(n, d_prime, seed=17)

    wp = w_pos.toarray()
    wn = neg.toarray()
    total = 0.0
    for v in range(n):
        pos_vecs = [n * wp[u, v] * y[u] for u in range(n)]
        neg_vecs = [n * wn[u, v] * y[u] for u in range(n)]
        total += block_form(ContrastiveBatch(y[v], pos_vecs, neg_vecs)).loss

    dense = delta.toarray()
    oracle = -sum(dense[i, j] * float(y[i] @ y[j]) for i in range(n) for j in range(n))
    assert abs(total - oracle) < 1e-9


@settings(max_examples=40)
@given(n=st.integers(6, 24), d_prime=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kappa=st.integers(1, 4), eta_prime=st.floats(0.0, 1.0),
       mode=st.sampled_from(["per-node-k", "erdos-renyi"]))
def test_trace_form_equals_block_form(n, d_prime, seed, kappa, eta_prime, mode):
    """Criterion 1 over random instances: anchor-summed block losses equal
    -trace(Y^T delta_w Y) for kappa negative graphs of either mode and any eta'.

    Each anchor's block means hold n weight-scaled positives and n * kappa
    negatives scaled by n * eta', so mu_minus is (eta'/kappa) sum_k W_k y.
    Tolerance: 1e-12 of the objective's magnitude, the sum over (u, v) of
    |delta_w[u, v] * y_u . y_v|; the objective itself can cancel to near 0.
    """
    w_pos = normalized_adjacency(random_graph(n, 1, seed=seed))
    cfg = NegSampleConfig(kappa=kappa, per_node=1, mode=mode, p_prime=0.3,
                          eta_prime=eta_prime, seed=seed)
    negs = [sample_negative_graph(n, cfg, k) for k in range(kappa)]
    delta = build_delta_w(w_pos, negs, eta_prime)
    y = rand_x(n, d_prime, seed=seed + 1)

    wp = w_pos.toarray()
    wns = [neg.toarray() for neg in negs]
    total = 0.0
    for v in range(n):
        pos_vecs = [n * wp[u, v] * y[u] for u in range(n)]
        neg_vecs = [n * eta_prime * wn[u, v] * y[u] for wn in wns for u in range(n)]
        total += block_form(ContrastiveBatch(y[v], pos_vecs, neg_vecs)).loss

    magnitude = float(np.sum(np.abs(delta.toarray() * (y @ y.T))))
    assert abs(total + coles_objective(y, delta)) <= 1e-12 * magnitude


# -- generalized mean ----------------------------------------------------------------

def test_mean_arithmetic():
    assert generalized_mean([1.0, 3.0], 1.0) == 2.0


def test_mean_geometric():
    assert abs(generalized_mean([1.0, 4.0], 0.0) - 2.0) < 1e-12


def test_mean_harmonic_equal_inputs():
    assert abs(generalized_mean([2.0, 2.0], -1.0) - 2.0) < 1e-12


def test_mean_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        generalized_mean([], 1.0)
    with pytest.raises(ValueError, match="positive"):
        generalized_mean([1.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="positive"):
        generalized_mean([1.0, -2.0], -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        generalized_mean([1.0, -2.0], 2.0)
    with pytest.raises(ValueError, match="non-finite"):
        generalized_mean([1.0, np.inf], 1.0)


def test_power_mean_monotone_in_p():
    rng = ScalarXoshiro(10)
    for _ in range(300):
        vals = [0.01 + 10.0 * rng.random() for _ in range(2 + rng.below(6))]
        ms = [generalized_mean(vals, p) for p in (-1.0, 0.0, 1.0, 2.0)]
        for lo, hi in zip(ms, ms[1:]):
            assert lo <= hi + 1e-12
    const = [3.5] * 4
    ms = [generalized_mean(const, p) for p in (-1.0, 0.0, 1.0, 2.0)]
    assert max(ms) - min(ms) < 1e-12


# -- alignment / uniformity -------------------------------------------------------------

def test_uniformity_geometric_mean_of_ones():
    b = batch((1.0, 0.0), pos=[(0.5, 0.5)], neg=[(0.0, 1.0), (0.0, -1.0)])
    out = align_uniform(b, p=0.0, normalize=False)
    assert out.l_uniform == 0.0  # all negative scores are 0


def test_softmax_mode_log2():
    b = batch((1.0, 0.0), pos=[(0.0, 1.0)], neg=[(0.0, -1.0)])
    out = align_uniform(b, p=1.0, softmax=True, normalize=False)
    assert abs(out.total - math.log(2.0)) < 1e-12


def test_geometric_total_with_aligned_positive():
    b = batch((1.0, 0.0), pos=[(1.0, 0.0)], neg=[(0.0, 1.0), (0.0, -1.0)])
    out = align_uniform(b, p=0.0, normalize=False)
    assert abs(out.l_align + 1.0) < 1e-12
    assert abs(out.l_uniform) < 1e-12
    assert abs(out.total + 1.0) < 1e-12


def test_p0_identity_log_geo_mean_is_mean_score():
    rng = Xoshiro256StarStar(4)
    scores = np.array(rng.normals(9)) * 3.0
    b = ContrastiveBatch(np.array([1.0]), [np.array([0.2])],
                         [np.array([s]) for s in scores])
    out = align_uniform(b, p=0.0, normalize=False)
    assert abs(out.l_uniform - float(np.mean(scores))) < 1e-12


def test_softmax_mode_requires_p1():
    b = batch((1.0,), pos=[(1.0,)], neg=[(0.0,)])
    with pytest.raises(ValueError, match="p=1"):
        align_uniform(b, p=0.0, softmax=True)


def test_normalization_rescales_to_tau():
    b = batch((2.0, 0.0), pos=[(0.0, 5.0)], neg=[(3.0, 0.0)])
    out = align_uniform(b, p=0.0, normalize=True, tau=1.0)
    assert abs(out.l_align) < 1e-12       # orthogonal after rescaling
    assert abs(out.l_uniform - 1.0) < 1e-12  # aligned negative: score tau^2 = 1


def test_uniformity_overflow_guarded():
    b = batch((1.0,), pos=[(0.5,)], neg=[(800.0,), (900.0,)])
    out = align_uniform(b, p=1.0, normalize=False)
    assert math.isfinite(out.l_uniform)
    assert abs(out.l_uniform - (900.0 + math.log(0.5 * (1 + math.exp(-100))))) < 1e-9
