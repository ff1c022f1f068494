"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 7 needs a local Planetoid copy of Cora (see README) and
skips when the files are absent.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from coles import (ColesConfig, ContrastiveBatch, FilterConfig, NegSampleConfig,
                   SbmSpec, SplitSpec, block_form, build_delta_w, coles_objective,
                   expected_negative_homophily, generalized_mean, generate_sbm,
                   homophily, js_divergence, kmeans, logreg_fit, logreg_predict,
                   random_splits, sample_negative_graph, score, solve_linear_coles,
                   sym_eig, wasserstein1)
from coles.cli import main as cli_main
from coles.graph_core import SparseSym, normalized_adjacency
from coles.planetoid import is_available, load_planetoid
from coles.rng import Xoshiro256StarStar
from helpers import ScalarXoshiro, rand_x, random_graph, sparse_equal, stream_key

LOG2 = math.log(2.0)


def report(cid, name, ok, detail=""):
    print(f"\n[acceptance] criterion {cid} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid} ({name}): {detail}"


# -- 1: block-contrastive equivalence -------------------------------------------

def test_c1_block_contrastive_equivalence():
    t0 = time.perf_counter()
    n, d_prime = 20, 4
    worst = 0.0
    for inst in range(20):
        w_pos = normalized_adjacency(random_graph(n, 2, seed=inst))
        neg = sample_negative_graph(n, NegSampleConfig(kappa=1, per_node=3,
                                                       seed=1000 + inst), 0)
        delta = build_delta_w(w_pos, [neg], eta_prime=1.0)
        y = rand_x(n, d_prime, seed=2000 + inst)

        wp = w_pos.toarray()
        wn = neg.toarray()
        total = 0.0
        for v in range(n):
            # weight-scaled neighborhoods: the block mean reproduces the
            # delta_w-weighted sum over neighbors
            pos_vecs = [n * wp[u, v] * y[u] for u in range(n)]
            neg_vecs = [n * wn[u, v] * y[u] for u in range(n)]
            total += block_form(ContrastiveBatch(y[v], pos_vecs, neg_vecs)).loss
        worst = max(worst, abs(total - (-coles_objective(y, delta))))
    elapsed = time.perf_counter() - t0
    report(1, "block-contrastive equivalence",
           worst < 1e-9 and elapsed < 1.0,
           f"max |sum block losses + trace| = {worst:.2e}, {elapsed:.2f}s")


# -- 2: eigensolver oracle --------------------------------------------------------

def test_c2_eigensolver_oracle():
    t0 = time.perf_counter()
    size_rng = ScalarXoshiro(4242)
    worst_recon = worst_orth = 0.0
    for inst in range(100):
        n = 2 + size_rng.below(63)
        b = rand_x(n, n, seed=3000 + inst)
        m = 0.5 * (b + b.T)
        eig = sym_eig(m)
        scale = max(np.linalg.norm(m), 1e-300)
        recon = np.linalg.norm(eig.vectors @ np.diag(eig.values) @ eig.vectors.T - m) / scale
        orth = np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n))
        worst_recon = max(worst_recon, recon)
        worst_orth = max(worst_orth, orth)

    # Rayleigh maximality on a fixed instance vs 1,000 random projections
    b = rand_x(20, 20, seed=5005)
    m = 0.5 * (b + b.T)
    objective = float(np.sum(sym_eig(m).values[:5]))
    proj_rng = Xoshiro256StarStar(6006)
    rayleigh_ok = True
    for _ in range(1000):
        g = np.array(proj_rng.normals(20 * 5)).reshape(20, 5)
        q, _ = np.linalg.qr(g)
        if float(np.trace(q.T @ m @ q)) > objective + 1e-9:
            rayleigh_ok = False
            break
    elapsed = time.perf_counter() - t0
    report(2, "eigensolver oracle",
           worst_recon < 1e-8 and worst_orth < 1e-8 and rayleigh_ok and elapsed < 30.0,
           f"recon {worst_recon:.2e}, orth {worst_orth:.2e}, "
           f"rayleigh {'ok' if rayleigh_ok else 'violated'}, {elapsed:.1f}s")


# -- 3: power-mean ordering ---------------------------------------------------------

def test_c3_power_mean_ordering():
    t0 = time.perf_counter()
    rng = ScalarXoshiro(7007)
    ordered = True
    for _ in range(1000):
        vals = [0.01 + 10.0 * rng.random() for _ in range(2 + rng.below(7))]
        ms = [generalized_mean(vals, p) for p in (-1.0, 0.0, 1.0, 2.0)]
        if not all(lo <= hi + 1e-12 for lo, hi in zip(ms, ms[1:])):
            ordered = False
            break
    const = [generalized_mean([2.75] * 5, p) for p in (-1.0, 0.0, 1.0, 2.0)]
    equal_on_const = max(const) - min(const) < 1e-12

    identity_ok = True
    for _ in range(100):
        scores = np.array(rng.normals(1 + rng.below(12))) * 4.0
        lhs = math.log(generalized_mean(np.exp(scores), 0.0))
        if abs(lhs - float(np.mean(scores))) > 1e-12:
            identity_ok = False
            break
    elapsed = time.perf_counter() - t0
    report(3, "power-mean ordering",
           ordered and equal_on_const and identity_ok and elapsed < 1.0,
           f"ordering {ordered}, const-equality {equal_on_const}, "
           f"log-geo-mean identity {identity_ok}, {elapsed:.2f}s")


# -- 4: JS plateau vs W1 growth --------------------------------------------------------

def test_c4_js_plateau_w1_growth():
    t0 = time.perf_counter()
    rng = Xoshiro256StarStar(8008)
    base_p = np.array(rng.normals(1000))
    base_q = np.array(rng.normals(1000))
    w1_ok = js_ok = True
    details = []
    for gap in range(11):
        w1 = wasserstein1(base_p, base_q + gap)
        js = js_divergence(base_p, base_q + gap)
        details.append((gap, round(w1, 3), round(js, 4)))
        if gap >= 2 and abs(w1 - gap) > 0.1 * gap:
            w1_ok = False
        if gap >= 6 and abs(js - LOG2) > 0.05:
            js_ok = False
    elapsed = time.perf_counter() - t0
    report(4, "JS plateau vs W1 growth", w1_ok and js_ok and elapsed < 10.0,
           f"w1 tracks gap: {w1_ok}, js saturates at log2: {js_ok}, {elapsed:.1f}s")


# -- 5 & 6: SBM kappa ablation and clustering recovery ----------------------------------

SBM_ACCEPTANCE = dict(n_classes=3, per_block=100, p_in=0.1, p_out=0.01,
                      feature_dim=16, mean_sep=1.0, noise_sigma=2.0)


def _sbm_run(seed, kappa, d_prime=2):
    g = generate_sbm(SbmSpec(seed=seed, **SBM_ACCEPTANCE))
    cfg = ColesConfig(
        d_prime=d_prime,
        filter=FilterConfig(kind="s2gc", k_steps=8, alpha=0.05),
        negatives=NegSampleConfig(kappa=kappa, per_node=5,
                                  eta_prime=1.0 if kappa else 0.0, seed=seed))
    res = solve_linear_coles(g.features, g.adjacency, cfg)
    return g, res


def _sbm_metrics(seeds=range(10)):
    accs = {0: [], 1: []}
    nmis = {0: [], 1: []}
    for seed in seeds:
        for kappa in (0, 1):
            g, res = _sbm_run(seed, kappa)
            # one split, one fit and one k-means run: stacks of one
            train, _val, test = random_splits(
                g.labels, SplitSpec(per_class=5, val_size=50, seed=stream_key(seed, 1)), 1)
            w = logreg_fit(res.Y[train], g.labels[train])
            acc = float(np.mean(logreg_predict(w, res.Y[test]) == g.labels[test]))
            accs[kappa].append(acc)
            (assign,) = kmeans(res.Y, 3, [stream_key(seed, 2)])
            nmis[kappa].append(score(assign, g.labels, mode="clustering").nmi)
    return accs, nmis


@pytest.fixture(scope="module")
def sbm_metrics():
    return _sbm_metrics()


def test_c5_kappa_ablation_direction(sbm_metrics):
    t0 = time.perf_counter()
    accs, _ = sbm_metrics
    mean0 = float(np.mean(accs[0]))
    mean1 = float(np.mean(accs[1]))
    elapsed = time.perf_counter() - t0
    report(5, "kappa ablation direction",
           mean1 > mean0 and (mean1 - mean0) >= 0.02 and elapsed < 120.0,
           f"acc kappa=0: {100 * mean0:.2f}%, kappa=1: {100 * mean1:.2f}% "
           f"(+{100 * (mean1 - mean0):.2f} points)")


def test_c6_clustering_recovery(sbm_metrics):
    t0 = time.perf_counter()
    _, nmis = sbm_metrics
    mean0 = float(np.mean(nmis[0]))
    mean1 = float(np.mean(nmis[1]))
    elapsed = time.perf_counter() - t0
    report(6, "clustering recovery",
           mean1 >= 0.7 and mean1 >= mean0 and elapsed < 120.0,
           f"nmi kappa=1: {mean1:.4f} (baseline kappa=0: {mean0:.4f})")


# -- 7: conditional Cora reproduction ------------------------------------------------

def planetoid_root():
    return os.environ.get("COLES_PLANETOID_DIR",
                          os.path.join(os.path.dirname(__file__), "..", "data", "planetoid"))


def test_c7_cora_reproduction_conditional():
    root = planetoid_root()
    if not is_available(root, "cora"):
        pytest.skip(f"planetoid cora files not present under {root}")
    g = load_planetoid(root, "cora")
    d = g.features.shape[1]
    cfg = ColesConfig(
        d_prime=min(512, d),
        filter=FilterConfig(kind="s2gc", k_steps=8, alpha=0.05),
        negatives=NegSampleConfig(kappa=10, per_node=5, eta_prime=1.0, seed=0))
    t0 = time.perf_counter()
    res = solve_linear_coles(g.features, g.adjacency, cfg)
    embed_time = time.perf_counter() - t0
    accs = []
    for s in range(50):
        train, _val, test = random_splits(
            g.labels, SplitSpec(per_class=20, val_size=500, seed=stream_key(0, s)), 1)
        w = logreg_fit(res.Y[train], g.labels[train])
        accs.append(float(np.mean(logreg_predict(w, res.Y[test]) == g.labels[test])))
    mean_acc = float(np.mean(accs))
    report(7, "Cora reproduction",
           mean_acc >= 0.79 and embed_time <= 10.0,
           f"mean acc {100 * mean_acc:.2f}% over 50 splits, embed {embed_time:.1f}s")


# -- 8: determinism --------------------------------------------------------------------

def test_c8_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--classes", "3", "--per-block", "10",
                     "--p-in", "0.4", "--p-out", "0.05", "--feat-dim", "5",
                     "--seed", "7"]) == 0
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["embed", "--edges", str(data / "edges.txt"),
                         "--features", str(data / "features.csv"), "--out", str(out),
                         "--dim", "2", "--kappa", "2", "--per-node", "2",
                         "--k-steps", "2", "--seed", "11", "--write-csv"]) == 0
        outs.append(out)
    clsm_same = (outs[0] / "embeddings.clsm").read_bytes() == (outs[1] / "embeddings.clsm").read_bytes()
    csv_same = (outs[0] / "embeddings.csv").read_bytes() == (outs[1] / "embeddings.csv").read_bytes()

    cfg = NegSampleConfig(kappa=3, per_node=4, seed=123)
    graphs_same = all(
        sparse_equal(sample_negative_graph(40, cfg, k), sample_negative_graph(40, cfg, k))
        for k in range(3))
    elapsed = time.perf_counter() - t0
    report(8, "determinism", clsm_same and csv_same and graphs_same and elapsed < 5.0,
           f"clsm {clsm_same}, csv {csv_same}, negative graphs {graphs_same}, {elapsed:.1f}s")


# -- 9: homophily fixtures ----------------------------------------------------------------

def test_c9_homophily_fixtures():
    t0 = time.perf_counter()

    def clique(nodes):
        nodes = list(nodes)
        return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]

    two_cliques = SparseSym.from_edges(8, clique(range(4)) + clique(range(4, 8)))
    same_label = np.array([0] * 4 + [1] * 4)
    h_cliques = homophily(two_cliques, same_label)

    bridge = SparseSym.from_edges(2, [(0, 1)])
    h_bridge = homophily(bridge, np.array([0, 1]))

    adj = random_graph(200, 3, seed=9009)
    rng = ScalarXoshiro(9010)
    c = 4  # dyadic class count so the 1/C exactness claim is float-exact
    labels = np.array([rng.below(c) for _ in range(200)])
    h_random = homophily(adj, labels)

    h_neg_uniform = expected_negative_homophily(np.full(c, 1.0 / c))
    elapsed = time.perf_counter() - t0
    ok = (h_cliques == 1.0 and h_bridge == 0.0
          and abs(h_random - 1.0 / c) < 0.1
          and h_neg_uniform == 1.0 / c
          and elapsed < 1.0)
    report(9, "homophily fixtures", ok,
           f"cliques {h_cliques}, bridge {h_bridge}, random {h_random:.3f} "
           f"(target {1.0 / c}), uniform-negative {h_neg_uniform}")
