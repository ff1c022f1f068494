"""Golden digests of the library's random streams and diagnose's numbers at fixed seeds.

The SHA-256 pins were computed with the scalar draw loops, before draws were
batched. Any change to what a seed produces (SBM edges and features,
negative graphs, splits) fails here and has to be made deliberately. The
sizes are large enough that every draw runs through the bulk paths. A draw
steps 512-output lanes from 32,768 words per stream (rng.draw_u64s' lane
rule), a smaller one 64-output lanes: the SBM pair draw (101k words)
and the split draw (60k) take long lanes; the SBM features (18k), the
per-node-k pool (9k) and its shortfall draw, the Erdos-Renyi chunks (4-5k)
and the k-means blobs take short ones, and the k-means++ seeds fit in one
lane. The diagnose pin was computed with the full grid x sample kernel matrix, before
the Parzen kernel was evaluated in blocks; its samples span several blocks.
The two pins that hold an Erdos-Renyi graph were computed again with the
scalar geometric-skip walk when that graph stopped taking one draw per pair.
The k-means pins were computed with the per-restart Lloyd loop, before the
restarts were batched; their shapes are those of the benchmark workloads'
embeddings. They hash assignments, which do not see the order in which a
centroid's rows are summed, so the centroid pins, computed later with the
batched loop, hash every restart's final centroids as well.
"""

import hashlib

import numpy as np

from coles.diagnostics import js_divergence, pair_scores, score_densities, wasserstein1
from coles import evaluation
from coles.evaluation import SplitSpec, kmeans, random_splits
from coles.negative_sampling import NegSampleConfig, sample_negative_graph
from coles.rng import Xoshiro256StarStar, streams
from coles.synthetic import SbmSpec, generate_sbm


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update((a.astype("<i8") if a.dtype.kind in "iu" else a.astype("<f8")).tobytes())
    return h.hexdigest()


def csr_digest(w):
    return digest(w.indptr, w.indices, w.data)


def test_generate_sbm_digest():
    g = generate_sbm(SbmSpec(n_classes=3, per_block=150, p_in=0.2, p_out=0.02,
                             feature_dim=40, seed=1234))
    assert digest(g.adjacency.edge_list()) == (
        "5bff910236e7ff17d6487d627b2b0114536d6377cba1110c25201e276982d366")
    assert digest(g.features) == (
        "ef32361910d450bd1ea4deb95fcad4adebaaa055dfded190cdb498582727e296")


def test_per_node_k_graph_digest():
    w = sample_negative_graph(900, NegSampleConfig(kappa=2, per_node=10, seed=99), 1)
    assert csr_digest(w) == "15c0a785db10eb1a42ea086d9d6f659bfef510886d4417b2b05f66d0a00bac6c"


def test_erdos_renyi_graph_digest():
    cfg = NegSampleConfig(kappa=2, mode="erdos-renyi", p_prime=0.01, seed=99)
    w = sample_negative_graph(900, cfg, 1)
    assert csr_digest(w) == "21880834164702dea5b1885a37443c9914baad2c187201d9c2a6a0c3165da78c"


def test_random_split_digest():
    spec = SplitSpec(per_class=20, val_size=500, seed=5)
    (train,), (val,), (test,) = random_splits(np.arange(30000) % 3, spec, 1)
    assert digest(train, val, test) == (
        "7681e054a79a06f37f4c1bcd8da95cdc13b7918ad94c35e5ff6e946ba95a21f7")


def test_diagnose_numbers_digest():
    g = generate_sbm(SbmSpec(n_classes=3, per_block=150, p_in=0.2, p_out=0.02,
                             feature_dim=40, seed=1234))
    negative = sample_negative_graph(450, NegSampleConfig(kappa=2, mode="erdos-renyi",
                                                          p_prime=0.05, seed=99), 0)
    pos = pair_scores(g.features, g.adjacency)
    neg = pair_scores(g.features, negative)
    assert (pos.size, neg.size) == (7955, 5152)  # 8 and 12 grid rows per kernel block
    dens = score_densities(pos, neg)
    assert digest(*dens, [js_divergence(pos, neg), wasserstein1(pos, neg)]) == (
        "311ee95558dae9121f0ecd18e8d3183a107ec323c10753a9335b441660016b39")


def _blobs(n, d, k, seed):
    """k overlapping unit-normal blobs, their means two apart along axis 0."""
    y = np.array(Xoshiro256StarStar(seed).normals(n * d)).reshape(n, d)
    y[:, 0] += 2.0 * (np.arange(n) % k)
    return y


def test_kmeans_digest_er_negatives_shape():
    y = _blobs(1000, 8, 2, 31)
    assert digest(*kmeans(y, 2, range(10))) == (
        "9c0e456204e233e269de2a0400c8902069e6904074d16060997dda186c0610e0")


def test_kmeans_digest_wide_features_shape():
    y = _blobs(600, 16, 3, 32)
    assert digest(*kmeans(y, 3, range(10))) == (
        "2f8bd35927b177a629408675ae0ba9ac8bb12216375402b58c2b48fcda22d969")


def _restart_centroids(y, k, seeds):
    """The final centroids and assignments of every restart of kmeans(y, k,
    seeds): _kmeanspp's seeds, then _lloyd's loop, in one block."""
    yy, y2 = (y * y).sum(axis=1), 2.0 * y
    states = np.concatenate([streams(s, np.arange(evaluation.KMEANS_RESTARTS)) for s in seeds])
    centroids = evaluation._kmeanspp(y, yy, y2, k, states)
    return centroids, evaluation._lloyd(y, yy, y2, centroids)


def test_kmeans_centroids_digest_er_negatives_shape():
    # the centroid bytes see the order in which each cluster's rows are summed
    centroids, assign = _restart_centroids(_blobs(1000, 8, 2, 31), 2, range(10))
    assert digest(centroids, assign) == (
        "1f8511d4bf82117a75e3cfe2f1827e54350a8ebb0ed95c53a1d3b954d87d3d5c")


def test_kmeans_centroids_digest_wide_features_shape():
    centroids, assign = _restart_centroids(_blobs(600, 16, 3, 32), 3, range(10))
    assert digest(centroids, assign) == (
        "8b087e754c5a8766312d97ae7b80e9acd250a55f160979f9056cbe1b2ef32ddc")
