import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coles import evaluation
from coles.evaluation import (Metrics, SplitSpec, kmeans, logreg_fit, logreg_predict,
                              nmi_score, random_splits, score)
from coles.rng import Xoshiro256StarStar
from helpers import ScalarXoshiro, bulk_everywhere, loop_logreg, loop_shuffle


def three_class_labels(per_class=30):
    return np.repeat(np.arange(3), per_class)


# -- splits -------------------------------------------------------------------

def test_split_sizes_and_disjointness():
    labels = three_class_labels(30)
    spec = SplitSpec(per_class=5, val_size=20, seed=1)
    (train,), (val,), (test,) = random_splits(labels, spec, 1)
    assert train.shape[0] == 15
    assert val.shape[0] == 20
    assert test.shape[0] == 90 - 15 - 20
    all_idx = np.concatenate([train, val, test])
    assert np.unique(all_idx).shape[0] == 90
    for c in range(3):
        assert np.sum(labels[train] == c) == 5


def test_split_deterministic_per_seed():
    labels = three_class_labels()
    a = random_splits(labels, SplitSpec(per_class=5, seed=7), 1)
    b = random_splits(labels, SplitSpec(per_class=5, seed=7), 1)
    c = random_splits(labels, SplitSpec(per_class=5, seed=8), 1)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


def _loop_split(labels, spec):
    """A one-row random_splits with scalar Fisher-Yates shuffles and a set for the rest."""
    rng = ScalarXoshiro(spec.seed)
    train = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c).tolist()
        loop_shuffle(rng, members)
        train.extend(members[:spec.per_class])
    taken = set(train)
    rest = [i for i in range(labels.shape[0]) if i not in taken]
    loop_shuffle(rng, rest)
    return sorted(train), sorted(rest[:spec.val_size]), sorted(rest[spec.val_size:])


@pytest.mark.parametrize("labels, spec, bulk", [
    (np.array([2, 0, 1, 0, 2, 1, 1]), SplitSpec(per_class=1, val_size=2, seed=3), True),
    (np.arange(90) % 4, SplitSpec(per_class=5, val_size=20, seed=4), True),
    (np.arange(30000) % 3, SplitSpec(per_class=20, val_size=500, seed=5), False),
])
def test_split_matches_loops(labels, spec, bulk):
    with bulk_everywhere(bulk):
        got = random_splits(labels, spec, 1)
    assert [part[0].tolist() for part in got] == list(_loop_split(labels, spec))


def test_split_val_capped_at_availability():
    labels = three_class_labels(10)
    spec = SplitSpec(per_class=5, val_size=500, seed=0)
    (train,), (val,), (test,) = random_splits(labels, spec, 1)
    assert val.shape[0] == 30 - 15
    assert test.shape[0] == 0


def test_split_class_too_small():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="class 0"):
        random_splits(labels, SplitSpec(per_class=2, seed=0), 1)


# -- logistic regression ----------------------------------------------------------

def test_logreg_separable_1d():
    x = np.array([[[-1.0], [-0.8], [0.8], [1.0]]])
    y = np.array([[0, 0, 1, 1]])
    w = logreg_fit(x, y, epochs=300)
    assert np.array_equal(logreg_predict(w, x), y)


def test_logreg_symmetric_pair_gives_half_probs():
    x = np.array([[[-1.0], [1.0]]])
    y = np.array([[0, 1]])
    w = logreg_fit(x, y, l2=0.0, epochs=500)[0]
    logits = np.hstack([np.array([[0.0]]), np.ones((1, 1))]) @ w
    probs = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(probs, [0.5, 0.5], atol=1e-6)


def test_logreg_gaussian_blobs_high_accuracy():
    rng = Xoshiro256StarStar(20)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    x = []
    y = []
    for c in range(3):
        for _ in range(40):
            x.append(centers[c] + np.array(rng.normals(2)))
            y.append(c)
    x = np.array(x)
    y = np.array(y)
    train = np.arange(0, 120, 2)
    test = np.arange(1, 120, 2)
    w = logreg_fit(x[train][None], y[train][None])
    acc = float(np.mean(logreg_predict(w, x[test][None])[0] == y[test]))
    assert acc >= 0.99


def test_logreg_loss_monotone_decreasing():
    rng = Xoshiro256StarStar(21)
    x = np.array(rng.normals(60)).reshape(1, 30, 2)
    y = (x[..., 0] + 0.3 * x[..., 1] > 0).astype(int)
    # loop_logreg is the fit's epoch bit for bit, so its losses are the fit's
    want, losses = loop_logreg(x, y)
    assert np.array_equal(logreg_fit(x, y).view(np.uint64), want.view(np.uint64))
    diffs = np.diff(np.stack(losses)[:, 0])
    assert np.all(diffs <= 1e-9)


def test_logreg_single_class_rejected():
    with pytest.raises(ValueError, match="single class"):
        logreg_fit(np.ones((1, 3, 2)), np.zeros((1, 3), dtype=int))


@pytest.mark.parametrize("setting", [{"lr": np.nan}, {"l2": np.nan}, {"lr": np.inf},
                                     {"l2": -np.inf}])
def test_logreg_rejects_non_finite_settings(setting):
    with pytest.raises(ValueError, match="lr and l2 must be finite"):
        logreg_fit(np.array([[[0.0], [1.0]]]), np.array([[0, 1]]), **setting)


def test_logreg_diverged_fit_is_value_error():
    # the logits overflow within a few epochs; the weights turn NaN, not a model
    x = np.array([[[-1e200, 0.0], [1e200, 0.0], [0.0, 1e200]]])
    with pytest.raises(ValueError, match="weights are not finite"):
        logreg_fit(x, np.array([[0, 1, 2]]), epochs=20)


def test_logreg_fit_deterministic():
    rng = Xoshiro256StarStar(22)
    x = np.array(rng.normals(40)).reshape(1, 20, 2)
    y = (x[..., 0] > 0).astype(int)
    assert np.array_equal(logreg_fit(x, y), logreg_fit(x, y))


@pytest.mark.parametrize("n_classes", list(range(1, 21)) + [127, 128, 129, 136, 300])
def test_class_sum_adds_in_numpys_reduction_order(n_classes):
    # logreg_fit's class sum: numpy adds the rows of an outer axis one by one,
    # class 0 first, for every class count; a contiguous last axis would be
    # added pairwise from 8 terms on
    for n_sets, m in ((4, 7), (1, 2), (3, 40)):
        e = np.exp(3.0 * np.array(Xoshiro256StarStar(n_classes + m).normals(
            n_sets * n_classes * m))).reshape(n_sets, n_classes, m)
        want = functools.reduce(np.add, e.transpose(1, 0, 2))
        assert np.array_equal(e.sum(axis=1).view(np.uint64), want.view(np.uint64))


def test_stacked_predictions_are_the_per_set_predictions():
    rng = Xoshiro256StarStar(23)
    x = np.array(rng.normals(4 * 30 * 3)).reshape(4, 30, 3)
    labels = (x[:, :, 0] > 0).astype(int) + (x[:, :, 1] > 0.5)
    labels[:, :3] = [0, 1, 2]
    w = logreg_fit(x[:, :20], labels[:, :20], epochs=50)
    got = logreg_predict(w, x[:, 20:])
    assert got.shape == (4, 10) and got.dtype == np.int64
    for s in range(4):
        assert np.array_equal(got[s], logreg_predict(w[s:s + 1], x[s:s + 1, 20:])[0])
    # equal logits go to the lowest class id
    assert np.array_equal(logreg_predict(np.zeros((4, 4, 3)), x[:, 20:]), np.zeros((4, 10)))


# -- k-means ------------------------------------------------------------------------

def test_kmeans_two_far_blobs():
    y = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
    assign = kmeans(y, 2, [0])[0]
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_kmeans_identical_points_single_cluster():
    y = np.ones((6, 3))
    assign = kmeans(y, 1, [0])[0]
    assert np.array_equal(assign, np.zeros(6, dtype=int))
    inertia = float(np.sum((y - y.mean(axis=0)) ** 2))
    assert inertia == 0.0


def test_kmeans_deterministic():
    rng = Xoshiro256StarStar(23)
    y = np.array(rng.normals(200)).reshape(50, 4)
    a = kmeans(y, 5, [9])[0]
    b = kmeans(y, 5, [9])[0]
    assert np.array_equal(a, b)


def test_kmeans_k_larger_than_n():
    with pytest.raises(ValueError, match="k must be"):
        kmeans(np.ones((3, 2)), 4, [0])


def test_kmeans_refuses_points_without_columns():
    with pytest.raises(ValueError, match="y has no columns"):
        kmeans(np.zeros((6, 0)), 2, [0])


def test_kmeans_overflowing_inertia_is_value_error():
    # squared distances overflow to inf, so no restart has a finite inertia
    y = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="inertia is not finite"):
        kmeans(y, 2, [0])


def test_kmeans_refuses_values_whose_distances_overflow():
    # the squared norms overflow though the inertia of a split would be finite
    y = np.array([[1e155, 0.0], [1e155, 1.0], [-1e155, 0.0]])
    with pytest.raises(ValueError, match="inertia is not finite"):
        kmeans(y, 2, [0])
    assert np.unique(kmeans(y * 1e-10, 2, [0])[0]).size == 2


def test_kmeans_more_clusters_than_distinct_points():
    # forces empty-cluster re-seeding
    y = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
    assign = kmeans(y, 3, [1])[0]
    assert np.unique(assign).shape[0] == 3
    assert assign[0] != assign[5]


def _kmeans_peak_bytes(y, k):
    tracemalloc.start()
    try:
        kmeans(y, k, [3])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_memory_is_bounded_by_its_block_budget(monkeypatch):
    # the er-negatives embedding's shape; the restarts run in blocks of about
    # 2**17 values, so 40 restarts take no more memory than one block of them
    rng = Xoshiro256StarStar(31)
    y = np.array(rng.normals(8000)).reshape(1000, 8)
    y[:, 0] += 2.0 * (np.arange(1000) % 2)
    peak = _kmeans_peak_bytes(y, 2)
    monkeypatch.setattr(evaluation, "KMEANS_RESTARTS", 40)
    peak_40 = _kmeans_peak_bytes(y, 2)
    assert peak < 2 * 2**20
    assert peak_40 < 2 * 2**20
    assert peak_40 < 1.5 * peak


# -- metrics -----------------------------------------------------------------------

def test_perfect_predictions():
    t = np.array([0, 1, 2, 0, 1, 2])
    m = score(t, t, mode="classification")
    assert m.accuracy == m.macro_f1 == m.micro_f1 == m.nmi == 1.0


def test_clustering_permutation_is_perfect():
    t = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    m = score(pred, t, mode="clustering")
    assert m.accuracy == 1.0
    assert m.nmi == 1.0


def test_non_contiguous_labels():
    pred = np.array([3, 3, 7, 7, 7])
    truth = np.array([0, 0, 5, 5, 0])
    assert score(pred, truth, mode="clustering").accuracy == 0.8
    assert nmi_score(pred, truth) == nmi_score([0, 0, 1, 1, 1], [0, 0, 1, 1, 0])


def test_independent_labelings_zero_nmi():
    t = np.array([0, 0, 1, 1])
    p = np.array([0, 1, 0, 1])
    m = score(p, t, mode="classification")
    assert m.accuracy == 0.5
    assert abs(m.nmi) < 1e-9


def test_nmi_label_permutation_invariant():
    rng = ScalarXoshiro(24)
    t = np.array([rng.below(4) for _ in range(60)])
    p = np.array([rng.below(4) for _ in range(60)])
    remap = {0: 3, 1: 2, 2: 0, 3: 1}
    p2 = np.array([remap[int(v)] for v in p])
    assert abs(nmi_score(p, t) - nmi_score(p2, t)) < 1e-15
    assert nmi_score(t, t) == 1.0


def test_hungarian_beats_majority_vote():
    rng = ScalarXoshiro(25)
    for _ in range(100):
        t = np.array([rng.below(3) for _ in range(40)])
        p = np.array([rng.below(3) for _ in range(40)])
        hung = score(p, t, mode="clustering").accuracy
        majority = max(np.bincount(t)) / 40.0
        naive = float(np.mean(p == t))
        assert hung >= naive - 1e-12
        assert hung >= 0.0


@st.composite
def square_tables(draw):
    """Square count tables; low entry ceilings make many tied matchings."""
    k = draw(st.integers(1, 12), label="k")
    ceiling = draw(st.sampled_from([1, 2, 4, 49, 10**6]), label="ceiling")
    return draw(arrays(np.int64, (k, k), elements=st.integers(0, ceiling)))


@settings(max_examples=300)
@given(table=square_tables())
@example(table=np.zeros((5, 5), dtype=np.int64))
@example(table=np.full((6, 6), 3, dtype=np.int64))
@example(table=np.eye(7, dtype=np.int64))
@example(table=np.eye(6, dtype=np.int64)[[4, 0, 5, 2, 1, 3]])
@example(table=np.where(np.arange(25).reshape(5, 5) == 14, 9, 0))  # one nonzero cell
def test_max_assignment_is_scipys_matching(table):
    from scipy.optimize import linear_sum_assignment
    want = linear_sum_assignment(table, maximize=True)[1]
    assert np.array_equal(evaluation._max_assignment(table), want)


def test_micro_f1_equals_accuracy():
    rng = ScalarXoshiro(26)
    t = np.array([rng.below(5) for _ in range(80)])
    p = np.array([rng.below(5) for _ in range(80)])
    m = score(p, t, mode="classification")
    assert abs(m.micro_f1 - m.accuracy) < 1e-12


def test_macro_f1_excludes_classes_absent_from_truth():
    t = np.array([0, 0, 1, 1])
    p = np.array([0, 2, 1, 2])  # class 2 never in truth
    m = score(p, t, mode="classification")
    # per-class F1 over classes {0, 1} only: both precision 1, recall 0.5
    assert abs(m.macro_f1 - (2 / 3)) < 1e-12


def test_score_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        score(np.array([0, 1]), np.array([0]))


def test_logreg_rejects_fewer_than_one_epoch():
    x = np.array([[[0.0], [1.0], [2.0], [3.0]]])
    for epochs in (0, -3):
        with pytest.raises(ValueError, match="epochs"):
            logreg_fit(x, [[0, 0, 1, 1]], epochs=epochs)


# -- score against its per-class and per-cell definitions ------------------------------

def loop_f1(pred, truth):
    """(macro_f1, micro_f1): per-class F1 over the classes in truth, and the
    global 2 TP / (2 TP + FP + FN) over every class either side uses."""
    f1s, total = [], [0, 0, 0]
    for c in sorted(set(pred) | set(truth)):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        if c in truth:
            f1s.append(2 * tp / (2 * tp + fp + fn))
        total = [total[0] + tp, total[1] + fp, total[2] + fn]
    tp, fp, fn = total
    return float(np.mean(f1s)), 2 * tp / (2 * tp + fp + fn)


def loop_nmi(pred, truth):
    """Mutual information over the cells, normalized by the mean of the entropies."""
    n = len(truth)
    rows = {a: pred.count(a) for a in set(pred)}
    cols = {b: truth.count(b) for b in set(truth)}
    hp = -sum(c / n * math.log(c / n) for c in rows.values())
    ht = -sum(c / n * math.log(c / n) for c in cols.values())
    if hp == 0.0 and ht == 0.0:
        return 1.0
    mi = 0.0
    for a in sorted(rows):
        for b in sorted(cols):
            cell = sum(1 for p, t in zip(pred, truth) if p == a and t == b)
            if cell:
                mi += cell / n * math.log(n * cell / (rows[a] * cols[b]))
    return min(max(mi / (0.5 * (hp + ht)), 0.0), 1.0)


@settings(max_examples=60)
@given(data=st.data(), ids=st.lists(st.integers(-5, 10**12), min_size=1, max_size=5,
                                    unique=True))
def test_score_matches_loop_definitions(data, ids):
    """Labels are sparse ids; either side may use labels the other never does."""
    truth_ids = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True), label="t")
    pred_ids = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True), label="p")
    size = data.draw(st.integers(1, 40), label="size")
    truth = data.draw(st.lists(st.sampled_from(truth_ids), min_size=size, max_size=size))
    pred = data.draw(st.lists(st.sampled_from(pred_ids), min_size=size, max_size=size))
    n = len(truth)

    m = score(pred, truth, mode="classification")
    assert m.accuracy == sum(p == t for p, t in zip(pred, truth)) / n
    assert (m.macro_f1, m.micro_f1) == loop_f1(pred, truth)
    assert abs(m.nmi - loop_nmi(pred, truth)) <= 1e-12
    assert m.nmi == nmi_score(pred, truth)

    c = score(pred, truth, mode="clustering")
    # every one-to-one relabelling of the labels either side uses, by brute force
    union = sorted(set(pred) | set(truth))
    relabelings = [[perm[union.index(p)] for p in pred] for perm in itertools.permutations(union)]
    hits = [sum(r == t for r, t in zip(relabeled, truth)) for relabeled in relabelings]
    best = max(hits)
    assert c.accuracy == best / n
    # F1 of an optimal relabelling; ties may leave more than one
    assert (c.macro_f1, c.micro_f1) in [loop_f1(relabeled, truth)
                                        for relabeled, h in zip(relabelings, hits) if h == best]
    assert c.nmi == m.nmi


@pytest.mark.parametrize("call,message", [
    (lambda: SplitSpec(per_class=0), "per_class must be >= 1"),
    (lambda: SplitSpec(val_size=-1), "val_size must be >= 0"),
    (lambda: logreg_fit(np.zeros((1, 4, 2)), np.array([[0, 1, 0]])),
     "labels length must match row count"),
    (lambda: logreg_fit(np.zeros((1, 6, 2)), np.array([[-1, -1, 0, 0, 1, 1]])),
     "labels must be >= 0, got -1"),
    (lambda: logreg_fit(np.zeros((4, 2)), np.array([0, 1, 0, 1])),
     r"y_train must be an \(S, m, d\) stack of training sets, got \(4, 2\)"),
    (lambda: logreg_predict(np.zeros((1, 3, 2)), np.zeros((1, 4, 3))),
     "weights expect 2 features, got 3"),
    (lambda: logreg_predict(np.zeros((2, 3, 2)), np.zeros((3, 4, 2))),
     r"weights of shape \(2, 3, 2\) do not fit rows of shape \(3, 4, 2\)"),
    (lambda: logreg_predict(np.zeros((2, 3, 2)), np.zeros((4, 2))),
     r"weights of shape \(2, 3, 2\) do not fit rows of shape \(4, 2\): "
     r"give \(S, d\+1, C\) weights and an \(S, t, d\) stack of rows"),
    (lambda: logreg_predict(np.zeros((3, 2)), np.zeros((4, 1))),
     r"give \(S, d\+1, C\) weights and an \(S, t, d\) stack of rows"),
    (lambda: logreg_predict(np.zeros((2, 3, 2)), np.full((2, 4, 2), np.nan)),
     "y contains non-finite values"),
    (lambda: kmeans(np.zeros((4, 2)), 2, []),
     r"seeds must be a sequence of 1 or more run seeds, got \(0,\)"),
    (lambda: kmeans(np.zeros((4, 2)), 2, 7),
     r"seeds must be a sequence of 1 or more run seeds, got \(\)"),
    (lambda: score(np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
     "cannot score empty predictions"),
    (lambda: score(np.array([0, 1]), np.array([0, 1]), mode="ranking"),
     "mode must be 'classification' or 'clustering'"),
    (lambda: nmi_score([0, 1, 1, 0], [0]), "pred and truth must have equal length"),
    (lambda: nmi_score([], []), "cannot score empty predictions"),
], ids=["no-train-per-class", "negative-val-size", "fit-labels-shape", "fit-negative-label",
        "fit-2d-rows", "predict-width", "predict-stack-count", "predict-stack-rank",
        "predict-2d", "predict-stack-non-finite", "kmeans-no-seeds", "kmeans-scalar-seed",
        "score-empty", "score-mode", "nmi-lengths", "nmi-empty"])
def test_evaluation_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
