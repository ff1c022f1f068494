import numpy as np
import pytest

from coles.evaluation import (Metrics, SplitSpec, hungarian_accuracy, kmeans,
                              logreg_fit, logreg_predict, nmi_score, random_split,
                              score)
from coles.rng import Xoshiro256StarStar
from helpers import bulk_everywhere, loop_shuffle


def three_class_labels(per_class=30):
    return np.repeat(np.arange(3), per_class)


# -- splits -------------------------------------------------------------------

def test_split_sizes_and_disjointness():
    labels = three_class_labels(30)
    train, val, test = random_split(labels, SplitSpec(per_class=5, val_size=20, seed=1))
    assert train.shape[0] == 15
    assert val.shape[0] == 20
    assert test.shape[0] == 90 - 15 - 20
    all_idx = np.concatenate([train, val, test])
    assert np.unique(all_idx).shape[0] == 90
    for c in range(3):
        assert np.sum(labels[train] == c) == 5


def test_split_deterministic_per_seed():
    labels = three_class_labels()
    a = random_split(labels, SplitSpec(per_class=5, seed=7))
    b = random_split(labels, SplitSpec(per_class=5, seed=7))
    c = random_split(labels, SplitSpec(per_class=5, seed=8))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


def _loop_split(labels, spec):
    """random_split with scalar Fisher-Yates shuffles and a set for the rest."""
    rng = Xoshiro256StarStar(spec.seed)
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
        got = random_split(labels, spec)
    assert [part.tolist() for part in got] == list(_loop_split(labels, spec))


def test_split_val_capped_at_availability():
    labels = three_class_labels(10)
    train, val, test = random_split(labels, SplitSpec(per_class=5, val_size=500, seed=0))
    assert val.shape[0] == 30 - 15
    assert test.shape[0] == 0


def test_split_class_too_small():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="class 0"):
        random_split(labels, SplitSpec(per_class=2, seed=0))


# -- logistic regression ----------------------------------------------------------

def test_logreg_separable_1d():
    x = np.array([[-1.0], [-0.8], [0.8], [1.0]])
    y = np.array([0, 0, 1, 1])
    w = logreg_fit(x, y, epochs=300)
    assert np.array_equal(logreg_predict(w, x), y)


def test_logreg_symmetric_pair_gives_half_probs():
    x = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    w = logreg_fit(x, y, l2=0.0, epochs=500)
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
    w = logreg_fit(x[train], y[train])
    acc = float(np.mean(logreg_predict(w, x[test]) == y[test]))
    assert acc >= 0.99


def test_logreg_loss_monotone_decreasing():
    rng = Xoshiro256StarStar(21)
    x = np.array(rng.normals(60)).reshape(30, 2)
    y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int)
    _, losses = logreg_fit(x, y, return_losses=True)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)


def test_logreg_single_class_rejected():
    with pytest.raises(ValueError, match="single class"):
        logreg_fit(np.ones((3, 2)), np.zeros(3, dtype=int))


@pytest.mark.parametrize("setting", [{"lr": np.nan}, {"l2": np.nan}, {"lr": np.inf},
                                     {"l2": -np.inf}])
def test_logreg_rejects_non_finite_settings(setting):
    with pytest.raises(ValueError, match="lr and l2 must be finite"):
        logreg_fit(np.array([[0.0], [1.0]]), np.array([0, 1]), **setting)


def test_logreg_diverged_fit_is_value_error():
    # the logits overflow within a few epochs; the weights turn NaN, not a model
    x = np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="weights are not finite"):
        logreg_fit(x, np.array([0, 1, 2]), epochs=20)


def test_logreg_fit_deterministic():
    rng = Xoshiro256StarStar(22)
    x = np.array(rng.normals(40)).reshape(20, 2)
    y = (x[:, 0] > 0).astype(int)
    assert np.array_equal(logreg_fit(x, y), logreg_fit(x, y))


# -- k-means ------------------------------------------------------------------------

def test_kmeans_two_far_blobs():
    y = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
    assign = kmeans(y, 2, seed=0)
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_kmeans_identical_points_single_cluster():
    y = np.ones((6, 3))
    assign = kmeans(y, 1, seed=0)
    assert np.array_equal(assign, np.zeros(6, dtype=int))
    inertia = float(np.sum((y - y.mean(axis=0)) ** 2))
    assert inertia == 0.0


def test_kmeans_deterministic():
    rng = Xoshiro256StarStar(23)
    y = np.array(rng.normals(200)).reshape(50, 4)
    a = kmeans(y, 5, seed=9)
    b = kmeans(y, 5, seed=9)
    assert np.array_equal(a, b)


def test_kmeans_k_larger_than_n():
    with pytest.raises(ValueError, match="k must be"):
        kmeans(np.ones((3, 2)), 4, seed=0)


def test_kmeans_overflowing_inertia_is_value_error():
    # squared distances overflow to inf, so no restart has a finite inertia
    y = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="inertia is not finite"):
        kmeans(y, 2, seed=0)


def test_kmeans_refuses_values_whose_distances_overflow():
    # the squared norms overflow though the inertia of a split would be finite
    y = np.array([[1e155, 0.0], [1e155, 1.0], [-1e155, 0.0]])
    with pytest.raises(ValueError, match="inertia is not finite"):
        kmeans(y, 2, seed=0)
    assert np.unique(kmeans(y * 1e-10, 2, seed=0)).size == 2


def test_kmeans_more_clusters_than_distinct_points():
    # forces empty-cluster re-seeding
    y = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
    assign = kmeans(y, 3, seed=1)
    assert np.unique(assign).shape[0] <= 3
    assert assign[0] != assign[5]


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
    acc, relabeled = hungarian_accuracy(pred, truth)
    assert acc == 0.8
    assert relabeled.tolist() == [0, 0, 5, 5, 5]
    assert nmi_score(pred, truth) == nmi_score([0, 0, 1, 1, 1], [0, 0, 1, 1, 0])


def test_independent_labelings_zero_nmi():
    t = np.array([0, 0, 1, 1])
    p = np.array([0, 1, 0, 1])
    m = score(p, t, mode="classification")
    assert m.accuracy == 0.5
    assert abs(m.nmi) < 1e-9


def test_nmi_label_permutation_invariant():
    rng = Xoshiro256StarStar(24)
    t = np.array([rng.below(4) for _ in range(60)])
    p = np.array([rng.below(4) for _ in range(60)])
    remap = {0: 3, 1: 2, 2: 0, 3: 1}
    p2 = np.array([remap[int(v)] for v in p])
    assert abs(nmi_score(p, t) - nmi_score(p2, t)) < 1e-15
    assert nmi_score(t, t) == 1.0


def test_hungarian_beats_majority_vote():
    rng = Xoshiro256StarStar(25)
    for _ in range(100):
        t = np.array([rng.below(3) for _ in range(40)])
        p = np.array([rng.below(3) for _ in range(40)])
        hung, _ = hungarian_accuracy(p, t)
        majority = max(np.bincount(t)) / 40.0
        naive = float(np.mean(p == t))
        assert hung >= naive - 1e-12
        assert hung >= 0.0


def test_micro_f1_equals_accuracy():
    rng = Xoshiro256StarStar(26)
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
