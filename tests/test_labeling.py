import json
from datetime import date

import numpy as np
import pytest

from botclust.clustering import NOISE, ClusterAssignment, distance_matrix
from botclust.labeling import (
    assign_labels_binary,
    assign_labels_multiclass,
    confusion_matrix,
    feature_importance,
    local_density_scores,
    matthews_corrcoef,
    prf_metrics,
)
from botclust.mts import MtsTensor
from botclust.pipeline import PipelineConfig, importance_run_from_mts

from oracles import loop_assign_labels_multiclass


def _assignment(labels):
    return ClusterAssignment(labels=labels, user_ids=tuple(f"u{i}" for i in range(len(labels))))


# ---------------------------------------------------------------- metrics


def _per_class(report, key):
    """One field of every class in a metrics payload, in class order."""
    return np.array([entry[key] for entry in report["per_class"].values()])


def test_binary_cm_hand_fractions_to_1e12():
    # true class 0: 50 kept, 10 lost; true class 1: 5 lost, 35 kept.
    true = [0] * 60 + [1] * 40
    pred = [0] * 50 + [1] * 10 + [0] * 5 + [1] * 35
    cm = confusion_matrix(true, pred, 2)
    assert np.array_equal(cm, np.array([[50, 10], [5, 35]]))
    rep = prf_metrics(true, pred, 2)
    tol = 1e-12
    assert rep["accuracy"] == pytest.approx(0.85, abs=tol)
    assert _per_class(rep, "precision")[0] == pytest.approx(50 / 55, abs=tol)
    assert _per_class(rep, "recall")[0] == pytest.approx(50 / 60, abs=tol)
    assert _per_class(rep, "f1")[0] == pytest.approx(20 / 23, abs=tol)
    assert _per_class(rep, "precision")[1] == pytest.approx(35 / 45, abs=tol)
    assert _per_class(rep, "recall")[1] == pytest.approx(35 / 40, abs=tol)
    assert _per_class(rep, "f1")[1] == pytest.approx(14 / 17, abs=tol)
    assert rep["weighted_precision"] == pytest.approx(0.6 * 50 / 55 + 0.4 * 35 / 45, abs=tol)
    assert rep["weighted_recall"] == pytest.approx(0.85, abs=tol)
    assert rep["weighted_f1"] == pytest.approx(0.6 * 20 / 23 + 0.4 * 14 / 17, abs=tol)
    # c*s - sum(p*t) = 3400 ; (s^2-sum(p^2))*(s^2-sum(t^2)) = 4950*4800.
    assert rep["mcc"] == pytest.approx(3400 / np.sqrt(23760000), abs=tol)


def test_multiclass_cm_hand_fractions_to_1e12():
    cm_target = np.array([[4, 1, 0], [1, 3, 1], [0, 2, 5]])
    true, pred = [], []
    for i in range(3):
        for j in range(3):
            true += [i] * cm_target[i, j]
            pred += [j] * cm_target[i, j]
    rep = prf_metrics(true, pred, 3)
    tol = 1e-12
    assert np.array_equal(rep["confusion"], cm_target)
    assert rep["accuracy"] == pytest.approx(12 / 17, abs=tol)
    assert _per_class(rep, "f1")[0] == pytest.approx(4 / 5, abs=tol)
    assert _per_class(rep, "f1")[1] == pytest.approx(6 / 11, abs=tol)
    assert _per_class(rep, "f1")[2] == pytest.approx(10 / 13, abs=tol)
    expected_wf1 = (5 * (4 / 5) + 5 * (6 / 11) + 7 * (10 / 13)) / 17
    assert rep["weighted_f1"] == pytest.approx(expected_wf1, abs=tol)
    assert rep["mcc"] == pytest.approx(107 / np.sqrt(192 * 190), abs=tol)


def test_diagonal_cm_gives_all_ones():
    true = [0] * 3 + [1] * 4 + [2] * 2
    rep = prf_metrics(true, true, 3)
    assert rep["accuracy"] == 1.0
    assert np.all(_per_class(rep, "precision") == 1.0)
    assert np.all(_per_class(rep, "recall") == 1.0)
    assert np.all(_per_class(rep, "f1") == 1.0)
    assert rep["weighted_f1"] == 1.0
    assert rep["mcc"] == 1.0


def test_single_class_predictor_on_balanced_binary_mcc_zero():
    true = [0] * 25 + [1] * 25
    pred = [0] * 50
    rep = prf_metrics(true, pred, 2)
    assert rep["mcc"] == 0.0
    assert rep["accuracy"] == 0.5


def test_weighted_recall_equals_accuracy_identity():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 3, size=60)
    pred = rng.integers(0, 3, size=60)
    rep = prf_metrics(true, pred, 3)
    assert rep["weighted_recall"] == pytest.approx(rep["accuracy"], abs=1e-12)


def test_metrics_payload_is_plain_json():
    # repr tells a numpy scalar from the Python number it equals; == does not.
    for true, pred, k in (([0, 0, 1, 1], [0, 1, 1, 1], 2), ([0, 1, 2, 2, 1], [0, 2, 2, 1, 1], 3)):
        rep = prf_metrics(true, pred, k)
        assert json.loads(json.dumps(rep)) == rep
        assert repr(json.loads(json.dumps(rep))) == repr(rep)


def test_absent_class_yields_zero_metrics_not_nan():
    true = [0, 0, 1, 1]
    pred = [0, 0, 0, 0]
    rep = prf_metrics(true, pred, 3)
    assert _per_class(rep, "precision")[1] == 0.0
    assert _per_class(rep, "f1")[2] == 0.0
    assert np.all(np.isfinite(_per_class(rep, "f1")))


def test_prf_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        prf_metrics([], [], 2)
    with pytest.raises(ValueError):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(ValueError):
        confusion_matrix([0, -1], [0, 1], 2)


def test_mcc_zero_when_marginal_factor_vanishes():
    # All true labels identical: s^2 - sum(t^2) = 0.
    cm = np.array([[3, 2], [0, 0]])
    assert matthews_corrcoef(cm) == 0.0


# ------------------------------------------------------------- labeling


def test_binary_noise_rule_default():
    out = assign_labels_binary(_assignment([NOISE, 1, 1, 2, NOISE]))
    assert list(out) == [0, 1, 1, 1, 0]


def test_binary_single_cluster_no_noise_all_bot():
    out = assign_labels_binary(_assignment([1, 1, 1]))
    assert list(out) == [1, 1, 1]


def _scores(assignment, pts, min_pts=4):
    return local_density_scores(assignment, distance_matrix(pts), min_pts)


def test_binary_polarity_spread_cluster_is_genuine():
    # Cluster 1 tight (bots), cluster 2 spread (genuine).
    pts = np.array([[0.0], [0.01], [0.02], [10.0], [14.0], [20.0]])
    assignment = _assignment([1, 1, 1, 2, 2, 2])
    out = assign_labels_binary(assignment, scores=_scores(assignment, pts))
    assert list(out) == [1, 1, 1, 0, 0, 0]
    # Flip the geometry and the call flips with it.
    pts2 = np.array([[0.0], [6.0], [14.0], [20.0], [20.01], [20.02]])
    out2 = assign_labels_binary(assignment, scores=_scores(assignment, pts2))
    assert list(out2) == [0, 0, 0, 1, 1, 1]


def test_binary_polarity_tie_prefers_lower_cluster_id():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    assignment = _assignment([1, 1, 2, 2])
    out = assign_labels_binary(assignment, scores=_scores(assignment, pts))
    # Equal spreads: cluster 1 is called genuine.
    assert list(out) == [0, 0, 1, 1]


def test_binary_polarity_two_distant_botnets_are_bot():
    # Cluster 1: two tight botnets of 6 set 100 apart. Cluster 2: one
    # loose genuine group of 12 spaced 10 apart. Mean pairwise distance
    # ranks cluster 1 the more spread, yet it is the dense side.
    bots = np.concatenate([0.1 * np.arange(6), 100.0 + 0.1 * np.arange(6)])
    genuine = 300.0 + 10.0 * np.arange(12)
    pts = np.concatenate([bots, genuine])[:, np.newaxis]
    dist = distance_matrix(pts)
    assignment = _assignment([1] * 12 + [2] * 12)
    iu = np.triu_indices(12, k=1)
    assert dist[:12, :12][iu].mean() > dist[12:, 12:][iu].mean()
    # min_pts 4 (the default): each member's 4th neighbour is in its own botnet.
    out = assign_labels_binary(assignment, scores=local_density_scores(assignment, dist, 4))
    assert list(out) == [1] * 12 + [0] * 12


def test_binary_polarity_guards():
    with pytest.raises(ValueError, match="noise-free"):
        assign_labels_binary(_assignment([NOISE, 1, 2]), scores=[1.0, 2.0])
    with pytest.raises(ValueError, match="exactly 2 clusters, got 3"):
        assign_labels_binary(_assignment([1, 1, 2, 3]), scores=[1.0, 2.0, 3.0])


def test_binary_genuine_cluster_override():
    out = assign_labels_binary(_assignment([1, 1, 2, 2]), genuine_cluster=2)
    assert list(out) == [1, 1, 0, 0]


def test_multiclass_majority_and_noise():
    assignment = _assignment([1, 1, 1, 2, 2, NOISE])
    true = np.array([1, 1, 0, 2, 2, 2])
    out = assign_labels_multiclass(assignment, true)
    assert list(out) == [1, 1, 1, 2, 2, 0]


def test_multiclass_majority_tie_takes_lowest_class():
    assignment = _assignment([1, 1, 1, 1])
    true = np.array([2, 2, 1, 1])
    out = assign_labels_multiclass(assignment, true)
    assert list(out) == [1, 1, 1, 1]


def test_multiclass_relabeling_invariance():
    # Swapping cluster ids must not change the induced account labels.
    labels_a = [1, 1, 2, 2, NOISE]
    labels_b = [2, 2, 1, 1, NOISE]
    true = np.array([1, 1, 2, 2, 0])
    out_a = assign_labels_multiclass(_assignment(labels_a), true)
    out_b = assign_labels_multiclass(_assignment(labels_b), true)
    assert np.array_equal(out_a, out_b)


def test_multiclass_equals_the_loop_version_with_empty_clusters_and_ties():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        n_clusters = int(rng.integers(0, 8))
        # Draw from a subset of the ids, so some ids below the largest
        # (the gaps) name empty clusters.
        ids = rng.choice(n_clusters + 1, size=int(rng.integers(1, n_clusters + 2)),
                         replace=False)
        assignment = _assignment(rng.choice(ids, size=n))
        # Few users over up to four classes: tied votes are common.
        true = rng.integers(0, int(rng.integers(1, 5)), size=n)
        out = assign_labels_multiclass(assignment, true)
        assert np.array_equal(out, loop_assign_labels_multiclass(assignment, true)), trial
    # Cluster 2 of labels {1, 3} is empty.
    gap = _assignment([1, 3, 3, 1, 3])
    true = np.array([2, 1, 1, 0, 2])
    assert gap.n_clusters == 3 and gap.members(2).size == 0
    out = assign_labels_multiclass(gap, true)
    assert list(out) == [0, 1, 1, 0, 1]
    assert np.array_equal(out, loop_assign_labels_multiclass(gap, true))


def test_multiclass_rejects_negative_class_id():
    with pytest.raises(ValueError, match="non-negative"):
        assign_labels_multiclass(_assignment([1, 1, NOISE]), np.array([0, -1, 0]))


# ----------------------------------------------------------- importance


def _column(report, key):
    """One field of every feature in an importance payload, in feature order."""
    return [entry[key] for entry in report["features"].values()]


def test_feature_importance_hand_ratios():
    scores = {
        ("a", "b", "c"): 0.8,
        ("b", "c"): 0.72,  # drop a -> S = 0.9
        ("a", "c"): 0.8,   # drop b -> S = 1.0
        ("a", "b"): 0.8,   # drop c -> S = 1.0
    }

    rep = feature_importance(("a", "b", "c"), scores[("a", "b", "c")],
                             [scores[("b", "c")], scores[("a", "c")], scores[("a", "b")]])
    assert rep["baseline_f1"] == 0.8
    assert list(rep["features"]) == ["a", "b", "c"]
    assert _column(rep, "ratio") == pytest.approx([0.9, 1.0, 1.0])
    assert _column(rep, "importance") == pytest.approx([1.0, 0.0, 0.0])


def test_feature_importance_all_neutral_gives_zeros():
    rep = feature_importance(("a", "b"), 0.5, [0.5, 0.5])
    assert _column(rep, "importance") == pytest.approx([0.0, 0.0])


def test_feature_importance_improvement_clamped():
    # Dropping "a" makes things better (S > 1): its importance clamps to 0
    # and the rest still normalizes.
    scores = {("a", "b"): 0.5, ("b",): 0.7, ("a",): 0.25}

    rep = feature_importance(("a", "b"), scores[("a", "b")], [scores[("b",)], scores[("a",)]])
    assert rep["features"]["a"]["importance"] == 0.0
    assert rep["features"]["b"]["importance"] == pytest.approx(1.0)


def test_feature_importance_guards():
    # One feature is refused before any run starts.
    only = MtsTensor(values=np.zeros((4, 3, 1)), user_ids=["a", "b", "c", "d"],
                     feature_names=("only",), day_min=date(2023, 1, 1))
    with pytest.raises(ValueError, match="at least 2 features"):
        importance_run_from_mts(only, np.zeros(4, dtype=np.int64), 1, PipelineConfig())
    with pytest.raises(ValueError):
        feature_importance(("a", "b"), 0.0, [0.0, 0.0])
