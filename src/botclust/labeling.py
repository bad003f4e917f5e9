"""Turning cluster assignments into account labels, plus scoring.

Ground-truth labels enter the pipeline only here: clustering itself is
unsupervised, and the true classes are consulted solely to name clusters
and to score the result. prf_metrics returns the "metrics" block of
metrics_report.json, and feature_importance only builds the
importance_report.json payload from the scores
pipeline.importance_run_from_mts computes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .clustering import NOISE, ClusterAssignment, kth_neighbor_distances
from .ingest import GENUINE_CLASS


def assign_labels_binary(
    assignment: ClusterAssignment,
    scores: Sequence[float] | None = None,
    genuine_cluster: int | None = None,
) -> np.ndarray:
    """Binary account labels (0 genuine, 1 bot) from a clustering.

    Default rule (the density route): noise points are genuine, every
    cluster is a bot group, since bots coordinate into dense clumps while
    genuine accounts scatter. Given scores (the hierarchical route cut at
    two clusters), the less locally dense cluster is called genuine
    instead: scores holds each cluster's local_density_scores, the mean
    distance from a member to its k-th nearest fellow member, and the
    larger score is genuine. Unlike mean pairwise distance, this still
    calls several tight botnets set far apart the bot side. Ties fall to
    the lower cluster id. Pass genuine_cluster to override the polarity
    choice.
    """
    labels = assignment.labels
    out = np.ones(len(labels), dtype=np.int64)
    if genuine_cluster is None and scores is None:
        out[labels == NOISE] = GENUINE_CLASS
        return out
    if assignment.has_noise:
        raise ValueError("polarity labeling applies to noise-free partitions only")
    if genuine_cluster is None:
        if assignment.n_clusters != 2:
            raise ValueError(
                f"polarity rule needs exactly 2 clusters, got {assignment.n_clusters}; "
                "pass genuine_cluster explicitly"
            )
        genuine_cluster = 1 if scores[0] >= scores[1] else 2
    if not 1 <= genuine_cluster <= assignment.n_clusters:
        raise ValueError(f"genuine_cluster {genuine_cluster} out of range")
    out[labels == genuine_cluster] = GENUINE_CLASS
    return out


def local_density_scores(assignment: ClusterAssignment, dist: np.ndarray,
                         min_pts: int) -> list[float]:
    """Per cluster, in id order: the mean distance from each member to its
    k-th nearest other member, k = min(min_pts, size - 1); 0.0 for fewer
    than 2 members. min_pts is DBSCAN's density scale
    (PipelineConfig.min_pts)."""
    scores = []
    for cid in range(1, assignment.n_clusters + 1):
        members = assignment.members(cid)
        k = min(min_pts, members.size - 1)
        sub = dist[np.ix_(members, members)]
        scores.append(float(kth_neighbor_distances(sub, k).mean()) if k > 0 else 0.0)
    return scores


def assign_labels_multiclass(
    assignment: ClusterAssignment, true_labels: np.ndarray
) -> np.ndarray:
    """Name each cluster by its most frequent true class (ties go to the
    lowest class id); noise points are labeled genuine."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if true_labels.shape != assignment.labels.shape:
        raise ValueError(
            f"true labels shape {true_labels.shape} != {assignment.labels.shape}"
        )
    if np.any(true_labels < 0):
        raise ValueError("class ids must be non-negative")
    votes = np.zeros((assignment.n_clusters + 1, true_labels.max(initial=0) + 1), dtype=np.int64)
    np.add.at(votes, (assignment.labels, true_labels), 1)
    names = votes.argmax(axis=1)  # first maximum: the lowest tied class
    names[NOISE] = GENUINE_CLASS
    return names[assignment.labels]


def confusion_matrix(true_labels: Sequence[int], pred_labels: Sequence[int],
                     n_classes: int) -> np.ndarray:
    """Counts with rows indexed by true class, columns by predicted."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    pred_arr = np.asarray(pred_labels, dtype=np.int64)
    if true_arr.shape != pred_arr.shape:
        raise ValueError(f"shape mismatch: {true_arr.shape} vs {pred_arr.shape}")
    if n_classes < 1:
        raise ValueError(f"n_classes must be positive, got {n_classes}")
    for arr, what in ((true_arr, "true"), (pred_arr, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{what} labels fall outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true_arr, pred_arr), 1)
    return cm


def matthews_corrcoef(cm: np.ndarray) -> float:
    """Generalized (multiclass) Matthews correlation from a confusion
    matrix. Returns 0 when either factor under the radical is zero."""
    cm = np.asarray(cm, dtype=np.float64)
    c = np.trace(cm)
    s = cm.sum()
    t = cm.sum(axis=1)  # true-class totals
    p = cm.sum(axis=0)  # predicted-class totals
    cov = c * s - float(p @ t)
    f1 = s * s - float(p @ p)
    f2 = s * s - float(t @ t)
    if f1 <= 0.0 or f2 <= 0.0:
        return 0.0
    return float(cov / np.sqrt(f1 * f2))


def prf_metrics(true_labels: Sequence[int], pred_labels: Sequence[int],
                n_classes: int) -> dict:
    """The "metrics" block of metrics_report.json: the confusion matrix
    (rows true, columns predicted), per_class precision, recall, F1 and
    support under each class id as a string, their support-weighted
    means, accuracy and the Matthews correlation. Any zero denominator
    (empty class, no predictions of a class) contributes 0 rather than
    raising."""
    cm = confusion_matrix(true_labels, pred_labels, n_classes)
    diag = np.diag(cm).astype(np.float64)
    rowsum = cm.sum(axis=1).astype(np.float64)
    colsum = cm.sum(axis=0).astype(np.float64)
    precision = np.divide(diag, colsum, out=np.zeros(n_classes), where=colsum > 0)
    recall = np.divide(diag, rowsum, out=np.zeros(n_classes), where=rowsum > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum,
                   out=np.zeros(n_classes), where=pr_sum > 0)
    support = cm.sum(axis=1)
    total = support.sum()
    if total == 0:
        raise ValueError("cannot score an empty label set")
    return {
        "confusion": cm.tolist(),
        "per_class": {str(k): {"precision": float(p), "recall": float(r), "f1": float(f),
                               "support": int(s)}
                      for k, (p, r, f, s) in enumerate(zip(precision, recall, f1, support))},
        "weighted_precision": float(precision @ support / total),
        "weighted_recall": float(recall @ support / total),
        "weighted_f1": float(f1 @ support / total),
        "accuracy": float(np.trace(cm) / total),
        "mcc": matthews_corrcoef(cm),
    }


def feature_importance(feature_names: tuple[str, ...], baseline_f1: float,
                       scores: Sequence[float]) -> dict:
    """The importance_report.json payload: baseline_f1 is the weighted F1
    with every feature, scores[i] the score without feature i
    (pipeline.importance_run_from_mts runs both). A feature's ratio is its
    score over baseline_f1, and its importance the normalized positive
    part of (1 - ratio): a ratio above 1 clamps to zero importance, and
    if no removal hurts, every importance is 0.
    """
    if baseline_f1 == 0.0:
        raise ValueError("baseline weighted F1 is 0; importance ratios are undefined")
    ratios = np.array(scores, dtype=np.float64) / baseline_f1
    raw = np.maximum(0.0, 1.0 - ratios)
    total = raw.sum()
    importance = raw / total if total > 0 else np.zeros_like(raw)
    return {
        "baseline_f1": baseline_f1,
        "features": {name: {"ratio": float(r), "importance": float(w)}
                     for name, r, w in zip(feature_names, ratios, importance)},
    }
