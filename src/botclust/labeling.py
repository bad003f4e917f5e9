"""Turning cluster assignments into account labels, plus scoring.

Ground-truth labels enter the pipeline only here: clustering itself is
unsupervised, and the true classes are consulted solely to name clusters
and to score the result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clustering import NOISE, ClusterAssignment, kth_neighbor_distances
from .ingest import GENUINE_CLASS
from .legs import map_legs


def assign_labels_binary(
    assignment: ClusterAssignment,
    dist: np.ndarray | None = None,
    genuine_cluster: int | None = None,
    polarity: bool = False,
    min_pts: int = 4,
) -> np.ndarray:
    """Binary account labels (0 genuine, 1 bot) from a clustering.

    Default rule (the density route): noise points are genuine, every
    cluster is a bot group, since bots coordinate into dense clumps while
    genuine accounts scatter. With polarity=True (the hierarchical route
    cut at two clusters), the less locally dense cluster is called
    genuine instead: each cluster scores the mean distance from a member
    to its k-th nearest fellow member, k = min(min_pts, size - 1), and
    the larger score is genuine. Unlike mean pairwise distance, this
    still calls several tight botnets set far apart the bot side. A
    cluster of fewer than 2 members scores 0; ties fall to the lower
    cluster id. min_pts is DBSCAN's density scale
    (PipelineConfig.min_pts). Pass genuine_cluster to override the
    polarity choice.
    """
    labels = assignment.labels
    out = np.ones(len(labels), dtype=np.int64)
    if genuine_cluster is None and not polarity:
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
        if dist is None:
            raise ValueError("polarity rule needs the distance matrix")
        scales = local_density_scores(assignment, dist, min_pts)
        genuine_cluster = 1 if scales[0] >= scales[1] else 2
    if not 1 <= genuine_cluster <= assignment.n_clusters:
        raise ValueError(f"genuine_cluster {genuine_cluster} out of range")
    out[labels == genuine_cluster] = GENUINE_CLASS
    return out


def local_density_scores(assignment: ClusterAssignment, dist: np.ndarray,
                         min_pts: int) -> list[float]:
    """Per cluster, in id order: the mean distance from each member to its
    k-th nearest other member, k = min(min_pts, size - 1); 0.0 for fewer
    than 2 members."""
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
    out = np.full(len(true_labels), GENUINE_CLASS, dtype=np.int64)
    for cid in range(1, assignment.n_clusters + 1):
        members = assignment.members(cid)
        if members.size == 0:
            continue
        counts = Counter(true_labels[members].tolist())
        top = max(counts.values())
        winner = min(c for c, v in counts.items() if v == top)
        out[members] = winner
    return out


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
    return cov / np.sqrt(f1 * f2)


@dataclass
class MetricsReport:
    """Per-class and weighted precision/recall/F1, accuracy, and MCC."""

    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    accuracy: float
    mcc: float

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "per_class": {
                str(k): {
                    "precision": float(self.precision[k]),
                    "recall": float(self.recall[k]),
                    "f1": float(self.f1[k]),
                    "support": int(self.support[k]),
                }
                for k in range(len(self.support))
            },
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "accuracy": self.accuracy,
            "mcc": self.mcc,
        }


def prf_metrics(true_labels: Sequence[int], pred_labels: Sequence[int],
                n_classes: int) -> MetricsReport:
    """Score predictions. Any zero denominator (empty class, no
    predictions of a class) contributes 0 rather than raising."""
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
    return MetricsReport(
        confusion=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        weighted_precision=float(precision @ support / total),
        weighted_recall=float(recall @ support / total),
        weighted_f1=float(f1 @ support / total),
        accuracy=float(np.trace(cm) / total),
        mcc=matthews_corrcoef(cm),
    )


@dataclass
class ImportanceReport:
    """Leave-one-feature-out sensitivity. ratio[i] is the weighted F1
    with feature i dropped over the all-features baseline; importance is
    the normalized positive part of (1 - ratio)."""

    feature_names: tuple[str, ...]
    baseline_f1: float
    ratios: np.ndarray
    importance: np.ndarray

    def to_dict(self) -> dict:
        return {
            "baseline_f1": self.baseline_f1,
            "features": {
                name: {"ratio": float(self.ratios[i]), "importance": float(self.importance[i])}
                for i, name in enumerate(self.feature_names)
            },
        }


def feature_importance(
    run_with_features: Callable[[tuple[str, ...]], float],
    feature_names: tuple[str, ...],
) -> ImportanceReport:
    """Rank features by how much weighted F1 drops when each is removed.

    run_with_features executes the full pipeline on a feature subset and
    returns its weighted F1. The baseline and the F reduced runs are
    independent, so they run side by side (see legs.map_legs). A ratio
    above 1 (score improved without the feature) clamps to zero
    importance; if no removal hurts, every importance is 0.
    """
    if len(feature_names) < 2:
        raise ValueError("importance needs at least 2 features")
    subsets = [tuple(feature_names)] + [
        tuple(n for j, n in enumerate(feature_names) if j != i) for i in range(len(feature_names))
    ]
    baseline, *scores = map_legs(run_with_features, [(subset,) for subset in subsets])
    if baseline == 0.0:
        raise ValueError("baseline weighted F1 is 0; importance ratios are undefined")
    ratios = np.array(scores, dtype=np.float64) / baseline
    raw = np.maximum(0.0, 1.0 - ratios)
    total = raw.sum()
    importance = raw / total if total > 0 else np.zeros_like(raw)
    return ImportanceReport(
        feature_names=tuple(feature_names),
        baseline_f1=baseline,
        ratios=ratios,
        importance=importance,
    )
