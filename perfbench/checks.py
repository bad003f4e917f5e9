"""Output checks applied to every timed run, outside the timed region.

A run passes when its reports parse, ``clusters.csv`` covers exactly the
generated users, the confusion matrix rebuilt from ``clusters.csv`` and
the labels equals the reported one, the raw tensor conserves the input,
and (for Ward) the dendrogram agrees with scipy's Ward linkage. The
artifact digest lets the caller require byte-identical results across
repeats of one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from botclust.mts import SENTINEL, load_tensor

from workloads import Population, Workload

log = logging.getLogger("perfbench")

# Compared byte for byte across repeats (metrics_report.json without its
# timing block), as acceptance criterion 8 does for run-all.
DETERMINISTIC_ARTIFACTS = (
    "clusters.csv", "confusion.csv", "cluster_report.json", "dendrogram.json",
    "metrics_report.json",
)

WARD_RTOL = 1e-9


def _confusion(truth: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (truth, pred), 1)
    return cm


def _expected_confusions(wl: Workload, clusters: dict[str, int],
                         classes: dict[str, int]) -> list[np.ndarray]:
    """Confusion matrices the documented labeling rules allow.

    Multiclass: noise is genuine and each cluster takes its majority true
    class (ties to the lowest id). Binary on a two-way Ward cut: one
    cluster is genuine and the other bot; which one is the polarity
    rule's choice, so either naming is allowed but the counts must match
    one of them exactly.
    """
    users = sorted(clusters)
    truth = np.array([classes[u] for u in users], dtype=np.int64)
    cl = np.array([clusters[u] for u in users], dtype=np.int64)
    if wl.task == "multiclass":
        k = int(max(classes.values())) + 1
        pred = np.zeros_like(truth)
        for cid in np.unique(cl[cl != 0]):
            members = cl == cid
            pred[members] = int(np.argmax(np.bincount(truth[members], minlength=k)))
        return [_confusion(truth, pred, k)]
    bot = (truth != 0).astype(np.int64)
    return [_confusion(bot, (cl != g).astype(np.int64), 2) for g in np.unique(cl)]


def _read_clusters(path: Path) -> tuple[dict[str, int], int]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["user_id", "cluster_id"]:
        raise ValueError(f"{path.name}: bad header")
    body = rows[1:]
    return {r[0]: int(r[1]) for r in body}, len(body)


def _read_points(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)


def _ward_problems(out: Path, n: int) -> list[str]:
    """The dendrogram has n-1 merges with non-decreasing heights, and its
    sorted heights match scipy's Ward linkage on the same points."""
    merges = json.loads((out / "dendrogram.json").read_text())["merges"]
    heights = np.array([m[2] for m in merges], dtype=np.float64)
    problems = []
    if len(merges) != n - 1:
        problems.append(f"dendrogram has {len(merges)} merges, expected {n - 1}")
    if np.any(np.diff(heights) < 0):
        problems.append("dendrogram heights decrease")
    try:
        from scipy.cluster.hierarchy import linkage
    except ImportError:
        log.warning("scipy is not importable; Ward cross-check skipped")
        return problems
    ref = np.sort(linkage(_read_points(out / "global_features.csv"), method="ward")[:, 2])
    if ref.shape != heights.shape or not np.allclose(np.sort(heights), ref, rtol=WARD_RTOL, atol=0.0):
        problems.append("Ward heights differ from scipy linkage beyond 1e-9 relative")
    return problems


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in DETERMINISTIC_ARTIFACTS:
        path = out / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "metrics_report.json":
            doc = json.loads(data)
            doc.pop("timing", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def check_run(wl: Workload, pop: Population, out: Path) -> tuple[list[str], dict]:
    """Check one finished run's artifacts. Returns (problems, facts);
    facts carry the quality figures and exact counts the run produced."""
    try:
        metrics_doc = json.loads((out / "metrics_report.json").read_text())
        json.loads((out / "cluster_report.json").read_text())
        train_doc = json.loads((out / "train_report_uts.json").read_text())
        clusters, n_rows = _read_clusters(out / "clusters.csv")
        metrics = metrics_doc["metrics"]
        reported = np.array(metrics["confusion"], dtype=np.int64)
        facts = {
            "labeling.weighted_f1": float(metrics["weighted_f1"]),
            "autoencoder.final_train_mse": float(train_doc["train"]["train_mse"][-1]),
        }
        mts = load_tensor(out / "mts_raw.tensor")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], {}

    problems = []
    if n_rows != len(clusters) or set(clusters) != set(pop.classes):
        problems.append("clusters.csv does not cover exactly the generated users")
    elif not any(np.array_equal(reported, cm) for cm in _expected_confusions(wl, clusters, pop.classes)):
        problems.append("confusion matrix in metrics_report.json does not follow from clusters.csv")

    values = mts.values
    active = ~np.all(values == SENTINEL, axis=2)
    sums = values[active].sum(axis=0)
    expected = np.array([pop.feature_sums[f] for f in mts.feature_names], dtype=np.float64)
    if sorted(mts.user_ids) != sorted(pop.classes):
        problems.append("raw tensor rows are not the generated users")
    if not np.array_equal(sums, expected):
        problems.append(f"raw tensor feature sums {sums.tolist()} != generated {expected.tolist()}")
    if int(active.sum()) != pop.active_cells:
        problems.append(f"raw tensor has {int(active.sum())} active cells, "
                        f"expected {pop.active_cells} (user, day) pairs")
    if wl.ward:
        try:
            problems += _ward_problems(out, len(pop.classes))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable Ward output: {exc!r}")

    n, t, d = values.shape
    facts.update({
        "mts.n_users": n,
        "mts.n_days": t,
        "mts.n_features": d,
        "mts.sentinel_frac": float(1.0 - active.mean()),
        "mts.tensor_mb": 8.0 * n * t * d / 2**20,
        "digest": _digest(out),
    })
    return problems, facts
