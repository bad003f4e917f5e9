"""Distance-based clustering: DBSCAN with an automatic eps knee, and
Ward agglomerative clustering via Lance-Williams updates.

Both algorithms consume a precomputed Euclidean distance matrix and
resolve every tie toward the lowest point index, so results are
reproducible regardless of dict ordering or BLAS threading.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

NOISE = 0


@dataclass
class ClusterAssignment:
    """Cluster labels per user: 1..n_clusters, with 0 reserved for noise."""

    labels: np.ndarray
    user_ids: tuple[str, ...]
    n_clusters: int
    has_noise: bool

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (len(self.user_ids),):
            raise ValueError(
                f"labels shape {self.labels.shape} != ({len(self.user_ids)},)"
            )
        present = set(self.labels.tolist())
        allowed = set(range(1, self.n_clusters + 1))
        if self.has_noise:
            allowed.add(NOISE)
        if not present <= allowed:
            raise ValueError(f"unexpected cluster labels {sorted(present - allowed)}")

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


@dataclass
class Dendrogram:
    """Agglomerative merge history. Cluster ids follow the convention of
    leaves 0..N-1 and merge m creating id N+m. Heights never decrease."""

    n_leaves: int
    merges: list[tuple[int, int, float, int]]  # (id_a, id_b, height, new size)

    def to_dict(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "merges": [[a, b, h, s] for a, b, h, s in self.merges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Dendrogram":
        return cls(
            n_leaves=d["n_leaves"],
            merges=[(int(a), int(b), float(h), int(s)) for a, b, h, s in d["merges"]],
        )


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows. Inputs with more than
    two dimensions (e.g. latent sequences shaped (N, T, 1)) are flattened
    per row first. The result is exactly symmetric with a zero diagonal.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2:
        raise ValueError(f"points must have at least 2 dimensions, got shape {pts.shape}")
    pts = pts.reshape(pts.shape[0], -1)
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    dist = np.zeros((n, n))
    for i in range(n - 1):
        diffs = pts[i + 1 :] - pts[i]
        row = np.sqrt(np.sum(diffs * diffs, axis=1))
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return dist


def kth_neighbor_distances(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's distance to its k-th nearest other point. A row's zero
    self-distance sorts first, so that is column k of the row
    partitioned at k."""
    return np.partition(dist, k, axis=1)[:, k]


def kdist_knee_eps(dist: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Pick DBSCAN eps from the sorted k-distance curve.

    For each point take the distance to its k-th nearest neighbor (self
    excluded), sort descending, and return the curve value at the point
    furthest from the straight line joining the curve's endpoints, plus
    the curve itself. A flat curve yields its common value; an all-zero
    curve yields the smallest positive float so eps stays positive.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    curve = np.sort(kth_neighbor_distances(dist, k))[::-1]
    if curve[0] == 0.0:
        log.warning("all k-distances are zero; using smallest positive eps")
        return float(np.finfo(np.float64).tiny), curve
    x = np.arange(n, dtype=np.float64)
    x0, y0 = 0.0, curve[0]
    x1, y1 = float(n - 1), curve[-1]
    norm = np.hypot(y1 - y0, x1 - x0)
    if norm == 0.0:
        return float(curve[0]), curve
    perp = np.abs((y1 - y0) * x - (x1 - x0) * curve + x1 * y0 - y1 * x0) / norm
    knee = int(np.argmax(perp))
    return float(curve[knee]), curve


def dbscan(dist: np.ndarray, eps: float, min_pts: int,
           user_ids: tuple[str, ...] | None = None) -> ClusterAssignment:
    """Density clustering on a distance matrix.

    A point is core when at least min_pts points (itself included) lie
    within eps. Clusters are the connected components of core points
    under the eps relation, numbered 1.. in order of their smallest core
    index. Non-core points adopt the cluster of their lowest-index core
    neighbor within eps, or stay noise (label 0).
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be at least 1, got {min_pts}")
    if user_ids is None:
        user_ids = tuple(str(i) for i in range(n))
    within = dist <= eps
    counts = within.sum(axis=1)
    core = counts >= min_pts
    labels = np.zeros(n, dtype=np.int64)
    next_id = 1
    for seed in range(n):
        if not core[seed] or labels[seed] != NOISE:
            continue
        cluster = next_id
        next_id += 1
        frontier = [seed]
        labels[seed] = cluster
        while frontier:
            point = frontier.pop(0)
            for nb in np.flatnonzero(within[point]):
                if core[nb] and labels[nb] == NOISE:
                    labels[nb] = cluster
                    frontier.append(nb)
    for point in range(n):
        if core[point]:
            continue
        core_neighbors = np.flatnonzero(within[point] & core)
        if core_neighbors.size:
            labels[point] = labels[core_neighbors[0]]
    return ClusterAssignment(
        labels=labels,
        user_ids=user_ids,
        n_clusters=next_id - 1,
        has_noise=bool(np.any(labels == NOISE)),
    )


def ward_agglomerative(dist: np.ndarray) -> Dendrogram:
    """Ward linkage from a Euclidean distance matrix.

    Runs Lance-Williams recurrence on squared distances; reported merge
    heights are the square roots, matching the usual linkage convention.
    When several pairs share the minimal distance the lexicographically
    smallest slot pair merges first, and a merged cluster keeps the lower
    slot (which is also its smallest original member).
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    d2 = dist**2
    # Merged-away slots get inf like the diagonal, so argmin never picks them.
    np.fill_diagonal(d2, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)  # current cluster id occupying each slot
    merges: list[tuple[int, int, float, int]] = []
    for step in range(n - 1):
        # d2 is symmetric, so its first minimum in row-major order is the
        # lexicographically smallest slot pair, with bi < bj.
        bi, bj = divmod(int(np.argmin(d2)), n)
        best = d2[bi, bj]
        ni, nj = sizes[bi], sizes[bj]
        merged_size = ni + nj
        active[bj] = False
        others = np.flatnonzero(active)
        others = others[others != bi]
        nk = sizes[others]
        d2[others, bi] = d2[bi, others] = (
            (ni + nk) * d2[others, bi] + (nj + nk) * d2[others, bj] - nk * best
        ) / (merged_size + nk)
        d2[bj, :] = d2[:, bj] = np.inf
        merges.append((int(ids[bi]), int(ids[bj]), float(np.sqrt(best)), int(merged_size)))
        ids[bi] = n + step
        sizes[bi] = merged_size
    return Dendrogram(n_leaves=n, merges=merges)


def cut_dendrogram(dendrogram: Dendrogram, k: int,
                   user_ids: tuple[str, ...] | None = None) -> ClusterAssignment:
    """Replay the first N-k merges to obtain exactly k clusters, labeled
    1..k in order of each cluster's smallest member index."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if user_ids is None:
        user_ids = tuple(str(i) for i in range(n))
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    members: dict[int, int] = {i: i for i in range(n)}  # merge id -> any leaf
    for m, (a, b, _h, _s) in enumerate(dendrogram.merges[: n - k]):
        ra, rb = find(members[a]), find(members[b])
        parent[rb] = ra
        members[n + m] = ra
    roots: dict[int, list[int]] = {}
    for leaf in range(n):
        roots.setdefault(find(leaf), []).append(leaf)
    labels = np.zeros(n, dtype=np.int64)
    for cluster_id, root in enumerate(sorted(roots, key=lambda r: min(roots[r])), start=1):
        labels[roots[root]] = cluster_id
    return ClusterAssignment(
        labels=labels,
        user_ids=user_ids,
        n_clusters=len(roots),
        has_noise=False,
    )


def save_assignment_csv(assignment: ClusterAssignment, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("user_id", "cluster_id"))
        for uid, label in zip(assignment.user_ids, assignment.labels):
            writer.writerow((uid, int(label)))


def load_assignment_csv(path) -> ClusterAssignment:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_id", "cluster_id"]:
            raise ValueError(f"{path}: expected header user_id,cluster_id")
        lines = {}   # user id -> its line
        labels = []
        for line_no, rec in enumerate(reader, start=2):
            if len(rec) != 2:
                raise ValueError(f"{path}: line {line_no}: expected 2 columns, got {len(rec)}")
            try:
                label = int(rec[1])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: cluster id is not an integer: "
                                 f"{rec[1]!r}") from None
            if label < NOISE:
                raise ValueError(f"{path}: line {line_no}: cluster id {label} is negative "
                                 f"(0 marks noise)")
            if rec[0] in lines:
                raise ValueError(f"{path}: line {line_no}: user id {rec[0]!r} repeats "
                                 f"line {lines[rec[0]]}")
            lines[rec[0]] = line_no
            labels.append(label)
        user_ids = list(lines)
    arr = np.asarray(labels, dtype=np.int64)
    n_clusters = int(arr.max()) if arr.size and arr.max() > 0 else 0
    return ClusterAssignment(
        labels=arr,
        user_ids=tuple(user_ids),
        n_clusters=n_clusters,
        has_noise=bool(np.any(arr == NOISE)),
    )


def save_dendrogram_json(dendrogram: Dendrogram, path) -> None:
    with open(path, "w") as fh:
        json.dump(dendrogram.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
