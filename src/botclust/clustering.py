"""Distance-based clustering: DBSCAN with an automatic eps knee, and
Ward agglomerative clustering via Lance-Williams updates.

Both consume a precomputed Euclidean distance matrix and resolve every
tie toward the lowest point index, so results do not depend on BLAS
threading. Each step is an array operation over what it changed: DBSCAN
grows clusters by frontiers, Ward keeps each row's nearest slot, and a
dendrogram cut follows parent pointers.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .ingest import load_id_csv, reading, write_csv, write_json

log = logging.getLogger(__name__)

NOISE = 0


@dataclass
class ClusterAssignment:
    """Cluster labels per user: 1..n_clusters, with 0 reserved for noise.
    The count and the noise flag are read from the labels, so they cannot
    disagree with them; an id below the largest may have no members. The
    user ids default to "0".."N-1"."""

    labels: np.ndarray
    user_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.user_ids is None:
            self.user_ids = tuple(str(i) for i in range(len(self.labels)))
        if self.labels.shape != (len(self.user_ids),):
            raise ValueError(f"labels shape {self.labels.shape} != ({len(self.user_ids)},)")
        if np.any(self.labels < NOISE):
            raise ValueError(f"cluster labels must not be negative, got {self.labels.min()}")

    @property
    def n_clusters(self) -> int:
        """The largest cluster id; 0 when every point is noise."""
        return int(self.labels.max(initial=NOISE))

    @property
    def has_noise(self) -> bool:
        return bool(np.any(self.labels == NOISE))

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


@dataclass
class Dendrogram:
    """Agglomerative merge history. Cluster ids follow the convention of
    leaves 0..N-1 and merge m creating id N+m. Heights never decrease."""

    n_leaves: int
    merges: list[tuple[int, int, float, int]]  # (id_a, id_b, height, new size)


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of points (N, width),
    one row per user. The result is exactly symmetric with a zero
    diagonal.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D (N, width), got shape {pts.shape}")
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
    norm = np.hypot(y1 - y0, x1 - x0)   # >= 1, as n >= 2
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
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    within &= core  # each row now marks only its core neighbours
    labels = np.zeros(n, dtype=np.int64)
    next_id = 1
    for seed in np.flatnonzero(core):
        if labels[seed] != NOISE:
            continue
        frontier = np.array([seed])
        while frontier.size:
            labels[frontier] = next_id
            frontier = np.flatnonzero(within[frontier].any(axis=0) & (labels == NOISE))
        next_id += 1
    border = ~core & within.any(axis=1)
    if border.any():
        # argmax finds each border point's first True: its lowest-index core neighbour.
        labels[border] = labels[within[border].argmax(axis=1)]
    return ClusterAssignment(labels, user_ids)


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
    rows = np.arange(n)
    nearest = np.argmin(d2, axis=1)  # each row's first minimal column
    merges: list[tuple[int, int, float, int]] = []
    for step in range(n - 1):
        # The first row holding the global minimum, at its first minimal
        # column, is d2's first minimum in row-major order: as d2 is
        # symmetric, the lexicographically smallest slot pair, bi < bj.
        bi = int(np.argmin(d2[rows, nearest]))
        bj = int(nearest[bi])
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
        # Only column bi changed and column bj closed. A row whose nearest
        # slot was one of them rescans; any other row moves to bi if bi is
        # now closer, or as close and lower.
        cur = nearest[others]
        new, old = d2[others, bi], d2[others, cur]
        nearest[others[(new < old) | ((new == old) & (bi < cur))]] = bi
        rescan = np.append(others[(cur == bi) | (cur == bj)], bi)
        nearest[rescan] = np.argmin(d2[rescan], axis=1)
    return Dendrogram(n_leaves=n, merges=merges)


def cut_dendrogram(dendrogram: Dendrogram, k: int,
                   user_ids: tuple[str, ...] | None = None) -> ClusterAssignment:
    """Replay the first N-k merges to obtain exactly k clusters, labeled
    1..k in order of each cluster's smallest member index."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    # Both children of merge m point at its id n+m; jumping every pointer
    # to its parent's parent until none moves leaves each leaf at its root.
    parent = np.arange(2 * n - k)
    children = np.array([(a, b) for a, b, _h, _s in dendrogram.merges[: n - k]],
                        dtype=np.int64).reshape(-1, 2)
    parent[children[:, 0]] = parent[children[:, 1]] = np.arange(n, 2 * n - k)
    while not np.array_equal(up := parent[parent], parent):
        parent = up
    _, smallest, inverse = np.unique(parent[:n], return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(smallest))  # clusters ordered by smallest member
    return ClusterAssignment(rank[inverse] + 1, user_ids)


def save_assignment_csv(assignment: ClusterAssignment, path) -> None:
    """The ``user_id,cluster_id`` CSV that ingest.load_id_csv reads."""
    write_csv(path, ("user_id", "cluster_id"), zip(assignment.user_ids, assignment.labels.tolist()))


def load_assignment_csv(path) -> ClusterAssignment:
    """save_assignment_csv's file, read by ingest.load_id_csv: a damaged
    row is a ParseError with its line."""
    with reading(path):
        clusters = load_id_csv(path, "cluster_id")
        return ClusterAssignment(list(clusters.values()), tuple(clusters))


def save_dendrogram_json(dendrogram: Dendrogram, path) -> None:
    """The merge history, through ingest.write_json."""
    write_json(path, asdict(dendrogram))
