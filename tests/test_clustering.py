import csv
import io
import json
import logging

import numpy as np
import pytest

from botclust.clustering import (
    NOISE,
    ClusterAssignment,
    Dendrogram,
    cut_dendrogram,
    dbscan,
    distance_matrix,
    kdist_knee_eps,
    load_assignment_csv,
    save_assignment_csv,
    save_dendrogram_json,
    ward_agglomerative,
)
from botclust.numerics import seeded_rng

from oracles import (
    loop_cut_dendrogram,
    loop_dbscan,
    loop_ward_agglomerative,
    oracle_dbscan,
    oracle_ward,
)


def _members_by_merge(dendrogram):
    """Expand each merge of a Dendrogram into its two leaf membership sets."""
    members = {i: frozenset([i]) for i in range(dendrogram.n_leaves)}
    out = []
    for step, (id_a, id_b, height, size) in enumerate(dendrogram.merges):
        a, b = members[id_a], members[id_b]
        out.append((a, b, height, size))
        members[dendrogram.n_leaves + step] = a | b
    return out


def _canonical_partition(labels):
    """Map labels to cluster-membership sets, noise kept separate."""
    clusters = {}
    for idx, lab in enumerate(labels):
        clusters.setdefault(int(lab), set()).add(idx)
    noise = frozenset(clusters.pop(NOISE, set()))
    return noise, frozenset(frozenset(v) for v in clusters.values())


def test_distance_matrix_hand_values():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    dist = distance_matrix(pts)
    assert dist[0, 1] == pytest.approx(5.0)
    assert dist[0, 2] == pytest.approx(1.0)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)


@pytest.mark.parametrize("shape", [(4,), (4, 5, 3)])
def test_distance_matrix_takes_2d_points_only(shape):
    with pytest.raises(ValueError, match=r"points must be 2-D \(N, width\)"):
        distance_matrix(np.zeros(shape))


@pytest.mark.parametrize("width", [1, 19, 64, 319])
@pytest.mark.parametrize("n", [2, 3, 17, 80, 301])
def test_distance_matrix_of_a_member_subset_is_the_submatrix_bit_for_bit(n, width):
    # Sorted members keep each pair's operand order, so a cluster's
    # submatrix can be rebuilt from its points instead of copied.
    rng = seeded_rng(n * 1000 + width)
    for points in (rng.normal(size=(n, width)), rng.integers(-50, 50, size=(n, width)).astype(float)):
        dist = distance_matrix(points)
        for _ in range(3):
            members = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
            assert np.array_equal(distance_matrix(points[members]), dist[np.ix_(members, members)])


def test_kdist_knee_separates_blob_scale_from_outlier_scale():
    """Two tight blobs plus scattered outliers: the k-distance curve has a
    cliff between outlier reach and blob reach, and the knee eps lands
    below the cliff so DBSCAN keeps blobs intact and outliers as noise."""
    rng = seeded_rng(2)
    blob1 = rng.normal(0.0, 0.1, size=(12, 2))
    blob2 = rng.normal(10.0, 0.1, size=(12, 2))
    outliers = np.array([[30.0, 30.0], [-30.0, 25.0], [25.0, -30.0], [-28.0, -27.0]])
    dist = distance_matrix(np.vstack([blob1, blob2, outliers]))
    eps, curve = kdist_knee_eps(dist, k=3)
    assert curve.shape == (28,)
    assert np.all(np.diff(curve) <= 1e-12)  # descending
    assert 0.0 < eps < 5.0
    out = dbscan(dist, eps, min_pts=4)
    assert set(out.labels[:12]) == {1}
    assert set(out.labels[12:24]) == {2}
    assert set(out.labels[24:]) == {NOISE}


def test_kdist_knee_all_identical_points_warns(caplog):
    dist = np.zeros((6, 6))
    with caplog.at_level(logging.WARNING):
        eps, curve = kdist_knee_eps(dist, k=3)
    assert np.all(curve == 0.0)
    assert eps > 0.0
    assert eps < 1e-200
    assert any("k-distance" in r.message or "flat" in r.message.lower() for r in caplog.records)


def test_kdist_knee_flat_positive_curve_is_its_value():
    # Evenly spaced points: every point's nearest neighbor is 1 away, so
    # every perpendicular distance is 0 and the knee is the first value.
    eps, curve = kdist_knee_eps(distance_matrix(np.arange(6.0)[:, None]), k=1)
    assert curve.tolist() == [1.0] * 6
    assert eps == 1.0


def test_kdist_requires_valid_k():
    dist = np.zeros((4, 4))
    with pytest.raises(ValueError):
        kdist_knee_eps(dist, k=0)
    with pytest.raises(ValueError):
        kdist_knee_eps(dist, k=4)


def test_dbscan_hand_fixture_chain_and_noise():
    # Points on a line: 0,1,2 close chain; 10 isolated.
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    dist = distance_matrix(pts)
    out = dbscan(dist, eps=1.0, min_pts=2, user_ids=("a", "b", "c", "d"))
    assert list(out.labels) == [1, 1, 1, NOISE]
    assert out.n_clusters == 1
    assert out.has_noise
    assert list(out.members(1)) == [0, 1, 2]


def test_dbscan_self_inclusion_in_neighborhood():
    # min_pts=1 makes every point core via its own neighborhood.
    pts = np.array([[0.0], [5.0]])
    out = dbscan(distance_matrix(pts), eps=1.0, min_pts=1)
    assert list(out.labels) == [1, 2]
    assert not out.has_noise


def test_dbscan_border_goes_to_lowest_core_neighbor():
    # Point 8 at 0.9 is a border point: only the cores 6 (at 0.0) and 7
    # (at 1.8) lie within eps of it, so it counts 3 < min_pts points. The
    # two cores are 1.8 apart, in different clusters, and the right-hand
    # cluster is number 1 because point 0 seeds it. So the lowest-index
    # core neighbour (6) names cluster 2, where neither the highest-index
    # one nor the lowest cluster label would.
    pts = np.array([[2.1], [2.3], [2.5], [-0.3], [-0.5], [-0.7], [0.0], [1.8], [0.9]])
    dist = distance_matrix(pts)
    assert np.sum(dist[8] <= 1.0) == 3
    out = dbscan(dist, eps=1.0, min_pts=4)
    assert out.n_clusters == 2
    assert (out.labels[6], out.labels[7]) == (2, 1)
    assert out.labels[8] == 2


def test_dbscan_matches_bruteforce_small_random():
    rng = seeded_rng(3)
    for trial in range(10):
        n = int(rng.integers(5, 25))
        pts = rng.normal(size=(n, 2))
        dist = distance_matrix(pts)
        eps = float(rng.uniform(0.2, 1.5))
        min_pts = int(rng.integers(2, 5))
        fast = dbscan(dist, eps, min_pts)
        ref_labels, _ = oracle_dbscan(dist, eps, min_pts)
        assert np.array_equal(fast.labels, ref_labels), (trial, eps, min_pts)


def test_ward_three_point_hand_values():
    pts = np.array([[0.0], [1.0], [10.0]])
    dend = ward_agglomerative(distance_matrix(pts))
    assert dend.n_leaves == 3
    (a0, b0, h0, s0), (a1, b1, h1, s1) = dend.merges
    assert (a0, b0, s0) == (0, 1, 2)
    assert h0 == pytest.approx(1.0)
    # Ward cost of {0,1} vs {10}: 2*2*1/3 * (10 - 0.5)^2 = 361/3.
    assert (a1, b1, s1) == (3, 2, 3)
    assert h1 == pytest.approx(np.sqrt(361.0 / 3.0), rel=1e-12)


def test_ward_coincident_points_merge_at_zero():
    pts = np.array([[1.0], [1.0], [5.0]])
    dend = ward_agglomerative(distance_matrix(pts))
    assert dend.merges[0][2] == 0.0
    assert dend.merges[0][:2] == (0, 1)


def test_ward_heights_monotone_on_random_data():
    rng = seeded_rng(4)
    pts = rng.normal(size=(15, 3))
    dend = ward_agglomerative(distance_matrix(pts))
    heights = [m[2] for m in dend.merges]
    assert all(heights[i] <= heights[i + 1] + 1e-12 for i in range(len(heights) - 1))


def test_ward_matches_naive_reference_small_random():
    rng = seeded_rng(5)
    for trial in range(5):
        n = int(rng.integers(4, 12))
        pts = rng.normal(size=(n, 2))
        dist = distance_matrix(pts)
        fast = _members_by_merge(ward_agglomerative(dist))
        ref = oracle_ward(dist)
        assert len(fast) == len(ref)
        for (fa, fb, fh, _), (ra, rb, rh) in zip(fast, ref):
            assert {fa, fb} == {ra, rb}, trial
            assert fh == pytest.approx(rh, rel=1e-9, abs=1e-12)


def test_ward_ties_merge_lexicographically_smallest_pair():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    merges = ward_agglomerative(distance_matrix(pts)).merges
    assert [(a, b, s) for a, b, _h, s in merges] == [(0, 1, 2), (2, 3, 2), (4, 5, 4)]
    heights = [h for _a, _b, h, _s in merges]
    assert heights == pytest.approx([1.0, 1.0, np.sqrt(2.0)], rel=1e-12)


def test_ward_matches_scipy_linkage_n2000():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    pts = seeded_rng(9).normal(size=(2000, 4))
    ours = _members_by_merge(ward_agglomerative(distance_matrix(pts)))
    z = hierarchy.linkage(pts, method="ward")
    members = {i: frozenset([i]) for i in range(len(pts))}
    for step, (a, b, height, size) in enumerate(z):
        merged = members[int(a)] | members[int(b)]
        members[len(pts) + step] = merged
        oa, ob, oh, osize = ours[step]
        assert oa | ob == merged and osize == size, step
        assert oh == pytest.approx(height, rel=1e-9), step


def _tie_prone_points(kind, n):
    """Points whose distances are distinct ("gaussian"), or tie often:
    integer points, every point twice, or the unit square's corners."""
    if kind == "square":
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pts = seeded_rng(n).normal(size=(n, 3))
    if kind == "rounded":
        return np.round(2.0 * pts)
    if kind == "duplicated":
        return np.repeat(pts[: (n + 1) // 2], 2, axis=0)[:n]
    return pts


WARD_CASES = [(kind, n) for kind in ("gaussian", "rounded", "duplicated")
              for n in (2, 3, 80, 300)] + [("square", 4)]


@pytest.mark.parametrize("kind,n", WARD_CASES)
def test_ward_and_cut_equal_the_loop_versions(kind, n):
    dist = distance_matrix(_tie_prone_points(kind, n))
    n = dist.shape[0]
    dend = ward_agglomerative(dist)
    assert dend.merges == loop_ward_agglomerative(dist).merges
    for k in sorted({1, 2, n // 2, n - 1, n} - {0}):
        cut, ref = cut_dendrogram(dend, k), loop_cut_dendrogram(dend, k)
        assert np.array_equal(cut.labels, ref.labels), k
        assert cut.n_clusters == ref.n_clusters == k


@pytest.mark.parametrize("kind", ["gaussian", "rounded", "duplicated"])
@pytest.mark.parametrize("min_pts", [1, 2, 4])
def test_dbscan_equals_the_loop_version(kind, min_pts):
    dist = distance_matrix(_tie_prone_points(kind, 80))
    knee, _ = kdist_knee_eps(dist, k=4)
    for eps in (0.0, knee / 2, knee, 2 * knee, float(dist.max())):
        out, ref = dbscan(dist, eps, min_pts), loop_dbscan(dist, eps, min_pts)
        assert np.array_equal(out.labels, ref.labels), eps
        # ids run 1..n_clusters without a gap
        assert out.n_clusters == len(set(out.labels.tolist()) - {NOISE}), eps


def test_cut_dendrogram_labels_by_smallest_member():
    pts = np.array([[0.0], [0.1], [5.0], [5.1], [10.0]])
    dend = ward_agglomerative(distance_matrix(pts))
    cut = cut_dendrogram(dend, k=3)
    assert list(cut.labels) == [1, 1, 2, 2, 3]
    assert cut.n_clusters == 3
    assert not cut.has_noise


def test_cut_dendrogram_extremes_and_refinement():
    rng = seeded_rng(6)
    pts = rng.normal(size=(10, 2))
    dend = ward_agglomerative(distance_matrix(pts))
    all_one = cut_dendrogram(dend, k=1)
    assert set(all_one.labels) == {1}
    singletons = cut_dendrogram(dend, k=10)
    assert sorted(singletons.labels) == list(range(1, 11))
    # k+1 clusters must refine k clusters: every finer cluster sits
    # inside exactly one coarser cluster.
    for k in range(1, 10):
        coarse = cut_dendrogram(dend, k=k).labels
        fine = cut_dendrogram(dend, k=k + 1).labels
        for cid in set(fine):
            parents = {coarse[i] for i in range(10) if fine[i] == cid}
            assert len(parents) == 1
    with pytest.raises(ValueError):
        cut_dendrogram(dend, k=0)
    with pytest.raises(ValueError):
        cut_dendrogram(dend, k=11)


def test_assignment_validation():
    with pytest.raises(ValueError, match="must not be negative, got -1"):
        ClusterAssignment(labels=np.array([0, 1, -1]), user_ids=("a", "b", "c"))
    with pytest.raises(ValueError, match="labels shape"):
        ClusterAssignment(labels=np.array([0, 1]), user_ids=("a", "b", "c"))


def test_assignment_counts_come_from_the_labels():
    gap = ClusterAssignment(labels=np.array([3, 1, 3]), user_ids=("a", "b", "c"))
    assert (gap.n_clusters, gap.has_noise) == (3, False)
    assert gap.members(2).size == 0
    noise = ClusterAssignment(labels=np.array([NOISE, NOISE]), user_ids=("a", "b"))
    assert (noise.n_clusters, noise.has_noise) == (0, True)


def test_assignment_csv_roundtrip(tmp_path):
    # The last four ids need quoting or UTF-8.
    out = ClusterAssignment(labels=np.array([1, NOISE, 2, 2, 1, NOISE, 1]),
                            user_ids=("a", "b", "c", "a,b", 'a"b', "a\nb", "é"))
    p = tmp_path / "clusters.csv"
    save_assignment_csv(out, p)
    text = p.read_text(encoding="utf-8").splitlines()
    assert text[0] == "user_id,cluster_id"
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("user_id", "cluster_id"))
    writer.writerows(zip(out.user_ids, out.labels.tolist()))
    assert p.read_bytes() == expected.getvalue().encode("utf-8")
    back = load_assignment_csv(p)
    assert np.array_equal(back.labels, out.labels)
    assert back.user_ids == out.user_ids
    assert back.n_clusters == 2
    assert back.has_noise


def test_dendrogram_json_roundtrip(tmp_path):
    rng = seeded_rng(7)
    dend = ward_agglomerative(distance_matrix(rng.normal(size=(6, 2))))
    p = tmp_path / "dend.json"
    save_dendrogram_json(dend, p)
    doc = json.loads(p.read_text())
    back = Dendrogram(n_leaves=doc["n_leaves"],
                      merges=[(int(a), int(b), float(h), int(s)) for a, b, h, s in doc["merges"]])
    assert back.n_leaves == dend.n_leaves
    assert back.merges == dend.merges
