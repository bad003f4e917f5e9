"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (plain loops, direct
formulas, no shared helpers with the package) so that agreement between
these oracles and the production code is meaningful evidence of
correctness rather than a tautology.
"""

import csv
import json
import logging
import math
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from botclust.clustering import NOISE, ClusterAssignment, Dendrogram
from botclust.mts import MtsTensor, NormalizationParams
from botclust.ingest import (
    FEATURE_NAMES,
    GENUINE_CLASS,
    LabelTable,
    ParseError,
    TweetRecord,
    TweetTable,
)


def oracle_lstm_forward(weights, x):
    """Step-by-step scalar LSTM recurrence.

    weights: dict with W_i/W_f/W_o/W_c (input, hidden), U_* (hidden, hidden),
    b_* (hidden,). x: (T, input). Returns hidden states (T, hidden).
    """
    T = x.shape[0]
    hidden = weights["b_i"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.zeros((T, hidden))
    for t in range(T):
        z_i = x[t] @ weights["W_i"] + h @ weights["U_i"] + weights["b_i"]
        z_f = x[t] @ weights["W_f"] + h @ weights["U_f"] + weights["b_f"]
        z_o = x[t] @ weights["W_o"] + h @ weights["U_o"] + weights["b_o"]
        z_c = x[t] @ weights["W_c"] + h @ weights["U_c"] + weights["b_c"]
        i_g = 1.0 / (1.0 + np.exp(-z_i))
        f_g = 1.0 / (1.0 + np.exp(-z_f))
        o_g = 1.0 / (1.0 + np.exp(-z_o))
        g = np.tanh(z_c)
        c = f_g * c + i_g * g
        h = o_g * np.tanh(c)
        out[t] = h
    return out


def finite_diff_grad(loss_fn, params, h=1e-5):
    """Central-difference gradient estimate, one coordinate at a time.

    The workhorse oracle for checking hand-derived backpropagation; it is
    O(h^2) accurate and deliberately knows nothing about the analytic path.
    """
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    theta = np.asarray(params, dtype=np.float64).ravel().copy()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = loss_fn(theta.reshape(np.shape(params)))
        theta[i] = orig - h
        down = loss_fn(theta.reshape(np.shape(params)))
        theta[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"non-finite loss at coordinate {i}")
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(np.shape(params))


# The batch-major fused LSTM the package ran before its recurrence went
# time-major, frozen as it was. Unlike the other oracles it shares the
# package's operation order on purpose: the time-major code must
# reproduce its outputs and gradients bit for bit.


def batch_major_lstm_forward(layer, x):
    """Hidden sequence (N, T, hidden) of x (N, T, input), with its cache."""
    x = np.asarray(x, dtype=np.float64)
    n, t, d = x.shape
    h = layer.hidden_size
    acts = x.reshape(n * t, d) @ layer.W
    acts += layer.b
    acts = acts.reshape(n, t, 4, h)
    cells = np.empty((n, t, h))
    hidden = np.empty((n, t, h))
    h_prev = np.zeros((n, h))
    c_prev = np.zeros((n, h))
    for step in range(t):
        z = acts[:, step]
        z += (h_prev @ layer.U).reshape(n, 4, h)
        s = z[:, :3]
        e = np.exp(-np.abs(s))
        np.divide(np.where(s >= 0, 1.0, e), 1.0 + e, out=s)
        i_t, f_t, o_t, g_t = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
        np.tanh(g_t, out=g_t)
        c_prev = np.multiply(f_t, c_prev, out=cells[:, step])
        c_prev += i_t * g_t
        h_prev = np.multiply(o_t, np.tanh(c_prev), out=hidden[:, step])
    cache = {"x": x, "acts": acts, "cells": cells, "hidden": hidden}
    return hidden, cache


def batch_major_lstm_backward(layer, cache, d_out, return_sequence=True):
    """Gradients keyed W/U/b and dx, from batch_major_lstm_forward's cache."""
    x = cache["x"]
    n, t, d = x.shape
    h = layer.hidden_size
    d_out = np.asarray(d_out, dtype=np.float64)
    if return_sequence:
        d_hidden = d_out
    else:
        d_hidden = np.zeros((n, t, h))
        d_hidden[:, -1] = d_out
    acts, cells, hidden = cache["acts"], cache["cells"], cache["hidden"]
    i, f, o, g = (acts[:, :, k] for k in range(4))
    dz = np.subtract(1.0, acts)
    dz *= acts
    dzi, dzf, dzo, dzg = (dz[:, :, k] for k in range(4))
    np.multiply(g, g, out=dzg)
    np.subtract(1.0, dzg, out=dzg)
    dzi *= g
    dzf[:, 0] = 0.0
    dzf[:, 1:] *= cells[:, :-1]
    dzg *= i
    dc_dh = np.tanh(cells)
    dzo *= dc_dh
    dc_dh *= dc_dh
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dh_next = dc_next = np.zeros((n, h))
    u_t = layer.U.T
    for step in range(t - 1, -1, -1):
        dh = d_hidden[:, step] + dh_next
        dc = dh * dc_dh[:, step]
        dc += dc_next
        dzs = dz[:, step]
        dzs[:, :2] *= dc[:, np.newaxis]
        dzs[:, 2] *= dh
        dzs[:, 3] *= dc
        dh_next = dzs.reshape(n, 4 * h) @ u_t
        dc_next = dc * f[:, step]
    dz_rows = dz.reshape(n * t, 4 * h)
    d_u = np.matmul(hidden[:, :-1].transpose(0, 2, 1), dz[:, 1:].reshape(n, t - 1, 4 * h))
    grads = {"W": x.reshape(n * t, d).T @ dz_rows, "U": d_u.sum(axis=0), "b": dz_rows.sum(axis=0)}
    return grads, (dz_rows @ layer.W.T).reshape(n, t, d)


def oracle_dbscan(dist, eps, min_pts):
    """Brute-force density-based clustering on a distance matrix.

    Returns (labels, core_flags) with labels 0 = noise and clusters
    numbered 1.. by the smallest core point index they contain. Border
    points join the cluster of their lowest-index core neighbor.
    """
    n = dist.shape[0]
    neighbor = dist <= eps
    core = np.array([int(neighbor[i].sum()) >= min_pts for i in range(n)])

    # Transitive closure of core-to-core reachability, the slow way.
    reach = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            reach[i, j] = core[i] and core[j] and neighbor[i, j]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if reach[i, j]:
                    continue
                for k in range(n):
                    if reach[i, k] and reach[k, j]:
                        reach[i, j] = True
                        changed = True
                        break

    labels = np.zeros(n, dtype=int)
    cluster_of_core = {}
    next_id = 1
    for i in range(n):
        if core[i] and i not in cluster_of_core:
            members = [j for j in range(n) if core[j] and (reach[i, j] or i == j)]
            for m in members:
                cluster_of_core[m] = next_id
            next_id += 1
    for i in range(n):
        if core[i]:
            labels[i] = cluster_of_core[i]
        else:
            core_neighbors = [j for j in range(n) if core[j] and neighbor[i, j]]
            labels[i] = cluster_of_core[core_neighbors[0]] if core_neighbors else 0
    return labels, core


def oracle_ward(dist):
    """Naive Ward agglomeration recomputing merge costs from raw distances.

    Merge cost between clusters A and B is
        2 |A| |B| / (|A| + |B|) * ||centroid_A - centroid_B||^2
    where the squared centroid gap is recovered from pairwise squared
    distances alone. Returns a list of (members_a, members_b, height)
    tuples in merge order, with members given as frozensets of leaf
    indices and the pair ordered by the slot positions that merged.
    """
    d2 = np.asarray(dist, dtype=float) ** 2
    clusters = [[i] for i in range(d2.shape[0])]

    def centroid_gap_sq(a, b):
        s_ab = sum(d2[i, j] for i in a for j in b) / (len(a) * len(b))
        s_aa = sum(d2[i, j] for i in a for j in a) / (2.0 * len(a) ** 2)
        s_bb = sum(d2[i, j] for i in b for j in b) / (2.0 * len(b) ** 2)
        return s_ab - s_aa - s_bb

    merges = []
    while len(clusters) > 1:
        best = None
        best_cost = math.inf
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                a, b = clusters[ai], clusters[bi]
                cost = (
                    2.0 * len(a) * len(b) / (len(a) + len(b))
                ) * centroid_gap_sq(a, b)
                if cost < best_cost:
                    best_cost = cost
                    best = (ai, bi)
        ai, bi = best
        merges.append(
            (
                frozenset(clusters[ai]),
                frozenset(clusters[bi]),
                math.sqrt(max(best_cost, 0.0)),
            )
        )
        clusters[ai] = clusters[ai] + clusters[bi]
        del clusters[bi]
    return merges


def oracle_series_stats(series):
    """Direct-formula versions of the per-series statistics catalog."""
    x = [float(v) for v in series]
    n = len(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / n
    std = math.sqrt(var)
    out = {
        "mean": mean,
        "std": std,
        "variance": var,
        "min": min(x),
        "max": max(x),
        "median": float(np.median(x)),
        "abs_energy": sum(v * v for v in x),
        "mean_abs_change": sum(abs(x[i + 1] - x[i]) for i in range(n - 1)) / (n - 1),
        "mean_change": (x[-1] - x[0]) / (n - 1),
        "count_above_mean": float(sum(1 for v in x if v > mean)),
        "count_below_mean": float(sum(1 for v in x if v < mean)),
    }
    if std == 0.0:
        out["skewness"] = 0.0
        out["kurtosis"] = 0.0
    else:
        out["skewness"] = sum((v - mean) ** 3 for v in x) / n / std**3
        out["kurtosis"] = sum((v - mean) ** 4 for v in x) / n / std**4 - 3.0

    centered = [v - mean for v in x]
    out["mean_crossings"] = float(
        sum(1 for i in range(n - 1) if centered[i] * centered[i + 1] < 0)
    )

    def strike(flags):
        best = run = 0
        for f in flags:
            run = run + 1 if f else 0
            best = max(best, run)
        return float(best)

    out["longest_strike_above_mean"] = strike([v > mean for v in x])
    out["longest_strike_below_mean"] = strike([v < mean for v in x])

    def autocorr(lag):
        if lag >= n or var == 0.0:
            return 0.0
        s = sum((x[t] - mean) * (x[t + lag] - mean) for t in range(n - lag))
        return s / ((n - lag) * var)

    out["autocorr_lag1"] = autocorr(1)
    out["autocorr_lag7"] = autocorr(7)
    out["autocorr_lag30"] = autocorr(30)
    return out


# The row-wise tweet parse the package ran before it parsed into columns,
# frozen as it was: one validated TweetRecord per row, then the table
# indexed from the records. The columnar parse must give an equal table,
# or raise the same ParseError, on every input.

_oracle_log = logging.getLogger("botclust.ingest")


def _rowwise_parse_timestamp(raw):
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def _rowwise_record(fields, line_no):
    for key in ("user_id", "timestamp", *FEATURE_NAMES):
        if key not in fields or fields[key] is None or fields[key] == "":
            raise ParseError(line_no, f"missing field '{key}'")
    try:
        ts = _rowwise_parse_timestamp(str(fields["timestamp"]))
    except ValueError as exc:
        raise ParseError(line_no, f"bad timestamp {fields['timestamp']!r}: {exc}") from exc
    counts = {}
    for name in FEATURE_NAMES:
        raw = fields[name]
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}") from exc
        if isinstance(raw, bool) or (isinstance(raw, float) and raw != value):
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}")
        counts[name] = value
    negatives = [n for n in FEATURE_NAMES if counts[n] < 0]
    if negatives:
        _oracle_log.warning("line %d: rejected row for user %s, negative count in %s",
                            line_no, fields["user_id"], negatives)
        return None
    return TweetRecord(user_id=str(fields["user_id"]), timestamp=ts, **counts)


def rowwise_parse_tweets(path, format="jsonl"):
    """The validated records of a JSONL or CSV tweets file, in file order."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if format == "jsonl":
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    fields = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(line_no, f"invalid JSON: {exc}") from exc
                if not isinstance(fields, dict):
                    raise ParseError(line_no, "row is not a JSON object")
                rec = _rowwise_record(fields, line_no)
                if rec is not None:
                    records.append(rec)
        else:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return []
            expected = {"user_id", "timestamp", *FEATURE_NAMES}
            if not expected.issubset(set(reader.fieldnames)):
                raise ParseError(1, f"CSV header missing columns {sorted(expected - set(reader.fieldnames))}")
            for line_no, row in enumerate(reader, start=2):
                if None in row.values() or None in row:
                    raise ParseError(line_no, "wrong number of columns")
                rec = _rowwise_record(row, line_no)
                if rec is not None:
                    records.append(rec)
    return records


def rowwise_table(records):
    """The tweet table indexed from records, three passes over them."""
    if not records:
        raise ValueError("build_timelines requires at least one record")
    m = len(records)
    seen = {}
    first_rows = np.fromiter((seen.setdefault(rec.user_id, len(seen)) for rec in records),
                             dtype=np.int64, count=m)
    ordinals = np.fromiter((rec.day().toordinal() for rec in records), dtype=np.int64, count=m)
    counts = np.fromiter((c for rec in records for c in rec.counts()),
                         dtype=np.float64, count=m * len(FEATURE_NAMES))
    user_ids = sorted(seen)
    rank = np.empty(len(seen), dtype=np.int64)
    rank[[seen[uid] for uid in user_ids]] = np.arange(len(user_ids))
    first = int(ordinals.min())
    return TweetTable(
        user_ids=user_ids,
        day_min=date.fromordinal(first),
        num_days=int(ordinals.max()) - first + 1,
        rows=rank[first_rows],
        days=ordinals - first,
        counts=counts.reshape(m, len(FEATURE_NAMES)),
    )


def tables_equal(a, b):
    """Two tweet tables hold the same ids, day range and columns, bit for
    bit and with the same dtypes (the generated __eq__ cannot compare
    arrays)."""
    return (
        a.user_ids == b.user_ids
        and a.day_min == b.day_min
        and a.num_days == b.num_days
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.rows, b.rows), (a.days, b.days), (a.counts, b.counts))
        )
    )


# The synthetic generator and the interchange writer as the package ran
# them before their draws and lines were batched, frozen as they were:
# one array call per tweet's draws, one record built by keyword, one
# ``json.dumps`` per line. The package must return equal records, with
# the same labels in the same order, and write the same bytes.


_PERDRAW_DAY0 = datetime(2023, 1, 1, tzinfo=timezone.utc)


def _perdraw_user_rng(seed, index):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def _perdraw_genuine_tweets(user_id, index, cfg):
    rng = _perdraw_user_rng(cfg.seed, index)
    lo, hi = cfg.genuine_activity_range
    p_active = rng.uniform(lo, hi)
    means = rng.uniform(cfg.genuine_mean_range[0], cfg.genuine_mean_range[1],
                        size=len(FEATURE_NAMES))
    records = []
    for day in range(cfg.n_days):
        if rng.uniform() >= p_active:
            continue
        for j in range(1 + rng.poisson(0.6)):
            counts = rng.poisson(means)
            records.append(_perdraw_record(user_id, day, j, counts))
    if not records:
        day = index % cfg.n_days
        records.append(_perdraw_record(user_id, day, 0, rng.poisson(means)))
    return records


def _perdraw_bot_tweets(user_id, index, template, cfg):
    rng = _perdraw_user_rng(cfg.seed, index)
    means = np.asarray(template.feature_means)
    records = []
    for day in range(cfg.n_days):
        scheduled = day % template.period == 0
        if rng.uniform() < template.flip_prob:
            scheduled = not scheduled
        if not scheduled:
            continue
        for j in range(template.tweets_per_active_day):
            jitter = rng.normal(0.0, template.count_noise, size=means.size)
            counts = np.maximum(0, np.rint(means + jitter)).astype(np.int64)
            records.append(_perdraw_record(user_id, day, j, counts))
    if not records:
        counts = np.maximum(0, np.rint(means)).astype(np.int64)
        records.append(_perdraw_record(user_id, 0, 0, counts))
    return records


def _perdraw_record(user_id, day, tweet_index, counts):
    ts = _PERDRAW_DAY0 + timedelta(days=day, hours=9 + (tweet_index % 12), minutes=tweet_index // 12)
    fields = {name: int(c) for name, c in zip(FEATURE_NAMES, counts)}
    return TweetRecord(user_id=user_id, timestamp=ts, **fields)


def perdraw_generate_dataset(cfg):
    """The records and labels of a SynthConfig, grouped by user in label
    order (genuine first, then each botnet)."""
    records = []
    labels = {}
    index = 0
    for i in range(cfg.n_genuine):
        uid = f"gen_{i:04d}"
        records.extend(_perdraw_genuine_tweets(uid, index, cfg))
        labels[uid] = GENUINE_CLASS
        index += 1
    for template in cfg.templates:
        for i in range(template.n_users):
            uid = f"bot{template.class_id}_{i:04d}"
            records.extend(_perdraw_bot_tweets(uid, index, template, cfg))
            labels[uid] = template.class_id
            index += 1
    return records, LabelTable(labels=labels)


def dumps_write_tweets_jsonl(records, path):
    """One ``json.dumps`` line per record. Its ``strftime`` writes a year
    below 1000 with fewer than four digits, so compare only later years."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        for rec in records:
            ts = rec.timestamp
            # UTC (synth's zone, tested first as it is cheap), naive and
            # zero offsets need no conversion.
            if ts.tzinfo is not timezone.utc and ts.utcoffset():
                ts = ts.astimezone(timezone.utc)
            row = {
                "user_id": rec.user_id,
                "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            }
            row.update({name: count for name, count in zip(FEATURE_NAMES, rec.counts())})
            fh.write(json.dumps(row) + "\n")


# The clustering loops the package ran before its steps went to arrays,
# frozen as they were: a FIFO queue for DBSCAN, a whole-matrix argmin per
# Ward merge, a path-halving union-find for the cut and a Counter per
# cluster for the names. The package must return equal labels, and equal
# merges as tuples, on every input.


def loop_dbscan(dist, eps, min_pts, user_ids=None):
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


def loop_ward_agglomerative(dist):
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
    merges = []
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


def loop_cut_dendrogram(dendrogram, k, user_ids=None):
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if user_ids is None:
        user_ids = tuple(str(i) for i in range(n))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    members = {i: i for i in range(n)}  # merge id -> any leaf
    for m, (a, b, _h, _s) in enumerate(dendrogram.merges[: n - k]):
        ra, rb = find(members[a]), find(members[b])
        parent[rb] = ra
        members[n + m] = ra
    roots = {}
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


def loop_assign_labels_multiclass(assignment, true_labels):
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


# The per-feature min-max loops the package ran before its normalization
# went to masked whole-tensor reductions, frozen as they were. The package
# must return equal statistics and equal tensors, bit for bit.


def loop_minmax_normalize(mts):
    if mts.normalized:
        raise ValueError("tensor is already normalized")
    active = ~mts.sentinel_mask()
    d = mts.n_features
    mins = np.zeros(d)
    maxs = np.zeros(d)
    for j in range(d):
        col = mts.values[:, :, j][active]
        if col.size:
            mins[j] = col.min()
            maxs[j] = col.max()
    params = NormalizationParams(feature_names=mts.feature_names, mins=mins, maxs=maxs)
    return loop_apply_normalization(mts, params), params


def loop_apply_normalization(mts, params):
    if mts.normalized:
        raise ValueError("tensor is already normalized")
    if params.feature_names != mts.feature_names:
        raise ValueError(
            f"feature mismatch: tensor has {mts.feature_names}, params have {params.feature_names}"
        )
    active = ~mts.sentinel_mask()
    out = mts.values.copy()
    span = params.maxs - params.mins
    for j in range(mts.n_features):
        col = out[:, :, j]
        if span[j] == 0.0:
            col[active] = 0.0
        else:
            col[active] = (col[active] - params.mins[j]) / span[j]
    return MtsTensor(
        values=out,
        user_ids=list(mts.user_ids),
        feature_names=mts.feature_names,
        day_min=mts.day_min,
        normalized=True,
        kind=mts.kind,
    )
