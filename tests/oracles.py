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
from datetime import date, datetime, timezone

import numpy as np

from botclust.ingest import FEATURE_NAMES, ParseError, TweetRecord, TweetTable


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
