"""End-to-end acceptance gates for the package.

Each test prints one PASS/FAIL line so a suite run doubles as an
acceptance report. Thresholds are fixed; the synthetic-dataset gates run
against the frozen default generator config (seed 42).
"""

import json
import time

import numpy as np
import pytest

from botclust.autoencoder import (
    DenseLayerParams,
    LstmLayerParams,
)
from botclust.cli import main as cli_main
from botclust.clustering import dbscan, distance_matrix, ward_agglomerative
from botclust.ingest import build_timelines, write_tweets_jsonl
from botclust.labeling import prf_metrics
from botclust.mts import SENTINEL, MtsTensor, extract_mts
from botclust.numerics import seeded_rng
from botclust.pipeline import (
    PipelineConfig,
    apply_preset,
    importance_run_from_mts,
    lobo_run_from_mts,
    prepare,
    run_pipeline_from_mts,
)
from botclust.synth import SynthConfig, generate_dataset

from oracles import oracle_dbscan, oracle_ward
from test_autoencoder import dense_grad_max_rel_err, lstm_grad_max_rel_err
from test_clustering import _members_by_merge
from test_mts import _hand_fixture


def _verdict(num, label, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def frozen_synth():
    records, labels = generate_dataset(SynthConfig())
    return records, labels


def test_criterion_1_gradient_oracle():
    rng = seeded_rng(101)
    start = time.time()
    worst = 0.0
    # Ten random small configurations covering recurrent and dense layers.
    for trial in range(7):
        hidden = int(rng.integers(1, 4))
        input_size = 3 if trial % 2 == 0 else 1
        err = lstm_grad_max_rel_err(
            rng, input_size, hidden, t_len=5,
            return_sequence=bool(trial % 3),
        )
        worst = max(worst, err)
    for _ in range(3):
        fan_in = int(rng.integers(1, 6))
        fan_out = int(rng.integers(1, 6))
        worst = max(worst, dense_grad_max_rel_err(rng, fan_in, fan_out))
    elapsed = time.time() - start
    _verdict(
        1,
        f"analytic gradients vs central differences, max rel err "
        f"{worst:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)",
        worst < 1e-4 and elapsed < 60.0,
    )


def test_criterion_2_clustering_oracles():
    rng = seeded_rng(202)
    start = time.time()

    dbscan_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 51))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        dist = distance_matrix(pts)
        iu = np.triu_indices(n, 1)
        eps = float(np.quantile(dist[iu], rng.uniform(0.05, 0.5)))
        min_pts = int(rng.integers(2, 7))
        fast = dbscan(dist, eps, min_pts)
        ref_labels, _ = oracle_dbscan(dist, eps, min_pts)
        if not np.array_equal(fast.labels, ref_labels):
            dbscan_ok = False
            break

    ward_ok = True
    sizes = [int(rng.integers(4, 21)) for _ in range(11)] + [20]
    for n in sizes:
        pts = rng.normal(size=(n, 3))
        dist = distance_matrix(pts)
        fast = _members_by_merge(ward_agglomerative(dist))
        ref = oracle_ward(dist)
        for (fa, fb, fh, _), (ra, rb, rh) in zip(fast, ref):
            if {fa, fb} != {ra, rb} or abs(fh - rh) > 1e-9 * max(1.0, rh):
                ward_ok = False
                break
        if not ward_ok:
            break

    elapsed = time.time() - start
    _verdict(
        2,
        f"dbscan == brute-force reference on 100 instances and ward == "
        f"naive reference merge-for-merge, {elapsed:.1f}s (< 120s)",
        dbscan_ok and ward_ok and elapsed < 120.0,
    )


def test_criterion_3_metrics_fixtures():
    tol = 1e-12
    ok = True

    true = [0] * 60 + [1] * 40
    pred = [0] * 50 + [1] * 10 + [0] * 5 + [1] * 35
    rep = prf_metrics(true, pred, 2)
    cls = rep["per_class"]
    ok &= abs(rep["accuracy"] - 0.85) <= tol
    ok &= abs(cls["0"]["precision"] - 50 / 55) <= tol
    ok &= abs(cls["0"]["recall"] - 50 / 60) <= tol
    ok &= abs(cls["0"]["f1"] - 20 / 23) <= tol
    ok &= abs(cls["1"]["f1"] - 14 / 17) <= tol
    ok &= abs(rep["weighted_f1"] - (0.6 * 20 / 23 + 0.4 * 14 / 17)) <= tol
    ok &= abs(rep["mcc"] - 3400 / np.sqrt(23760000)) <= tol

    diag_true = [0] * 3 + [1] * 4 + [2] * 2
    diag = prf_metrics(diag_true, diag_true, 3)
    ok &= diag["accuracy"] == 1.0 and diag["mcc"] == 1.0
    ok &= all(c["precision"] == 1.0 and c["f1"] == 1.0 for c in diag["per_class"].values())

    single = prf_metrics([0] * 25 + [1] * 25, [0] * 50, 2)
    ok &= single["mcc"] == 0.0

    _verdict(
        3,
        "precision/recall/F1/accuracy/MCC reproduce hand fractions to "
        "1e-12; diagonal -> all 1s; balanced single-class -> MCC 0",
        bool(ok),
    )


def test_criterion_4_daily_tensor_semantics():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    s = SENTINEL
    expected = np.array(
        [
            [[3, 3, 0, 1, 0, 5], [s] * 6, [0, 0, 0, 0, 0, 0], [s] * 6],
            [[s] * 6, [0, 0, 4, 0, 2, 0], [s] * 6, [s] * 6],
            [[0, 0, 0, 0, 0, 1], [s] * 6, [s] * 6, [0, 2, 0, 6, 0, 0]],
        ],
        dtype=np.float64,
    )
    ok = (
        mts.user_ids == ["alice", "bob", "carol"]
        and np.array_equal(mts.values, expected)
        and not mts.sentinel_mask()[0, 2]
    )
    _verdict(
        4,
        "hand-built 3-user timeline maps to the exact daily tensor, "
        "inactive days all -1, active zero-count day all 0",
        bool(ok),
    )


@pytest.mark.slow
def test_criterion_5_synthetic_separation(frozen_synth):
    records, labels = frozen_synth
    start = time.time()

    glob_cfg = apply_preset(PipelineConfig(task="binary", seed=0), "Glob_Hier")
    mts, true = prepare(build_timelines(records), labels, glob_cfg)
    glob_res = run_pipeline_from_mts(mts, true, labels.num_classes, glob_cfg)

    dbscan_cfg = apply_preset(PipelineConfig(task="multiclass", seed=0), "UTS_DBSCAN")
    dbscan_res = run_pipeline_from_mts(mts, true, labels.num_classes, dbscan_cfg)

    elapsed = time.time() - start
    ok = (
        glob_res.metrics["weighted_f1"] >= 0.90
        and dbscan_res.metrics["weighted_f1"] >= 0.85
        and elapsed < 300.0
    )
    _verdict(
        5,
        f"frozen seed-42 dataset: stats+Ward binary wf1 "
        f"{glob_res.metrics['weighted_f1']:.4f} (>= 0.90), series+DBSCAN "
        f"multiclass wf1 {dbscan_res.metrics['weighted_f1']:.4f} (>= 0.85), "
        f"{elapsed:.1f}s (< 300s)",
        ok,
    )


@pytest.mark.slow
def test_criterion_6_leave_one_botnet_out(frozen_synth):
    records, labels = frozen_synth
    cfg = apply_preset(PipelineConfig(task="binary", seed=0), "Glob_Hier")
    report = lobo_run_from_mts(*prepare(build_timelines(records), labels, cfg), labels, cfg)
    changes = {int(cid): entry["pct_change"] for cid, entry in report["excluded"].items()}
    ok = all(abs(v) <= 5.0 for v in changes.values())
    _verdict(
        6,
        f"holding out each botnet changes weighted F1 by "
        f"{ {k: round(v, 2) for k, v in changes.items()} } points (|x| <= 5)",
        ok,
    )


@pytest.mark.slow
def test_criterion_7_constant_feature_importance(frozen_synth):
    records, labels = frozen_synth
    mts = extract_mts(build_timelines(records))
    true = np.array([labels.labels[u] for u in mts.user_ids])

    const_col = np.where(mts.sentinel_mask()[:, :, None], SENTINEL, 3.0)
    mts7 = MtsTensor(
        values=np.concatenate([mts.values, const_col], axis=2),
        user_ids=list(mts.user_ids),
        feature_names=tuple(mts.feature_names) + ("extra_const",),
        day_min=mts.day_min,
    )
    base_cfg = apply_preset(PipelineConfig(task="binary", seed=0), "Glob_Hier")
    # Every leg is one run_pipeline_from_mts call with a feature subset;
    # labeling.feature_importance builds the report from their scores.
    report = importance_run_from_mts(mts7, true, 2, base_cfg)
    const_importance = report["features"]["extra_const"]["importance"]
    _verdict(
        7,
        f"appended constant feature gets normalized importance "
        f"{const_importance:.4f} (<= 0.05)",
        const_importance <= 0.05,
    )


@pytest.mark.slow
def test_criterion_8_run_all_determinism(frozen_synth, tmp_path):
    records, labels = frozen_synth
    tweets = tmp_path / "tweets.jsonl"
    labels_csv = tmp_path / "labels.csv"
    write_tweets_jsonl(records, tweets)
    with open(labels_csv, "w") as fh:
        fh.write("user_id,class_id\n")
        for uid, cid in sorted(labels.labels.items()):
            fh.write(f"{uid},{cid}\n")

    reports = ("metrics_report.json", "cluster_report.json", "train_report_uts.json")
    payloads = {}
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main([
            "run-all", "--outdir", str(out), "--tweets", str(tweets),
            "--labels", str(labels_csv), "--variant-preset", "Glob_Hier",
            "--task", "binary", "--seed", "0",
        ])
        assert rc == 0
        for name in reports:
            data = json.loads((out / name).read_text())
            data.pop("timing", None)
            payloads[(run, name)] = json.dumps(data, sort_keys=True)
        payloads[(run, "clusters.csv")] = (out / "clusters.csv").read_bytes()
        payloads[(run, "confusion.csv")] = (out / "confusion.csv").read_bytes()

    same = all(
        payloads[("a", name)] == payloads[("b", name)]
        for name in reports + ("clusters.csv", "confusion.csv")
    )
    _verdict(
        8,
        "two identical run-all invocations produce byte-identical "
        "reports once the timing block is removed",
        same,
    )
