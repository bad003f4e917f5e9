import json
import os
import shutil
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from botclust import pipeline
from botclust.autoencoder import load_model
from botclust.cli import _load_latents, _save_latents, main
from botclust.ingest import FEATURE_NAMES, LabelTable, build_timelines, write_tweets_jsonl
from botclust.mts import MtsTensor, extract_mts, load_tensor, save_tensor
from botclust.pipeline import (
    PRESETS,
    PipelineConfig,
    _cluster,
    _encode,
    _label_and_score,
    _train_models,
    apply_preset,
    check_population,
    check_scorable,
    config_hash,
    derive_seed,
    importance_run_from_mts,
    lobo_run_from_mts,
    prepare,
    run_pipeline_from_mts,
)
from botclust.synth import BotTemplate, SynthConfig, generate_dataset

FAST = dict(epochs=8, latent_dim=12)

SMALL_TEMPLATES = (
    BotTemplate(class_id=1, n_users=8, period=2,
                feature_means=(5.0, 2.0, 1.0, 4.0, 2.0, 5.0),
                tweets_per_active_day=2, flip_prob=0.04, count_noise=0.5),
    BotTemplate(class_id=2, n_users=8, period=3,
                feature_means=(4.0, 10.0, 6.0, 2.0, 8.0, 4.0),
                tweets_per_active_day=1, flip_prob=0.04, count_noise=0.5),
)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = SynthConfig(n_days=24, n_genuine=16, templates=SMALL_TEMPLATES)
    return generate_dataset(cfg)


def _prepared(records, labels, cfg):
    """The raw tensor and truth vector an analysis starts from."""
    return prepare(build_timelines(records), labels, cfg)


def test_presets_cover_reference_table():
    assert set(PRESETS) == {"UTS_DBSCAN", "UTS_Hier", "Vec_Hier", "Glob_Hier", "Glob_Vec_Hier"}
    cfg = apply_preset(PipelineConfig(), "Glob_Vec_Hier")
    assert cfg.representation == "glob_vec"
    assert cfg.cluster_method == "ward"
    cfg = apply_preset(PipelineConfig(), "UTS_DBSCAN")
    assert cfg.representation == "uts"
    assert cfg.cluster_method == "dbscan"
    with pytest.raises(ValueError):
        apply_preset(PipelineConfig(), "NoSuchPreset")


def test_config_hash_stable_and_sensitive():
    a = PipelineConfig(seed=1)
    b = PipelineConfig(seed=1)
    c = PipelineConfig(seed=2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def test_config_serialization_is_pinned():
    # The hashes reports have always carried, so runs stay comparable.
    assert config_hash(PipelineConfig()) == "979800830a933b6f"
    cfg = apply_preset(PipelineConfig(task="multiclass", epochs=60, learning_rate=0.1,
                                      features=("num_urls", "reply_count")), "Glob_Vec_Hier")
    assert config_hash(cfg) == "c46181c808e13407"
    assert cfg.to_dict()["features"] == ["num_urls", "reply_count"]
    assert PipelineConfig(features=()).to_dict()["features"] is None
    assert PipelineConfig(**cfg.to_dict()) == cfg


def test_derive_seed_is_stable():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(43, 1) != derive_seed(42, 1)


def test_run_pipeline_binary_ward(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    res = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    assert res.pred_labels.shape == res.true_labels.shape
    assert set(np.unique(res.pred_labels)) <= {0, 1}
    assert res.clustering.assignment.n_clusters == 2
    assert res.metrics.confusion.shape == (2, 2)
    assert res.clustering.dendrogram is not None
    assert "uts" in res.models


def test_cluster_report_polarity_scores_name_genuine(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    res = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    polarity = res.clustering.report(cfg)["polarity"]
    scores = polarity["local_density"]
    assert len(scores) == 2 and min(scores) > 0
    assert polarity["ratio"] == max(scores) / min(scores)
    genuine = 1 + int(np.argmax(scores))
    assert np.all(res.pred_labels[res.clustering.assignment.members(genuine)] == 0)
    assert np.all(res.pred_labels[res.clustering.assignment.members(3 - genuine)] == 1)
    assert res.clustering.polarity == scores
    # A multiclass cut at two clusters names clusters by vote, not polarity.
    multiclass = replace(cfg, task="multiclass", n_clusters=2)
    clustering = _cluster(multiclass, res.features[1].values, res.user_ids, None)
    assert clustering.polarity is None
    assert "polarity" not in clustering.report(multiclass)
    # Nor has a binary three-way cut: naming it needs genuine_cluster.
    three = replace(cfg, n_clusters=3)
    clustering = _cluster(three, res.features[1].values, res.user_ids, None)
    assert clustering.polarity is None
    with pytest.raises(ValueError, match="exactly 2 clusters, got 3"):
        check_scorable(three)
    pred, _ = _label_and_score(replace(three, genuine_cluster=3), clustering.assignment, None,
                               res.true_labels, 3)
    assert np.array_equal(pred == 0, clustering.assignment.labels == 3)


def test_run_pipeline_multiclass_dbscan(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="multiclass", seed=0, **FAST), "UTS_DBSCAN")
    res = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    assert res.clustering.eps is not None and res.clustering.eps > 0
    assert res.metrics.confusion.shape == (3, 3)
    assert set(np.unique(res.pred_labels)) <= {0, 1, 2}


def test_run_pipeline_vec_and_glob_vec(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Vec_Hier")
    res = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    assert res.latents["vec"].shape == (32, FAST["latent_dim"])

    cfg2 = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Vec_Hier")
    res2 = run_pipeline_from_mts(*_prepared(records, labels, cfg2), labels.num_classes, cfg2)
    # z-scored stats (19) concatenated with the vector latent
    assert res2.features[1].values.shape == (32, 19 + FAST["latent_dim"])
    assert "uts" in res2.models and "vec" in res2.models


def test_trained_legs_encode_as_the_serial_encode(small_dataset):
    # A leg encodes the min-max output it trained on; the serial stage
    # rescales the raw tensor with the stored statistics. Same bits.
    records, labels = small_dataset
    mts = extract_mts(build_timelines(records))
    cfg = apply_preset(PipelineConfig(task="binary", seed=2, **FAST), "Glob_Vec_Hier")
    models, reports, latents = _train_models(cfg, mts, encoded=True)
    assert set(latents) == {"uts", "vec"}
    for variant, latent in _encode(models, mts).items():
        assert np.array_equal(latents[variant], latent), variant
    assert _train_models(cfg, mts)[2] == {}


def test_latents_are_rows_and_their_files_keep_the_tensor_layout(small_dataset, tmp_path):
    # encode gives one row per user; the files hold a uts series as
    # (N, T, 1), one feature over T days, and a vec latent as (N, 1, L).
    records, labels = small_dataset
    mts = extract_mts(build_timelines(records))
    cfg = apply_preset(PipelineConfig(task="binary", **FAST), "Glob_Vec_Hier")
    latents = _train_models(cfg, mts, encoded=True)[2]
    n, t, width = mts.n_users, mts.n_days, FAST["latent_dim"]
    assert latents["uts"].shape == (n, t) and latents["vec"].shape == (n, width)
    _save_latents(tmp_path, latents, mts.user_ids, mts.day_min)
    layouts = {"uts": (latents["uts"][:, :, np.newaxis], ("latent",)),
               "vec": (latents["vec"][:, np.newaxis, :], tuple(f"latent.{j}" for j in range(width)))}
    for variant, (values, names) in layouts.items():
        path = tmp_path / f"latent_{variant}.tensor"
        stored = load_tensor(path)
        assert stored.values.shape == values.shape and stored.feature_names == names
        assert (stored.kind, stored.day_min) == (f"latent_{variant}", mts.day_min)
        reference = tmp_path / f"reference_{variant}.tensor"
        save_tensor(MtsTensor(values=values, user_ids=list(mts.user_ids), feature_names=names,
                              day_min=mts.day_min, kind=f"latent_{variant}"), reference)
        assert path.read_bytes() == reference.read_bytes(), variant
    loaded, user_ids = _load_latents(tmp_path, ("uts", "vec"))
    assert user_ids == tuple(mts.user_ids)
    for variant, latent in latents.items():
        assert loaded[variant].shape == latent.shape
        assert np.array_equal(loaded[variant], latent), variant


def test_pipeline_deterministic_per_seed(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=5, **FAST), "Glob_Hier")
    r1 = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    r2 = run_pipeline_from_mts(*_prepared(records, labels, cfg), labels.num_classes, cfg)
    assert np.array_equal(r1.pred_labels, r2.pred_labels)
    assert np.array_equal(r1.features[1].values, r2.features[1].values)
    assert r1.metrics.weighted_f1 == r2.metrics.weighted_f1


def test_run_pipeline_from_mts_feature_subset(small_dataset):
    records, labels = small_dataset
    mts = extract_mts(build_timelines(records))
    true = np.array([labels.labels[u] for u in mts.user_ids])
    cfg = replace(
        apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier"),
        features=("num_urls", "retweet_count"),
    )
    res = run_pipeline_from_mts(mts, true, 2, cfg)
    assert res.metrics is not None
    assert res.latents["uts"].shape[0] == 32


def test_lobo_run_small(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    rep = lobo_run_from_mts(*_prepared(records, labels, cfg), labels, cfg)
    assert set(rep["excluded"]) == {"1", "2"}
    for entry in rep["excluded"].values():
        assert "weighted_f1" in entry and "pct_change" in entry


def test_lobo_guards(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    with pytest.raises(ValueError):
        lobo_run_from_mts(*_prepared(records, labels, cfg), labels, cfg, bot_classes=[1])
    with pytest.raises(ValueError):
        lobo_run_from_mts(*_prepared(records, labels, cfg), labels, cfg, bot_classes=[0, 1])


def _tiny_tensor(n_users, feature_names):
    return MtsTensor(values=np.zeros((n_users, 3, len(feature_names))),
                     user_ids=[f"u{i}" for i in range(n_users)],
                     feature_names=tuple(feature_names), day_min=date(2023, 1, 1))


def _recording_scored_runs(monkeypatch, scores):
    """Replace pipeline.scored_runs by a fake that records its jobs and
    returns scores, so nothing trains."""
    jobs = []

    def fake(mts_raw, true, n_classes, given):
        jobs.extend((config, None if rows is None else rows.tolist()) for config, rows in given)
        return scores[:len(jobs)]

    monkeypatch.setattr(pipeline, "scored_runs", fake)
    return jobs


def test_lobo_jobs_leave_out_each_bot_class_with_members(monkeypatch):
    jobs = _recording_scored_runs(monkeypatch, [0.8, 0.6, 0.4])
    # Class 3's only user is not in the tensor, so no row has it.
    labels = LabelTable({"u0": 0, "u1": 0, "u2": 1, "u3": 1, "u4": 2, "u5": 2, "x": 3})
    true = np.array([0, 0, 1, 1, 2, 2])
    cfg = apply_preset(PipelineConfig(task="binary", seed=5), "Glob_Hier")
    rep = lobo_run_from_mts(_tiny_tensor(6, FEATURE_NAMES), true, labels, cfg)
    assert jobs == [(cfg, None),
                    (replace(cfg, seed=derive_seed(5, 1)), [0, 1, 4, 5]),
                    (replace(cfg, seed=derive_seed(5, 2)), [0, 1, 2, 3])]
    assert rep["base_weighted_f1"] == 0.8
    assert rep["excluded"] == {"1": {"weighted_f1": 0.6, "pct_change": pytest.approx(-25.0)},
                               "2": {"weighted_f1": 0.4, "pct_change": pytest.approx(-50.0)},
                               "3": {"weighted_f1": 0.8, "pct_change": 0.0}}


def test_importance_jobs_leave_out_each_feature(monkeypatch):
    jobs = _recording_scored_runs(monkeypatch, [0.5, 0.25, 0.5, 0.375])
    names = FEATURE_NAMES[:3]
    cfg = apply_preset(PipelineConfig(task="binary", seed=5), "Glob_Hier")
    rep = importance_run_from_mts(_tiny_tensor(4, names), np.array([0, 0, 1, 1]), 2, cfg)
    assert jobs == [(replace(cfg, features=subset), None)
                    for subset in (names, names[1:], names[::2], names[:2])]
    assert tuple(rep["features"]) == names and rep["baseline_f1"] == 0.5
    assert [f["ratio"] for f in rep["features"].values()] == [0.5, 1.0, 0.75]


# ----------------------------------------------------------------- CLI


def _cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, small_dataset):
    """A synth dataset written once for the whole CLI flow."""
    records, labels = small_dataset
    root = tmp_path_factory.mktemp("cli")
    tweets = root / "tweets.jsonl"
    labels_csv = root / "labels.csv"
    write_tweets_jsonl(records, tweets)
    with open(labels_csv, "w") as fh:
        fh.write("user_id,class_id\n")
        for uid, cid in sorted(labels.labels.items()):
            fh.write(f"{uid},{cid}\n")
    return root, tweets, labels_csv


def test_cli_synth_writes_dataset(tmp_path):
    out = tmp_path / "synthout"
    rc = _cli("synth", "--outdir", out, "--n-days", 10, "--n-genuine", 4, "--seed", 7)
    assert rc == 0
    assert (out / "tweets.jsonl").exists()
    assert (out / "labels.csv").exists()


def test_cli_step_flow_and_exit_codes(cli_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "flow"

    # evaluate before anything exists: missing artifact, exit 3
    rc = _cli("evaluate", "--outdir", out, "--labels", labels_csv)
    assert rc == 3

    assert _cli("extract", "--outdir", out, "--tweets", tweets) == 0
    assert (out / "mts_raw.tensor").exists()

    assert _cli(
        "train", "--outdir", out, "--epochs", 6, "--seed", 1
    ) == 0
    assert (out / "model_uts.ckpt").exists()
    train_doc = json.loads((out / "train_report_uts.json").read_text())
    assert len(train_doc["train"]["grad_norm"]) == len(train_doc["train"]["clipped"]) == 6

    assert _cli("encode", "--outdir", out) == 0
    assert (out / "latent_uts.tensor").exists()

    assert _cli("features", "--outdir", out) == 0
    assert (out / "global_features.csv").exists()
    assert (out / "global_features_raw.csv").exists()

    assert _cli(
        "cluster", "--outdir", out, "--representation", "glob",
        "--cluster-method", "ward", "--n-clusters", 2,
    ) == 0
    assert (out / "clusters.csv").exists()
    assert (out / "dendrogram.json").exists()

    assert _cli(
        "evaluate", "--outdir", out, "--labels", labels_csv, "--task", "binary",
        "--representation", "glob", "--cluster-method", "ward",
    ) == 0
    report = json.loads((out / "metrics_report.json").read_text())
    assert "weighted_f1" in report["metrics"]
    assert "config_hash" in report
    assert (out / "confusion.csv").exists()

    # The same config in one shot names the Ward clusters the same way.
    whole = tmp_path / "whole"
    assert _cli(
        "run-all", "--outdir", whole, "--tweets", tweets, "--labels", labels_csv,
        "--variant-preset", "Glob_Hier", "--task", "binary",
        "--epochs", 6, "--seed", 1,
    ) == 0
    assert (out / "confusion.csv").read_text() == (whole / "confusion.csv").read_text()


def test_cli_missing_artifact_names_producer(cli_workspace, tmp_path, capsys):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "missing"
    rc = _cli("train", "--outdir", out, "--epochs", 2)
    assert rc == 3


@pytest.mark.parametrize("text, message", [
    ('{"not_a_key": 1}', "unknown config keys ['not_a_key']"),
    (None, "config file not found: "),
    ('{"seed": 1,', "is not valid JSON: "),
    ("[1, 2]", "must hold a JSON object"),
], ids=["unknown-key", "missing", "truncated", "not-an-object"])
def test_cli_bad_config_file_is_usage_error(tmp_path, caplog, text, message):
    cfg = tmp_path / "bad.json"
    if text is not None:
        cfg.write_text(text)
    rc = _cli("synth", "--config", cfg, "--outdir", tmp_path / "o")
    assert rc == 2
    assert message in caplog.text
    assert not (tmp_path / "o").exists()


def test_cli_config_file_with_flag_override(cli_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "cfgflow"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "tweets": str(tweets),
        "labels": str(labels_csv),
        "variant_preset": "Glob_Hier",
        "task": "binary",
        "epochs": 6,
        "latent_dim": 8,
        "seed": 3,
    }))
    rc = _cli("run-all", "--config", cfg, "--outdir", out, "--epochs", 5)
    assert rc == 0
    report = json.loads((out / "metrics_report.json").read_text())
    assert report["config"]["epochs"] == 5  # flag beats file
    assert report["config"]["representation"] == "glob"
    assert (out / "cluster_report.json").exists()
    assert (out / "metrics_report.json").exists()
    assert "timing" in report


def test_cli_run_all_deterministic_reports(cli_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = _cli(
            "run-all", "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
            "--variant-preset", "UTS_Hier", "--task", "binary",
            "--epochs", 6, "--seed", 11,
        )
        assert rc == 0
    for name in ("metrics_report.json", "cluster_report.json"):
        ra = json.loads((out_a / name).read_text())
        rb = json.loads((out_b / name).read_text())
        ra.pop("timing", None)
        rb.pop("timing", None)
        assert ra == rb, name


def test_run_all_and_lobo_legs_train_without_their_raw_tensor(cli_workspace, small_dataset,
                                                              tmp_path, monkeypatch):
    """run-all hands its raw tensor, and each lobo leg its user subset, to
    training without keeping a name for it, so it is freed once
    normalized: no tensor is alive when train starts."""
    import weakref

    from botclust import cli, pipeline
    from botclust.mts import MtsTensor

    handed = []
    save_tensor, select_users, train = cli.save_tensor, MtsTensor.select_users, pipeline.train

    def saving(tensor, path):
        if not handed:
            handed.append(weakref.ref(tensor))
        save_tensor(tensor, path)

    def selecting(tensor, rows):
        subset = select_users(tensor, rows)
        handed.append(weakref.ref(subset))
        return subset

    def training(*args, **kwargs):
        assert not handed or handed[-1]() is None, "the handed-over tensor is still alive"
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "save_tensor", saving)
    monkeypatch.setattr(MtsTensor, "select_users", selecting)
    monkeypatch.setattr(pipeline, "train", training)
    root, tweets, labels_csv = cli_workspace
    rc = _cli("run-all", "--outdir", tmp_path / "run", "--tweets", tweets, "--labels", labels_csv,
              "--variant-preset", "UTS_DBSCAN", "--task", "multiclass", "--epochs", 2)
    assert rc == 0 and len(handed) == 1
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    handed.clear()
    lobo_run_from_mts(*_prepared(records, labels, cfg), labels, cfg)


def test_process_entry_freezes_the_heap_and_main_does_not(tmp_path, monkeypatch):
    import gc

    from botclust import cli

    before = gc.get_freeze_count()
    assert _cli("cluster", "--outdir", tmp_path) == 3
    assert gc.get_freeze_count() == before
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert cli.entry() == 0
    assert calls == ["freeze", "main"]


def test_cli_ward_multiclass_needs_explicit_k(cli_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "wardk"
    assert _cli("extract", "--outdir", out, "--tweets", tweets) == 0
    assert _cli("train", "--outdir", out, "--epochs", 4) == 0
    assert _cli("encode", "--outdir", out) == 0
    rc = _cli(
        "cluster", "--outdir", out, "--representation", "uts",
        "--cluster-method", "ward", "--task", "multiclass",
    )
    assert rc == 2


def test_cli_duplicate_features_is_usage_error(cli_workspace, tmp_path, caplog):
    root, tweets, labels_csv = cli_workspace
    rc = _cli("run-all", "--outdir", tmp_path / "dup", "--tweets", tweets, "--labels", labels_csv,
              "--features", "num_urls,num_urls", "--epochs", 2)
    assert rc == 2
    assert "repeat" in caplog.text


def test_cli_unknown_features_is_usage_error_before_parse(cli_workspace, tmp_path, caplog):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "bogus"
    rc = _cli("run-all", "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
              "--features", "num_urls,bogus", "--epochs", 2)
    assert rc == 2
    assert "configuration error: unknown features ['bogus']" in caplog.text
    assert not out.exists()


@pytest.fixture(scope="module")
def three_user_workspace(small_dataset, tmp_path_factory):
    """One genuine user and one user of each botnet."""
    records, labels = small_dataset
    keep = {"gen_0000": 0, "bot1_0000": 1, "bot2_0000": 2}
    root = tmp_path_factory.mktemp("three")
    write_tweets_jsonl([r for r in records if r.user_id in keep], root / "tweets.jsonl")
    (root / "labels.csv").write_text(
        "user_id,class_id\n" + "".join(f"{uid},{cid}\n" for uid, cid in keep.items()))
    return root, root / "tweets.jsonl", root / "labels.csv"


@pytest.mark.parametrize("command", ["run-all", "lobo"])
@pytest.mark.parametrize("workspace, flags, message", [
    ("three_user_workspace", ("--variant-preset", "UTS_DBSCAN", "--task", "multiclass"),
     "min_pts=4 needs at least 4 users for the k-distance knee, got N=3"),
    # A binary cut at other than two clusters is scored only with --genuine-cluster.
    ("cli_workspace", ("--variant-preset", "Glob_Hier", "--n-clusters", 50, "--genuine-cluster", 1),
     "a Ward cut at n_clusters=50 needs at least 50 users, got N=32"),
])
def test_cli_setting_the_population_cannot_meet_fails_before_training(
        request, tmp_path, caplog, command, workspace, flags, message):
    root, tweets, labels_csv = request.getfixturevalue(workspace)
    out = tmp_path / "o"
    assert _cli(command, "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
                *flags, "--epochs", 2) == 4
    assert message in caplog.text
    assert not list(out.glob("model_*"))


@pytest.fixture(scope="module")
def forty_one_user_workspace(tmp_path_factory):
    """`synth --n-genuine 1` (41 users) taken through extract, a 1-epoch
    train and encode."""
    out = tmp_path_factory.mktemp("n41")
    assert _cli("synth", "--outdir", out, "--n-genuine", 1) == 0
    assert _cli("extract", "--outdir", out, "--tweets", out / "tweets.jsonl") == 0
    for step in ("train", "encode"):
        assert _cli(step, "--outdir", out, "--variant-preset", "UTS_DBSCAN", "--epochs", 1) == 0
    return out


@pytest.mark.parametrize("step, product", [
    ("train", "model_*"), ("encode", "latent_*"), ("features", "global_features*"),
])
@pytest.mark.parametrize("flags, message", [
    (("--variant-preset", "Glob_Hier", "--n-clusters", 50),
     "a Ward cut at n_clusters=50 needs at least 50 users, got N=41"),
    (("--variant-preset", "UTS_DBSCAN", "--min-pts", 60),
     "min_pts=60 needs at least 60 users for the k-distance knee, got N=41"),
])
def test_cli_step_rejects_setting_the_population_cannot_meet(
        forty_one_user_workspace, tmp_path, caplog, step, product, flags, message):
    out = tmp_path / "o"
    shutil.copytree(forty_one_user_workspace, out)
    for path in out.glob(product):
        path.unlink()
    assert _cli(step, "--outdir", out, *flags, "--epochs", 1) == 4
    assert message in caplog.text
    assert not list(out.glob(product))


def test_check_population_leaves_an_unknown_class_count_unchecked():
    cfg = replace(apply_preset(PipelineConfig(), "Glob_Hier"), task="multiclass")
    assert check_population(cfg, 41, None) is None
    assert check_population(cfg, 41, 3) == 3
    with pytest.raises(ValueError, match="n_clusters=50 needs at least 50 users, got N=41"):
        check_population(replace(cfg, n_clusters=50), 41, None)


def test_cli_unreadable_tweets_is_data_error(tmp_path):
    rc = _cli("extract", "--outdir", tmp_path / "o", "--tweets", tmp_path / "nope.jsonl")
    assert rc == 4


@pytest.mark.parametrize("preset, task", [("UTS_DBSCAN", "multiclass"), ("Glob_Vec_Hier", "binary")])
def test_cli_step_flow_equals_run_all(cli_workspace, tmp_path, preset, task):
    root, tweets, labels_csv = cli_workspace
    flags = ["--variant-preset", preset, "--task", task, "--seed", 2,
             "--epochs", FAST["epochs"], "--latent-dim", FAST["latent_dim"]]
    whole, steps = tmp_path / "whole", tmp_path / "steps"
    assert _cli("run-all", "--outdir", whole, "--tweets", tweets, "--labels", labels_csv, *flags) == 0
    assert _cli("extract", "--outdir", steps, "--tweets", tweets, *flags) == 0
    names = ["train", "encode", "cluster"]
    if preset.startswith("Glob"):
        names.insert(2, "features")
    for name in names:
        assert _cli(name, "--outdir", steps, *flags) == 0, name
    assert _cli("evaluate", "--outdir", steps, "--labels", labels_csv, *flags) == 0

    compared = ["clusters.csv", "confusion.csv", "cluster_report.json"]
    if preset == "Glob_Vec_Hier":
        compared += ["dendrogram.json", "global_features.csv"]
    compared += sorted(p.name for p in whole.glob("model_*.ckpt"))
    assert len(compared) == (4 if preset == "UTS_DBSCAN" else 7)
    for name in compared:
        assert (steps / name).read_bytes() == (whole / name).read_bytes(), name


def test_cli_steps_select_features_from_the_full_tensor(cli_workspace, tmp_path, capsys):
    # extract writes all six features; train selects --features from them
    # and encode reads the model's own, so both write what run-all does.
    root, tweets, labels_csv = cli_workspace
    flags = ["--variant-preset", "Glob_Vec_Hier", "--features", "num_urls,num_hashtags",
             "--seed", 2, "--epochs", FAST["epochs"], "--latent-dim", FAST["latent_dim"]]
    whole, steps = tmp_path / "whole", tmp_path / "steps"
    assert _cli("run-all", "--outdir", whole, "--tweets", tweets, "--labels", labels_csv, *flags) == 0
    assert _cli("extract", "--outdir", steps, "--tweets", tweets) == 0
    assert "D=6)" in capsys.readouterr().out
    for name in ("train", "encode"):
        assert _cli(name, "--outdir", steps, *flags) == 0, name
    assert load_model(steps / "model_uts.ckpt").input_dim == 2
    for name in ("model_uts.ckpt", "model_vec.ckpt", "latent_uts.tensor", "latent_vec.tensor"):
        assert (steps / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.fixture(scope="module")
def trained_workspace(cli_workspace, tmp_path_factory):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path_factory.mktemp("trained")
    assert _cli("extract", "--outdir", out, "--tweets", tweets) == 0
    assert _cli("train", "--outdir", out, "--epochs", 2) == 0
    return out


@pytest.mark.parametrize("artifact, command", [
    ("mts_raw.tensor", "train"), ("model_uts.ckpt", "encode"),
])
@pytest.mark.parametrize("part", ["magic", "length", "header", "body"])
def test_cli_truncated_container_is_data_error(trained_workspace, tmp_path, caplog,
                                               artifact, command, part):
    out = tmp_path / "cut"
    out.mkdir()
    for name in ("mts_raw.tensor", "model_uts.ckpt"):
        (out / name).write_bytes((trained_workspace / name).read_bytes())
    data = (out / artifact).read_bytes()
    header_end = 12 + int.from_bytes(data[8:12], "little")
    cut = {"magic": 5, "length": 10, "header": (12 + header_end) // 2,
           "body": len(data) - 3}[part]
    (out / artifact).write_bytes(data[:cut])
    assert _cli(command, "--outdir", out, "--epochs", 2) == 4
    assert artifact in caplog.text


def _rewrite_header(path, key, value):
    """Drop a container header key (value None) or set it to value."""
    data = path.read_bytes()
    header_end = 12 + int.from_bytes(data[8:12], "little")
    header = json.loads(data[12:header_end])
    if value is None:
        del header[key]
    else:
        header[key] = value
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[header_end:])


@pytest.mark.parametrize("artifact, command, key, value, message", [
    ("mts_raw.tensor", "train", "n", None, "has no 'n' key"),
    ("model_uts.ckpt", "encode", "version", None, "has no 'version' key"),
    ("model_uts.ckpt", "encode", "version", 1, "checkpoint version 1 is no longer supported; retrain"),
    ("model_uts.ckpt", "encode", "config", {"variant": "uts"}, "has no 'latent_dim' key"),
    ("model_uts.ckpt", "encode", "input_dim", 5, "checkpoint blocks do not match"),
    ("mts_raw.tensor", "train", "n", "4", "header field 'n' must be a non-negative integer, got '4'"),
    ("mts_raw.tensor", "train", "n", -4, "header field 'n' must be a non-negative integer, got -4"),
    ("mts_raw.tensor", "train", "n", 4.0, "header field 'n' must be a non-negative integer, got 4.0"),
    ("mts_raw.tensor", "train", "d", True, "header field 'd' must be a non-negative integer, got True"),
    ("model_uts.ckpt", "encode", "blocks", [{"name": "b", "shape": "x"}],
     "header field 'shape' must be a list, got 'x'"),
    ("model_uts.ckpt", "encode", "blocks", [{"name": "b", "shape": [2, -1]}],
     "header field 'shape' must be a non-negative integer, got -1"),
])
def test_cli_damaged_header_is_data_error(trained_workspace, tmp_path, caplog,
                                          artifact, command, key, value, message):
    out = tmp_path / "edited"
    out.mkdir()
    for name in ("mts_raw.tensor", "model_uts.ckpt"):
        (out / name).write_bytes((trained_workspace / name).read_bytes())
    _rewrite_header(out / artifact, key, value)
    assert _cli(command, "--outdir", out, "--epochs", 2) == 4
    assert artifact in caplog.text
    assert message in caplog.text


def test_cli_features_rejects_vec_representation(tmp_path, caplog):
    assert _cli("features", "--outdir", tmp_path / "o", "--variant-preset", "Vec_Hier") == 2
    assert "glob and glob_vec" in caplog.text


def test_cli_train_zero_epochs_exits_0(trained_workspace, tmp_path, capsys):
    out = tmp_path / "zero"
    out.mkdir()
    (out / "mts_raw.tensor").write_bytes((trained_workspace / "mts_raw.tensor").read_bytes())
    assert _cli("train", "--outdir", out, "--epochs", 0) == 0
    assert (out / "model_uts.ckpt").exists()
    assert "0 epochs" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (("--epochs", -1), "epochs must be non-negative"),
    (("--holdout-fraction", 1.5), "holdout_fraction must lie in (0, 1)"),
    (("--variant-preset", "Vec_Hier", "--latent-dim", 0), "latent_dim must be positive"),
    (("--learning-rate", -0.5), "learning_rate must be positive"),
    (("--learning-rate", 0), "learning_rate must be positive"),
    (("--n-clusters", 0), "n_clusters must be at least 1"),
    (("--genuine-cluster", 0), "genuine_cluster must be at least 1, got 0"),
    (("--genuine-cluster", 3), "genuine_cluster 3 out of range for a binary Ward cut at 2 clusters"),
    (("--eps", -1), "eps must be non-negative"),
    (("--seed", -1), "seed must be non-negative, got -1"),
])
def test_cli_bad_encoder_setting_is_usage_error_before_parse(tmp_path, caplog, flags, message):
    # The tweets file does not exist: the setting fails first, with exit 2, not 4,
    # and writes nothing.
    rc = _cli("run-all", "--outdir", tmp_path / "o", "--tweets", tmp_path / "nope.jsonl",
              "--labels", tmp_path / "nope.csv", *flags)
    assert rc == 2
    assert message in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("artifact, body, message", [
    ("clusters.csv", b"user_id,cluster_id\nu0,1\nu1\n", "line 3: expected 2 columns, got 1"),
    ("clusters.csv", b"user_id,cluster_id\nu0,1\nu1,x\n", "line 3: cluster id is not an integer: 'x'"),
    ("clusters.csv", b"user_id,cluster_id\nu0,1\nu1,2\nu0,2\n", "line 4: user id 'u0' repeats line 2"),
    ("clusters.csv", b"user_id,cluster_id\nu0,1\nu1,-1\n", "line 3: cluster id -1 is negative"),
    ("clusters.csv", b"user_id,cluster_id\nu0,1\nu\xff,2\n", "line 3: byte 0xff is not UTF-8"),
    ("global_features.csv", b"user_id,mean\nu0,0.5\nu1\n", "line 3: expected 2 columns, got 1"),
    ("global_features.csv", b"user_id,mean\nu0,0.5\nu1,x\n", "line 3: could not convert"),
    ("global_features.csv", b"user_id,mean\nu0,0.5\nu\xff,0.1\n", "line 3: byte 0xff is not UTF-8"),
    ("global_features.csv", b"user_id,mean\nu0,0.5\nu1,0.1\nu0,0.2\n", "line 4: user id 'u0' repeats line 2"),
])
def test_cli_damaged_csv_artifact_is_data_error(tmp_path, caplog, artifact, body, message):
    # Each file is damaged for the step that reads it: evaluate reads the
    # clusters, a Glob_Hier cluster step the global features.
    out = tmp_path / "o"
    out.mkdir()
    (out / "cluster_report.json").write_text('{"polarity": {"local_density": [1.0, 2.0]}}')
    (out / artifact).write_bytes(body)
    (tmp_path / "labels.csv").write_text("user_id,class_id\nu0,0\nu1,1\n")
    step = {"clusters.csv": ("evaluate", "--labels", tmp_path / "labels.csv"),
            "global_features.csv": ("cluster",)}[artifact]
    assert _cli(*step, "--outdir", out, "--variant-preset", "Glob_Hier", "--task", "binary") == 4
    assert f"{out / artifact}: {message}" in caplog.text


_FAST_FLAGS = ("--epochs", FAST["epochs"], "--latent-dim", FAST["latent_dim"])
_BINARY_WARD = ("--variant-preset", "Glob_Hier", "--task", "binary", *_FAST_FLAGS)


@pytest.fixture(scope="module")
def ward_workspace(cli_workspace, tmp_path_factory):
    """A binary Glob_Hier run-all, whose cluster_report.json records the polarity."""
    root, tweets, labels_csv = cli_workspace
    out = tmp_path_factory.mktemp("ward")
    assert _cli("run-all", "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
                *_BINARY_WARD) == 0
    return out


def test_cli_binary_ward_evaluate_reads_no_points(cli_workspace, ward_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "w"
    shutil.copytree(ward_workspace, out)
    scored = ("metrics_report.json", "confusion.csv")
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD) == 0
    before = {name: (out / name).read_bytes() for name in scored}
    assert before["confusion.csv"] == (ward_workspace / "confusion.csv").read_bytes()
    # Neither the global features nor the latents they came from are read.
    points = [*out.glob("global_features*.csv"), *out.glob("latent_*.tensor")]
    assert len(points) == 3
    for path in points:
        path.unlink()
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD) == 0
    assert {name: (out / name).read_bytes() for name in scored} == before


def test_cli_evaluate_without_recorded_polarity(cli_workspace, ward_workspace, tmp_path, caplog):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "w"
    shutil.copytree(ward_workspace, out)
    report = out / "cluster_report.json"
    # A multiclass cut at two clusters records no polarity scores.
    assert _cli("cluster", "--outdir", out, "--variant-preset", "Glob_Hier",
                "--task", "multiclass", "--n-clusters", 2, *_FAST_FLAGS) == 0
    assert "polarity" not in json.loads(report.read_text())
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD) == 2
    assert f"{report} records no polarity scores" in caplog.text
    assert "--genuine-cluster" in caplog.text
    metrics = out / "metrics_report.json"
    assert metrics.read_bytes() == (ward_workspace / "metrics_report.json").read_bytes()
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD,
                "--genuine-cluster", 1) == 0
    # A truncated report, or one that is not an object, is damaged data named by its path.
    for damaged in (report.read_text()[:40], "[]"):
        report.write_text(damaged)
        caplog.clear()
        assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD) == 4
        assert f"{report}: " in caplog.text


def _header_edited(edit):
    """Damage for a container file: edit applied to its JSON header, which
    edit returns as a new dict or as bytes."""
    def damage(data):
        end = 12 + int.from_bytes(data[8:12], "little")
        header = edit(json.loads(data[12:end]))
        blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
        return data[:8] + len(blob).to_bytes(4, "little") + blob + data[end:]
    return damage


_READ_BY = {   # damaged file -> the command that reads it, run in the file's directory
    "mts_raw.tensor": ("train", "--epochs", 2),
    "model_uts.ckpt": ("encode",),
    "cluster_report.json": ("evaluate", "--labels", "labels.csv", *_BINARY_WARD),
    "tweets.jsonl": ("extract", "--tweets", "tweets.jsonl"),
    "labels.csv": ("run-all", "--tweets", "tweets.jsonl", "--labels", "labels.csv"),
}
_DAMAGED_INPUTS = {
    "tensor_n_is_a_string": ("mts_raw.tensor", _header_edited(lambda h: {**h, "n": "4"})),
    "tensor_header_not_utf8": ("mts_raw.tensor",
                               _header_edited(lambda h: b"\xff" + json.dumps(h).encode())),
    "tensor_user_ids_one_short": ("mts_raw.tensor",
                                  _header_edited(lambda h: {**h, "user_ids": h["user_ids"][1:]})),
    "checkpoint_shape_is_a_string": ("model_uts.ckpt", _header_edited(
        lambda h: {**h, "blocks": [{**h["blocks"][0], "shape": "x"}, *h["blocks"][1:]]})),
    "checkpoint_variant_unknown": ("model_uts.ckpt", _header_edited(
        lambda h: {**h, "config": {**h["config"], "variant": "xyz"}})),
    "report_polarity_without_local_density": ("cluster_report.json",
                                              lambda data: b'{"polarity": {"ratio": 2.0}}'),
    "report_polarity_one_score": ("cluster_report.json",
                                  lambda data: b'{"polarity": {"local_density": [1.0]}}'),
    "tweets_empty": ("tweets.jsonl", lambda data: b""),
    "labels_not_dense": ("labels.csv", lambda data: b"user_id,class_id\na,0\nb,2\n"),
    "labels_wrong_header": ("labels.csv", lambda data: b"user,class_id\na,0\n"),
}


@pytest.mark.parametrize("name, damage", _DAMAGED_INPUTS.values(), ids=_DAMAGED_INPUTS)
def test_cli_damaged_input_names_its_file(cli_workspace, trained_workspace, tmp_path,
                                          monkeypatch, caplog, name, damage):
    # Wherever in the load of a damaged input its error is raised, it
    # exits 4 and names the file.
    root, tweets, labels_csv = cli_workspace
    for source in (trained_workspace / "mts_raw.tensor", trained_workspace / "model_uts.ckpt",
                   tweets, labels_csv):
        shutil.copy(source, tmp_path)
    (tmp_path / "clusters.csv").write_text("user_id,cluster_id\nu0,1\nu1,2\n")
    path = tmp_path / name
    path.write_bytes(damage(path.read_bytes() if path.exists() else b""))
    monkeypatch.chdir(tmp_path)
    command, *flags = _READ_BY[name]
    assert _cli(command, "--outdir", ".", *flags) == 4
    assert f"{name}: " in caplog.text


@pytest.mark.parametrize("flags, message", [
    (("--n-days", 1), "n_days must be >= 2, got 1"),
    (("--n-genuine", 0), "n_genuine must be >= 1, got 0"),
    (("--seed", -1), "seed must be non-negative, got -1"),
])
def test_cli_bad_synth_setting_is_usage_error(tmp_path, caplog, flags, message):
    out = tmp_path / "synthout"
    assert _cli("synth", "--outdir", out, *flags) == 2
    assert f"configuration error: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("classes, message", [
    ("x", "invalid literal for int() with base 10: 'x'"),
    ("1,x", "invalid literal for int() with base 10: 'x'"),
    ("0,1", "cannot exclude the genuine class"),
    ("1", "need at least 2 bot classes, got [1]"),
])
def test_cli_bad_bot_classes_is_usage_error_before_parse(tmp_path, caplog, classes, message):
    # The tweets file does not exist: the flag fails first, with exit 2, not 4.
    out = tmp_path / "o"
    assert _cli("lobo", "--outdir", out, "--tweets", tmp_path / "nope.jsonl",
                "--labels", tmp_path / "nope.csv", "--bot-classes", classes) == 2
    assert f"--bot-classes {classes!r}: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    *((command, ("--variant-preset", "Glob_Hier", "--n-clusters", 3),
       "polarity rule needs exactly 2 clusters, got 3; pass genuine_cluster explicitly")
      for command in ("run-all", "lobo", "importance")),
    ("importance", ("--features", "num_urls"),
     "importance leaves out one feature at a time, so it needs at least 2, got ['num_urls']"),
])
def test_cli_setting_no_run_can_score_is_usage_error_before_parse(tmp_path, caplog, command,
                                                                  flags, message):
    # The tweets file does not exist: the setting fails first, with exit 2, not 4.
    out = tmp_path / "o"
    assert _cli(command, "--outdir", out, "--tweets", tmp_path / "nope.jsonl",
                "--labels", tmp_path / "nope.csv", *flags) == 2
    assert f"configuration error: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, flags, missing", [
    ("extract", (), "tweets"),
    ("evaluate", (), "labels"),
    *((command, given, missing) for command in ("run-all", "lobo", "importance")
      for given, missing in ((("--labels", "labels.csv"), "tweets"),
                             (("--tweets", "tweets.jsonl"), "labels"))),
])
def test_cli_missing_input_file_is_usage_error_before_outdir(tmp_path, caplog, command, flags,
                                                             missing):
    # The files given do not exist: only the one not given is refused.
    out = tmp_path / "o"
    assert _cli(command, "--outdir", out, *flags) == 2
    assert (f"configuration error: no {missing} file given "
            f"(flag --{missing} or config key '{missing}')") in caplog.text
    assert not out.exists()


def test_cli_input_files_from_config_file_only(cli_workspace, ward_workspace, tmp_path):
    root, tweets, labels_csv = cli_workspace
    cfg = tmp_path / "inputs.json"
    cfg.write_text(json.dumps({"tweets": str(tweets), "labels": str(labels_csv)}))
    assert _cli("extract", "--config", cfg, "--outdir", tmp_path / "a") == 0
    assert _cli("extract", "--tweets", tweets, "--outdir", tmp_path / "b") == 0
    assert ((tmp_path / "a" / "mts_raw.tensor").read_bytes()
            == (tmp_path / "b" / "mts_raw.tensor").read_bytes())
    out = tmp_path / "w"
    shutil.copytree(ward_workspace, out)
    assert _cli("evaluate", "--config", cfg, "--outdir", out, *_BINARY_WARD) == 0
    assert (out / "confusion.csv").read_bytes() == (ward_workspace / "confusion.csv").read_bytes()


def test_cli_padded_ids_in_tweets_and_labels_are_one_user(cli_workspace, small_dataset, tmp_path):
    root, tweets, labels_csv = cli_workspace
    records, labels = small_dataset
    padded_tweets, padded_labels = tmp_path / "tweets.jsonl", tmp_path / "labels.csv"
    # By hand: the writer refuses a padded id.
    padded_tweets.write_text(tweets.read_text().replace('"user_id": "', '"user_id": " '))
    padded_labels.write_text("user_id,class_id\n" + "".join(
        f"{uid}\t,{cid}\n" for uid, cid in sorted(labels.labels.items())))
    for out, inputs in ((tmp_path / "a", (tweets, labels_csv)),
                        (tmp_path / "b", (padded_tweets, padded_labels))):
        assert _cli("run-all", "--outdir", out, "--tweets", inputs[0], "--labels", inputs[1],
                    "--variant-preset", "UTS_DBSCAN", *_FAST_FLAGS) == 0
    for name in ("clusters.csv", "confusion.csv", "mts_raw.tensor"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_binary_three_way_cut_is_scored_with_genuine_cluster(cli_workspace, ward_workspace,
                                                                 tmp_path, caplog):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "w"
    shutil.copytree(ward_workspace, out)
    assert _cli("cluster", "--outdir", out, *_BINARY_WARD, "--n-clusters", 3) == 0
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD) == 2
    assert "records no polarity scores" in caplog.text
    assert _cli("evaluate", "--outdir", out, "--labels", labels_csv, *_BINARY_WARD,
                "--n-clusters", 3, "--genuine-cluster", 3) == 0
    assert _cli("run-all", "--outdir", tmp_path / "r", "--tweets", tweets, "--labels", labels_csv,
                *_BINARY_WARD, "--n-clusters", 3, "--genuine-cluster", 3) == 0
    assert (out / "confusion.csv").read_bytes() == (tmp_path / "r" / "confusion.csv").read_bytes()


@pytest.mark.parametrize("importance, summary", [
    ((0.0,) * 6, "no feature carries weight, baseline weighted_f1=0.8750"),
    ((0.0, 0.25, 0.0, 0.75, 0.0, 0.0), "top retweet_count (0.750)"),
], ids=["all-zero", "weighted"])
def test_importance_summary_names_a_feature_only_with_weight(cli_workspace, tmp_path, monkeypatch,
                                                            capsys, importance, summary):
    from botclust import cli
    from botclust.ingest import FEATURE_NAMES

    def fake_run(mts_raw, true, n_classes, config):
        return {"baseline_f1": 0.875,
                "features": {name: {"ratio": 1.0, "importance": w}
                             for name, w in zip(FEATURE_NAMES, importance)}}

    monkeypatch.setattr(cli, "importance_run_from_mts", fake_run)
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "imp"
    assert _cli("importance", "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
                "--variant-preset", "Glob_Hier") == 0
    assert capsys.readouterr().out.splitlines() == [
        f"importance: {summary} -> {out / 'importance_report.json'}"]


@pytest.mark.parametrize("command, preset, report, legs", [
    ("run-all", "Glob_Vec_Hier", "metrics_report.json", 2),
    ("run-all", "UTS_DBSCAN", "metrics_report.json", 1),
    ("lobo", "Glob_Hier", "lobo_report.json", 3),
    ("importance", "Glob_Hier", "importance_report.json", 7),
])
def test_cli_timing_records_workers(cli_workspace, tmp_path, command, preset, report, legs):
    root, tweets, labels_csv = cli_workspace
    out = tmp_path / "w"
    assert _cli(command, "--outdir", out, "--tweets", tweets, "--labels", labels_csv,
                "--variant-preset", preset, "--epochs", 2, "--latent-dim", 4) == 0
    timing = json.loads((out / report).read_text())["timing"]
    assert timing["workers"] == min(legs, len(os.sched_getaffinity(0)))
