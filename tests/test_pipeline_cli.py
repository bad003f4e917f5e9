import json
import os
from dataclasses import replace

import numpy as np
import pytest

from botclust.cli import main
from botclust.ingest import build_timelines
from botclust.mts import extract_mts
from botclust.pipeline import (
    PRESETS,
    PipelineConfig,
    _encode,
    _train_models,
    apply_preset,
    config_hash,
    derive_seed,
    lobo_run,
    run_pipeline,
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


def test_derive_seed_is_stable():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(43, 1) != derive_seed(42, 1)


def test_run_pipeline_binary_ward(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    res = run_pipeline(build_timelines(records), labels, cfg)
    assert res.pred_labels.shape == res.true_labels.shape
    assert set(np.unique(res.pred_labels)) <= {0, 1}
    assert res.assignment.n_clusters == 2
    assert res.metrics.confusion.shape == (2, 2)
    assert res.dendrogram is not None
    assert "uts" in res.models


def test_cluster_report_polarity_scores_name_genuine(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    res = run_pipeline(build_timelines(records), labels, cfg)
    polarity = res.clustering.report(cfg)["polarity"]
    scores = polarity["local_density"]
    assert len(scores) == 2 and min(scores) > 0
    assert polarity["ratio"] == max(scores) / min(scores)
    genuine = 1 + int(np.argmax(scores))
    assert np.all(res.pred_labels[res.assignment.members(genuine)] == 0)
    assert np.all(res.pred_labels[res.assignment.members(3 - genuine)] == 1)
    multiclass = replace(cfg, task="multiclass")
    assert "polarity" not in res.clustering.report(multiclass)


def test_run_pipeline_multiclass_dbscan(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="multiclass", seed=0, **FAST), "UTS_DBSCAN")
    res = run_pipeline(build_timelines(records), labels, cfg)
    assert res.clustering.eps is not None and res.clustering.eps > 0
    assert res.metrics.confusion.shape == (3, 3)
    assert set(np.unique(res.pred_labels)) <= {0, 1, 2}


def test_run_pipeline_vec_and_glob_vec(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Vec_Hier")
    res = run_pipeline(build_timelines(records), labels, cfg)
    assert res.latents["vec"].shape == (32, FAST["latent_dim"])

    cfg2 = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Vec_Hier")
    res2 = run_pipeline(build_timelines(records), labels, cfg2)
    # z-scored stats (19) concatenated with the vector latent
    assert res2.points.shape == (32, 19 + FAST["latent_dim"])
    assert "uts" in res2.models and "vec" in res2.models


def test_trained_legs_encode_as_the_serial_encode(small_dataset):
    # A leg encodes the min-max output it trained on; the serial stage
    # rescales the raw tensor with the stored statistics. Same bits.
    records, labels = small_dataset
    mts = extract_mts(build_timelines(records))
    cfg = apply_preset(PipelineConfig(task="binary", seed=2, **FAST), "Glob_Vec_Hier")
    models, reports, latents = _train_models(cfg, mts, cfg.seed, encoded=True)
    assert set(latents) == {"uts", "vec"}
    for variant, latent in _encode(models, mts).items():
        assert np.array_equal(latents[variant], latent), variant
    assert _train_models(cfg, mts, cfg.seed)[2] == {}


def test_pipeline_deterministic_per_seed(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=5, **FAST), "Glob_Hier")
    r1 = run_pipeline(build_timelines(records), labels, cfg)
    r2 = run_pipeline(build_timelines(records), labels, cfg)
    assert np.array_equal(r1.pred_labels, r2.pred_labels)
    assert np.array_equal(r1.points, r2.points)
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
    rep = lobo_run(build_timelines(records), labels, cfg)
    assert set(rep.entries) == {1, 2}
    for entry in rep.entries.values():
        assert "weighted_f1" in entry and "pct_change" in entry
    d = rep.to_dict()
    assert set(d["excluded"]) == {"1", "2"}


def test_lobo_guards(small_dataset):
    records, labels = small_dataset
    cfg = apply_preset(PipelineConfig(task="binary", seed=0, **FAST), "Glob_Hier")
    with pytest.raises(ValueError):
        lobo_run(build_timelines(records), labels, cfg, bot_classes=[1])
    with pytest.raises(ValueError):
        lobo_run(build_timelines(records), labels, cfg, bot_classes=[0, 1])


# ----------------------------------------------------------------- CLI


def _cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, small_dataset):
    """A synth dataset written once for the whole CLI flow."""
    from botclust.ingest import write_tweets_jsonl

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


def test_cli_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    rc = _cli("synth", "--config", cfg, "--outdir", tmp_path / "o")
    assert rc == 2


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
    (("--eps", -1), "eps must be non-negative"),
])
def test_cli_bad_encoder_setting_is_usage_error_before_parse(tmp_path, caplog, flags, message):
    # The tweets file does not exist: the setting fails first, with exit 2, not 4.
    rc = _cli("run-all", "--outdir", tmp_path / "o", "--tweets", tmp_path / "nope.jsonl",
              "--labels", tmp_path / "nope.csv", *flags)
    assert rc == 2
    assert message in caplog.text


@pytest.mark.parametrize("artifact, body, message", [
    ("clusters.csv", "user_id,cluster_id\nu0,1\nu1\n", "line 3: expected 2 columns, got 1"),
    ("clusters.csv", "user_id,cluster_id\nu0,1\nu1,x\n", "line 3: cluster id is not an integer: 'x'"),
    ("clusters.csv", "user_id,cluster_id\nu0,1\nu1,2\nu0,2\n", "line 4: user id 'u0' repeats line 2"),
    ("clusters.csv", "user_id,cluster_id\nu0,1\nu1,-1\n", "line 3: cluster id -1 is negative"),
    ("global_features.csv", "user_id,mean\nu0,0.5\nu1\n", "line 3: expected 2 columns, got 1"),
    ("global_features.csv", "user_id,mean\nu0,0.5\nu1,x\n", "line 3: could not convert"),
])
def test_cli_damaged_csv_artifact_is_data_error(tmp_path, caplog, artifact, body, message):
    # Binary Ward with no --genuine-cluster reads the points, here the global features.
    out = tmp_path / "o"
    out.mkdir()
    (out / "clusters.csv").write_text("user_id,cluster_id\nu0,1\nu1,2\n")
    (out / "global_features.csv").write_text("user_id,mean\nu0,0.5\nu1,1.5\n")
    (out / artifact).write_text(body)
    (tmp_path / "labels.csv").write_text("user_id,class_id\nu0,0\nu1,1\n")
    assert _cli("evaluate", "--outdir", out, "--labels", tmp_path / "labels.csv",
                "--variant-preset", "Glob_Hier", "--task", "binary") == 4
    assert f"{out / artifact}: {message}" in caplog.text


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
