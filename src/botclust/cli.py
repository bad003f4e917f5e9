"""Command-line orchestration of the detection pipeline.

Every stage is a subcommand writing its artifact into --outdir, so a run
can be driven stepwise (extract, train, encode, features, cluster,
evaluate) or in one shot (run-all). A step only loads its input
artifacts, calls the pipeline stage that run-all chains, and saves the
result with the saver run-all uses, so for the same settings both flows
write the same bytes. Settings merge with precedence
flag > config file > default; --variant-preset expands to a
representation plus clustering method before explicit flags apply.

Exit codes: 0 success, 2 usage or configuration error, 3 missing
upstream artifact, 4 invalid data, 1 unexpected failure. Logs go to
stderr; each subcommand prints a one-line summary to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autoencoder import load_model, save_model
from .clustering import (
    distance_matrix,
    load_assignment_csv,
    save_assignment_csv,
    save_dendrogram_json,
)
from .globalfeats import load_features_csv, save_features_csv
from .ingest import LabelTable, ParseError, TweetTable, load_labels, parse_tweets, write_tweets_jsonl
from .labeling import feature_importance
from .legs import last_workers
from .mts import MtsTensor, load_tensor, save_tensor
from .pipeline import (
    ENCODERS,
    PRESETS,
    Clustering,
    PipelineConfig,
    _cluster,
    _encode,
    _label_and_score,
    _make_points,
    _train_models,
    apply_preset,
    config_hash,
    global_features,
    lobo_run,
    prepare,
    run_pipeline_from_mts,
    truth_vector,
)
from .synth import SynthConfig, generate_dataset

log = logging.getLogger("botclust")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_DATA = 4

A_MTS = "mts_raw.tensor"
A_FEATS = "global_features.csv"
A_FEATS_RAW = "global_features_raw.csv"
A_CLUSTERS = "clusters.csv"
A_DENDRO = "dendrogram.json"
A_CLUSTER_REP = "cluster_report.json"
A_METRICS = "metrics_report.json"
A_CONFUSION = "confusion.csv"
A_IMPORTANCE = "importance_report.json"
A_LOBO = "lobo_report.json"
A_TWEETS = "tweets.jsonl"
A_LABELS = "labels.csv"


def _model_name(variant: str) -> str:
    return f"model_{variant}.ckpt"


def _latent_name(variant: str) -> str:
    return f"latent_{variant}.tensor"


class ConfigError(ValueError):
    pass


class MissingArtifactError(RuntimeError):
    def __init__(self, path: Path, producer: str):
        super().__init__(
            f"missing artifact {path}; run `botclust {producer}` first"
        )
        self.path = path
        self.producer = producer


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(path, producer)
    return path


_PATH_KEYS = ("tweets", "labels", "format", "outdir")
_PIPELINE_KEYS = tuple(PipelineConfig().to_dict())


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    allowed = set(_PATH_KEYS) | set(_PIPELINE_KEYS) | {"variant_preset"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed: {sorted(allowed)}")
    return data


def _merged(args: argparse.Namespace) -> tuple[dict, PipelineConfig]:
    """Resolve paths and pipeline settings with flag > config > default;
    each source's preset applies before that source's own keys."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    layers = (
        (file_cfg.get("variant_preset"), {k: file_cfg[k] for k in _PIPELINE_KEYS if k in file_cfg}),
        (getattr(args, "variant_preset", None),
         {k: getattr(args, k) for k in _PIPELINE_KEYS if getattr(args, k, None) is not None}),
    )
    config = PipelineConfig()
    try:
        for preset, keys in layers:
            if preset:
                config = apply_preset(config, preset)
            if isinstance(keys.get("features"), str):
                keys["features"] = [f.strip() for f in keys["features"].split(",") if f.strip()]
            config = PipelineConfig.from_dict({**config.to_dict(), **keys})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    paths = {}
    for key in _PATH_KEYS:
        paths[key] = getattr(args, key, None) or file_cfg.get(key)
    paths["outdir"] = Path(paths["outdir"] or "out")
    paths["format"] = paths["format"] or "jsonl"
    return paths, config


def _outdir(paths: dict) -> Path:
    out = paths["outdir"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(path: Path, payload: dict, config: PipelineConfig,
                  timing: dict | None = None) -> None:
    doc = dict(payload, config=config.to_dict(), config_hash=config_hash(config), seed=config.seed)
    if timing:
        doc["timing"] = timing
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _input(paths: dict, key: str) -> str:
    if not paths[key]:
        raise ConfigError(f"no {key} file given (flag --{key} or config key '{key}')")
    return paths[key]


def _read_inputs(paths: dict) -> tuple[TweetTable, LabelTable]:
    """The tweets file parsed into its table, and the labels."""
    tweets, labels = _input(paths, "tweets"), _input(paths, "labels")
    return parse_tweets(tweets, format=paths["format"]), load_labels(labels)


def _wrap_latent(latent: np.ndarray, source: MtsTensor, variant: str) -> MtsTensor:
    """A latent as a tensor file body: (N, T, 1) for uts, (N, 1, L) for vec."""
    if variant == "uts":
        values, names = latent, ("latent",)
    else:
        values, names = latent[:, np.newaxis, :], tuple(f"latent.{j}" for j in range(latent.shape[1]))
    return MtsTensor(values=values, user_ids=list(source.user_ids), feature_names=names,
                     day_min=source.day_min, kind=f"latent_{variant}")


def _load_latents(out: Path, variants) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Latent tensors back in the shapes the pipeline stages produce."""
    latents = {}
    for variant in variants:
        tensor = load_tensor(_require(out / _latent_name(variant), "encode"))
        latents[variant] = tensor.values if variant == "uts" else tensor.values[:, 0, :]
    return latents, tuple(tensor.user_ids)


def _load_points(config: PipelineConfig, out: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    """The clustering matrix from what the representation's producer step wrote."""
    if config.representation in ("glob", "glob_vec"):
        feats = load_features_csv(_require(out / A_FEATS, "features"))
        return feats.values, feats.user_ids
    latents, user_ids = _load_latents(out, ENCODERS[config.representation])
    return _make_points(config, latents, user_ids)[0], user_ids


# Savers shared by the step subcommands and run-all, so both flows write
# the same bytes.

def _save_models(out: Path, config: PipelineConfig, models: dict, reports: dict) -> None:
    for variant, model in models.items():
        save_model(model, out / _model_name(variant))
        doc = reports[variant].to_dict()
        timing = doc.pop("timing")
        _write_report(out / f"train_report_{variant}.json", {"train": doc}, config, timing)


def _save_latents(out: Path, latents: dict[str, np.ndarray], source: MtsTensor) -> None:
    for variant, latent in latents.items():
        save_tensor(_wrap_latent(latent, source, variant), out / _latent_name(variant))


def _save_features(out: Path, tables) -> None:
    raw, table = tables
    save_features_csv(raw, out / A_FEATS_RAW)
    save_features_csv(table, out / A_FEATS)


def _save_clustering(out: Path, config: PipelineConfig, clustering: Clustering) -> None:
    save_assignment_csv(clustering.assignment, out / A_CLUSTERS)
    if clustering.dendrogram is not None:
        save_dendrogram_json(clustering.dendrogram, out / A_DENDRO)
    _write_report(out / A_CLUSTER_REP, clustering.report(config), config)


def _save_scores(out: Path, config: PipelineConfig, metrics, timing: dict | None = None) -> None:
    _write_report(out / A_METRICS, {"task": config.task, "metrics": metrics.to_dict()},
                  config, timing)
    with open(out / A_CONFUSION, "w", newline="") as fh:
        writer = csv.writer(fh)
        k = metrics.confusion.shape[0]
        writer.writerow(["true\\pred"] + [str(j) for j in range(k)])
        for i in range(k):
            writer.writerow([str(i)] + [int(v) for v in metrics.confusion[i]])


def cmd_extract(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    mts, _ = prepare(parse_tweets(_input(paths, "tweets"), format=paths["format"]), None, config)
    save_tensor(mts, out / A_MTS)
    print(
        f"extract: wrote {out / A_MTS} "
        f"(N={mts.n_users}, T={mts.n_days}, D={mts.n_features})"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    mts = load_tensor(_require(out / A_MTS, "extract"))
    models, reports, _ = _train_models(config, mts, config.seed)
    _save_models(out, config, models, reports)
    for variant, report in reports.items():
        final = f"final train MSE {report.train_mse[-1]:.6f}" if report.train_mse else "0 epochs"
        print(f"train: {variant} autoencoder, {final} -> {out / _model_name(variant)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    models = {
        variant: load_model(_require(out / _model_name(variant), "train"))
        for variant in ENCODERS[config.representation]
    }
    mts = load_tensor(_require(out / A_MTS, "extract"))
    latents = _encode(models, mts)
    _save_latents(out, latents, mts)
    for variant, latent in latents.items():
        print(f"encode: latent shape {latent.shape} -> {out / _latent_name(variant)}")
    return EXIT_OK


def cmd_features(args) -> int:
    paths, config = _merged(args)
    if config.representation == "vec":
        raise ConfigError("the features step serves the glob and glob_vec representations; "
                          "vec clusters its latent directly, so run `botclust cluster`")
    out = _outdir(paths)
    latents, user_ids = _load_latents(out, ENCODERS[config.representation])
    tables = global_features(config, latents, user_ids)
    _save_features(out, tables)
    print(
        f"features: {tables[1].values.shape[1]} columns for "
        f"{tables[1].n_users} users -> {out / A_FEATS}"
    )
    return EXIT_OK


def cmd_cluster(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    if config.cluster_method == "ward" and config.task == "multiclass" and config.n_clusters is None:
        # run-all cuts at the class count, which needs the labels
        raise ConfigError("ward multiclass clustering needs n_clusters (flag --n-clusters)")
    points, user_ids = _load_points(config, out)
    clustering = _cluster(config, points, user_ids, n_classes=None)
    _save_clustering(out, config, clustering)
    report = clustering.report(config)
    print(f"cluster: {report['n_clusters']} clusters, {report['n_noise']} noise -> {out / A_CLUSTERS}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    labels_path = _input(paths, "labels")
    assignment = load_assignment_csv(_require(out / A_CLUSTERS, "cluster"))
    labels = load_labels(labels_path)
    true = truth_vector(labels, assignment.user_ids)
    dist = None
    if config.task == "binary" and config.cluster_method == "ward" and config.genuine_cluster is None:
        points, point_users = _load_points(config, out)
        if point_users != assignment.user_ids:
            raise ValueError("points artifact and clusters disagree on users")
        dist = distance_matrix(points)
    _pred, metrics = _label_and_score(config, assignment, dist, true, labels.num_classes)
    _save_scores(out, config, metrics)
    print(
        f"evaluate: task={config.task} weighted_f1={metrics.weighted_f1:.4f} "
        f"accuracy={metrics.accuracy:.4f} mcc={metrics.mcc:.4f} -> {out / A_METRICS}"
    )
    return EXIT_OK


def cmd_importance(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    tweets, labels = _read_inputs(paths)
    mts, true = prepare(tweets, labels, config)
    started = time.perf_counter()

    def runner(feats: tuple[str, ...]) -> float:
        result = run_pipeline_from_mts(
            mts, true, labels.num_classes, replace(config, features=tuple(feats))
        )
        return result.metrics.weighted_f1

    report = feature_importance(runner, mts.feature_names)
    _write_report(
        out / A_IMPORTANCE,
        report.to_dict(),
        config,
        timing={"wall_time_s": time.perf_counter() - started, "workers": last_workers()},
    )
    ranked = sorted(
        zip(report.feature_names, report.importance), key=lambda p: -p[1]
    )
    print(
        f"importance: top {ranked[0][0]} ({ranked[0][1]:.3f}) -> {out / A_IMPORTANCE}"
    )
    return EXIT_OK


def cmd_lobo(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    tweets, labels = _read_inputs(paths)
    bot_classes = None
    if args.bot_classes:
        bot_classes = [int(c) for c in args.bot_classes.split(",")]
    started = time.perf_counter()
    report = lobo_run(tweets, labels, config, bot_classes=bot_classes)
    _write_report(
        out / A_LOBO,
        report.to_dict(),
        config,
        timing={"wall_time_s": time.perf_counter() - started, "workers": last_workers()},
    )
    worst = max(abs(v["pct_change"]) for v in report.entries.values())
    print(
        f"lobo: base weighted_f1 {report.base_f1:.4f}, "
        f"max |change| {worst:.2f}% -> {out / A_LOBO}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    paths, _config = _merged(args)
    out = _outdir(paths)
    kwargs = {}
    if args.n_days is not None:
        kwargs["n_days"] = args.n_days
    if args.n_genuine is not None:
        kwargs["n_genuine"] = args.n_genuine
    if args.seed is not None:
        kwargs["seed"] = args.seed
    cfg = SynthConfig(**kwargs)
    records, labels = generate_dataset(cfg)
    write_tweets_jsonl(records, out / A_TWEETS)
    with open(out / A_LABELS, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("user_id", "class_id"))
        for uid, cid in labels.labels.items():
            writer.writerow((uid, cid))
    supports = labels.supports()
    print(
        f"synth: {len(labels.labels)} users {supports}, "
        f"{len(records)} tweets -> {out / A_TWEETS}, {out / A_LABELS}"
    )
    return EXIT_OK


def cmd_run_all(args) -> int:
    paths, config = _merged(args)
    out = _outdir(paths)
    tweets, labels = _read_inputs(paths)
    started = time.perf_counter()
    mts, true = prepare(tweets, labels, config)
    save_tensor(mts, out / A_MTS)
    result = run_pipeline_from_mts(mts, true, labels.num_classes, config)
    _save_models(out, config, result.models, result.train_reports)
    _save_latents(out, result.latents, mts)
    if result.features is not None:
        _save_features(out, result.features)
    _save_clustering(out, config, result.clustering)
    metrics = result.metrics
    _save_scores(out, config, metrics,
                 timing={"wall_time_s": time.perf_counter() - started, "workers": last_workers()})
    print(
        f"run-all: task={config.task} rep={config.representation} "
        f"method={config.cluster_method} weighted_f1={metrics.weighted_f1:.4f} "
        f"accuracy={metrics.accuracy:.4f} mcc={metrics.mcc:.4f} -> {out / A_METRICS}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botclust",
        description="Unsupervised bot detection via time-series clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--outdir", help="artifact directory (default: out)")

    pipe = argparse.ArgumentParser(add_help=False)
    pipe.add_argument("--variant-preset", choices=sorted(PRESETS),
                      help="named representation+clustering pairing")
    pipe.add_argument("--representation", choices=("uts", "vec", "glob", "glob_vec"))
    pipe.add_argument("--cluster-method", choices=("dbscan", "ward"))
    pipe.add_argument("--task", choices=("binary", "multiclass"))
    pipe.add_argument("--features", help="comma-separated tweet feature subset")
    pipe.add_argument("--epochs", type=int)
    pipe.add_argument("--learning-rate", type=float)
    pipe.add_argument("--latent-dim", type=int)
    pipe.add_argument("--holdout-fraction", type=float)
    pipe.add_argument("--clip-norm", type=float)
    pipe.add_argument("--min-pts", type=int)
    pipe.add_argument("--eps", type=float, help="DBSCAN radius (default: knee heuristic)")
    pipe.add_argument("--n-clusters", type=int, help="ward cut size")
    pipe.add_argument("--genuine-cluster", type=int,
                      help="which ward cluster is genuine (overrides the local-density rule)")
    pipe.add_argument("--seed", type=int)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--tweets", help="tweet file (jsonl or csv)")
    io.add_argument("--labels", help="ground-truth labels csv")
    io.add_argument("--format", choices=("jsonl", "csv"), help="tweet file format")

    p = sub.add_parser("extract", parents=[common, pipe, io],
                       help="tweets -> daily feature tensor")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common, pipe],
                       help="train the autoencoder(s) the representation needs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", parents=[common, pipe],
                       help="encode the tensor with the trained model(s)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("features", parents=[common, pipe],
                       help="summary statistics of the encoded series "
                            "(plus the vec encoding for glob_vec)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("cluster", parents=[common, pipe],
                       help="cluster the representation's points")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", parents=[common, pipe, io],
                       help="score a clustering against ground truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", parents=[common, pipe, io],
                       help="leave-one-feature-out importance")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("lobo", parents=[common, pipe, io],
                       help="leave-one-botnet-out generalization test")
    p.add_argument("--bot-classes", help="comma-separated class ids (default: all)")
    p.set_defaults(func=cmd_lobo)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic dataset")
    p.add_argument("--n-days", type=int)
    p.add_argument("--n-genuine", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run-all", parents=[common, pipe, io],
                       help="extract, train, encode, cluster, evaluate")
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingArtifactError as exc:
        log.error("%s", exc)
        return EXIT_MISSING
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_USAGE
    except ParseError as exc:
        log.error("input error: %s", exc)
        return EXIT_DATA
    except FileNotFoundError as exc:
        log.error("file not found: %s", exc)
        return EXIT_DATA
    except (ValueError, FloatingPointError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception:
        log.exception("unexpected failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
