"""Command-line orchestration of the detection pipeline.

Every stage is a subcommand writing its artifact into --outdir, so a run
can be driven stepwise (extract, train, encode, features, cluster,
evaluate) or in one shot (run-all). A step only loads its input
artifacts, calls the pipeline stage that run-all chains, and saves the
result with the saver run-all uses, so for the same settings both flows
write the same bytes; run-all, and each leg of lobo and importance, is
one pipeline.run_pipeline_from_mts call. Settings merge with precedence
flag > config file > default; --variant-preset expands to a
representation plus clustering method before explicit flags apply.
main resolves them once, before any command runs, so a bad setting, one
that run-all, lobo or importance can never score, or an input file that
neither a flag nor the config file names exits 2 before any input is
read or --outdir is made. build_parser's table declares the files each
command reads: extract the tweets, evaluate the labels, run-all, lobo
and importance both.

Commands hold only what they still read while they train: run-all,
importance and lobo read their inputs through _read_inputs, which turns
the parsed tweet table into its tensor and drops it, so neither the
process nor its forked legs hold it while training. train and run-all
hand the raw tensor to training without keeping a name for it, so it is
freed once normalized; run-all keeps only the user ids and first day its
latents are written with.

Exit codes: 0 success, 2 usage or configuration error, 3 missing
upstream artifact, 4 invalid data, 1 unexpected failure. Logs go to
stderr; each subcommand prints a one-line summary to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autoencoder import load_model, save_model
from .clustering import load_assignment_csv, save_assignment_csv, save_dendrogram_json
from .globalfeats import load_features_csv, save_features_csv
from .ingest import (FEATURE_NAMES, LabelTable, ParseError, load_labels, parse_tweets, reading,
                     write_csv, write_json, write_tweets_jsonl)
from .legs import last_workers
from .mts import MtsTensor, load_tensor, save_tensor
from .pipeline import (
    CLUSTER_METHODS,
    ENCODERS,
    PRESETS,
    REPRESENTATIONS,
    TASKS,
    Clustering,
    PipelineConfig,
    _cluster,
    _encode,
    _label_and_score,
    _train_models,
    apply_preset,
    check_bot_classes,
    check_population,
    check_scorable,
    config_hash,
    global_features,
    importance_run_from_mts,
    lobo_run_from_mts,
    names_by_polarity,
    prepare,
    run_pipeline_from_mts,
    truth_vector,
)

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
            config = replace(config, **keys)
        if args.command in ("run-all", "lobo", "importance"):   # each scores every run
            check_scorable(config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    # Every tensor the commands read holds tweet features; a library
    # caller may pass a tensor with others.
    unknown = [name for name in config.features or () if name not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown features {unknown}; valid: {list(FEATURE_NAMES)}")
    if args.command == "importance" and len(config.features or FEATURE_NAMES) < 2:
        raise ConfigError(f"importance leaves out one feature at a time, so it needs at "
                          f"least 2, got {list(config.features)}")
    paths = {}
    for key in _PATH_KEYS:
        paths[key] = getattr(args, key, None) or file_cfg.get(key)
    for key in args.inputs:
        if not paths[key]:
            raise ConfigError(f"no {key} file given (flag --{key} or config key '{key}')")
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
    write_json(path, doc)


def _timing(started: float) -> dict:
    """An analysis report's timing block: wall time since started, and
    the processes its legs ran on (see legs.last_workers)."""
    return {"wall_time_s": time.perf_counter() - started, "workers": last_workers()}


def _read_inputs(paths: dict, config: PipelineConfig) -> tuple[MtsTensor, np.ndarray, LabelTable]:
    """The raw tensor of the tweets file (see prepare), its truth vector in
    tensor row order, and the labels. The parsed tweet table is dropped on
    return, so no command trains while holding it."""
    table = parse_tweets(paths["tweets"], format=paths["format"])
    labels = load_labels(paths["labels"])
    mts, true = prepare(table, labels, config)
    return mts, true, labels


def _wrap_latent(latent: np.ndarray, user_ids, day_min, variant: str) -> MtsTensor:
    """A latent (one row per user, as encode gives it) as a tensor file
    body: a uts series (N, T) is stored (N, T, 1), one feature over T
    days; a vec latent (N, L) is stored (N, 1, L), L features on one day."""
    if variant == "uts":
        values, names = latent[:, :, np.newaxis], ("latent",)
    else:
        values, names = latent[:, np.newaxis, :], tuple(f"latent.{j}" for j in range(latent.shape[1]))
    return MtsTensor(values=values, user_ids=list(user_ids), feature_names=names,
                     day_min=day_min, kind=f"latent_{variant}")


def _load_latents(out: Path, variants) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Latent tensor files back as the rows _wrap_latent stored."""
    latents = {}
    for variant in variants:
        tensor = load_tensor(_require(out / _latent_name(variant), "encode"))
        latents[variant] = tensor.values.reshape(tensor.n_users, -1)
    return latents, tuple(tensor.user_ids)


def _load_points(config: PipelineConfig, out: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    """The clustering matrix from what the representation's producer step wrote."""
    if config.representation in ("glob", "glob_vec"):
        feats = load_features_csv(_require(out / A_FEATS, "features"))
        return feats.values, feats.user_ids
    latents, user_ids = _load_latents(out, ENCODERS[config.representation])
    return latents[config.representation], user_ids


def _recorded_polarity(out: Path) -> list[float]:
    """The polarity scores `cluster` recorded for a binary two-way Ward cut."""
    path = _require(out / A_CLUSTER_REP, "cluster")
    with reading(path):
        report = json.loads(path.read_text())
        if not isinstance(report, dict):
            raise ValueError("not a JSON object")
        if report.get("polarity") is not None:
            first, second = map(float, report["polarity"]["local_density"])
            return [first, second]
    raise ConfigError(f"{path} records no polarity scores (only a binary two-way Ward "
                      "cut does); pass --genuine-cluster")


# Savers shared by the step subcommands and run-all, so both flows write
# the same bytes.

def _save_models(out: Path, config: PipelineConfig, models: dict, reports: dict) -> None:
    for variant, model in models.items():
        save_model(model, out / _model_name(variant))
        report = reports[variant]
        _write_report(out / f"train_report_{variant}.json", {"train": report.to_dict()}, config,
                      report.timing)


def _save_latents(out: Path, latents: dict[str, np.ndarray], user_ids, day_min) -> None:
    for variant, latent in latents.items():
        save_tensor(_wrap_latent(latent, user_ids, day_min, variant), out / _latent_name(variant))


def _save_features(out: Path, tables) -> None:
    raw, table = tables
    save_features_csv(raw, out / A_FEATS_RAW)
    save_features_csv(table, out / A_FEATS)


def _save_clustering(out: Path, config: PipelineConfig, clustering: Clustering) -> dict:
    """Write the clustering's artifacts; returns its report."""
    save_assignment_csv(clustering.assignment, out / A_CLUSTERS)
    if clustering.dendrogram is not None:
        save_dendrogram_json(clustering.dendrogram, out / A_DENDRO)
    report = clustering.report(config)
    _write_report(out / A_CLUSTER_REP, report, config)
    return report


def _save_scores(out: Path, config: PipelineConfig, metrics, timing: dict | None = None) -> None:
    _write_report(out / A_METRICS, {"task": config.task, "metrics": metrics.to_dict()},
                  config, timing)
    rows = metrics.confusion.tolist()
    write_csv(out / A_CONFUSION, ["true\\pred", *map(str, range(len(rows)))],
              ((str(i), ",".join(map(str, row))) for i, row in enumerate(rows)))


def cmd_extract(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    mts, _ = prepare(parse_tweets(paths["tweets"], format=paths["format"]), None, config)
    save_tensor(mts, out / A_MTS)
    print(f"extract: wrote {out / A_MTS} (N={mts.n_users}, T={mts.n_days}, D={mts.n_features})")
    return EXIT_OK


def cmd_train(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    mts = load_tensor(_require(out / A_MTS, "extract"))
    check_population(config, mts.n_users, None)
    # Handed over unnamed, so _train_models frees the tensor once normalized.
    models, reports, _ = _train_models(config, (mts, mts := None)[0])
    _save_models(out, config, models, reports)
    for variant, report in reports.items():
        final = f"final train MSE {report.train_mse[-1]:.6f}" if report.train_mse else "0 epochs"
        print(f"train: {variant} autoencoder, {final} -> {out / _model_name(variant)}")
    return EXIT_OK


def cmd_encode(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    models = {
        variant: load_model(_require(out / _model_name(variant), "train"))
        for variant in ENCODERS[config.representation]
    }
    mts = load_tensor(_require(out / A_MTS, "extract"))
    check_population(config, mts.n_users, None)
    latents = _encode(models, mts)
    _save_latents(out, latents, mts.user_ids, mts.day_min)
    for variant, latent in latents.items():
        print(f"encode: latent shape {latent.shape} -> {out / _latent_name(variant)}")
    return EXIT_OK


def cmd_features(args, paths: dict, config: PipelineConfig) -> int:
    if config.representation == "vec":
        raise ConfigError("the features step serves the glob and glob_vec representations; "
                          "vec clusters its latent directly, so run `botclust cluster`")
    out = _outdir(paths)
    latents, user_ids = _load_latents(out, ENCODERS[config.representation])
    check_population(config, len(user_ids), None)
    tables = global_features(config, latents, user_ids)
    _save_features(out, tables)
    print(
        f"features: {tables[1].values.shape[1]} columns for "
        f"{tables[1].n_users} users -> {out / A_FEATS}"
    )
    return EXIT_OK


def cmd_cluster(args, paths: dict, config: PipelineConfig) -> int:
    if config.cluster_method == "ward" and config.task == "multiclass" and config.n_clusters is None:
        # run-all cuts at the class count, which needs the labels
        raise ConfigError("ward multiclass clustering needs n_clusters (flag --n-clusters)")
    out = _outdir(paths)
    points, user_ids = _load_points(config, out)
    report = _save_clustering(out, config, _cluster(config, points, user_ids, n_classes=None))
    print(f"cluster: {report['n_clusters']} clusters, {report['n_noise']} noise -> {out / A_CLUSTERS}")
    return EXIT_OK


def cmd_evaluate(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    assignment = load_assignment_csv(_require(out / A_CLUSTERS, "cluster"))
    polarity = _recorded_polarity(out) if names_by_polarity(config) else None
    labels = load_labels(paths["labels"])
    true = truth_vector(labels, assignment.user_ids)
    _pred, metrics = _label_and_score(config, assignment, polarity, true, labels.num_classes)
    _save_scores(out, config, metrics)
    print(
        f"evaluate: task={config.task} weighted_f1={metrics.weighted_f1:.4f} "
        f"accuracy={metrics.accuracy:.4f} mcc={metrics.mcc:.4f} -> {out / A_METRICS}"
    )
    return EXIT_OK


def cmd_importance(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    mts, true, labels = _read_inputs(paths, config)
    started = time.perf_counter()
    report = importance_run_from_mts(mts, true, labels.num_classes, config)
    _write_report(out / A_IMPORTANCE, report, config, _timing(started))
    # importances are non-negative, so a top share of 0 means every one is 0
    top, share = max(((name, f["importance"]) for name, f in report["features"].items()),
                     key=lambda p: p[1])
    summary = (f"top {top} ({share:.3f})" if share > 0 else
               f"no feature carries weight, baseline weighted_f1={report['baseline_f1']:.4f}")
    print(f"importance: {summary} -> {out / A_IMPORTANCE}")
    return EXIT_OK


def cmd_lobo(args, paths: dict, config: PipelineConfig) -> int:
    bot_classes = None
    if args.bot_classes:
        # Checked before any input is read; whether each class occurs in
        # the labels is lobo's data check.
        try:
            bot_classes = [int(c) for c in args.bot_classes.split(",")]
            check_bot_classes(bot_classes)
        except ValueError as exc:
            raise ConfigError(f"--bot-classes {args.bot_classes!r}: {exc}") from None
    out = _outdir(paths)
    mts, true, labels = _read_inputs(paths, config)
    started = time.perf_counter()
    report = lobo_run_from_mts(mts, true, labels, config, bot_classes=bot_classes)
    _write_report(out / A_LOBO, report, config, _timing(started))
    worst = max(abs(v["pct_change"]) for v in report["excluded"].values())
    print(
        f"lobo: base weighted_f1 {report['base_weighted_f1']:.4f}, "
        f"max |change| {worst:.2f}% -> {out / A_LOBO}"
    )
    return EXIT_OK


def cmd_synth(args, paths: dict, config: PipelineConfig) -> int:
    # Imported here, so the other subcommands start without it.
    from .synth import SynthConfig, generate_dataset

    try:
        cfg = SynthConfig(**{key: getattr(args, key) for key in ("n_days", "n_genuine", "seed")
                             if getattr(args, key) is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _outdir(paths)
    records, labels = generate_dataset(cfg)
    write_tweets_jsonl(records, out / A_TWEETS)
    write_csv(out / A_LABELS, ("user_id", "class_id"), labels.labels.items())
    supports = labels.supports()
    print(
        f"synth: {len(labels.labels)} users {supports}, "
        f"{len(records)} tweets -> {out / A_TWEETS}, {out / A_LABELS}"
    )
    return EXIT_OK


def cmd_run_all(args, paths: dict, config: PipelineConfig) -> int:
    out = _outdir(paths)
    mts, true, labels = _read_inputs(paths, config)
    started = time.perf_counter()
    save_tensor(mts, out / A_MTS)
    day_min = mts.day_min
    # Handed over unnamed, so training frees the raw tensor once it is normalized.
    result = run_pipeline_from_mts((mts, mts := None)[0], true, labels.num_classes, config)
    _save_models(out, config, result.models, result.train_reports)
    _save_latents(out, result.latents, result.user_ids, day_min)
    if result.features is not None:
        _save_features(out, result.features)
    _save_clustering(out, config, result.clustering)
    metrics = result.metrics
    _save_scores(out, config, metrics, _timing(started))
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
    pipe.add_argument("--representation", choices=REPRESENTATIONS)
    pipe.add_argument("--cluster-method", choices=CLUSTER_METHODS)
    pipe.add_argument("--task", choices=TASKS)
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

    subs = {}
    both = ("tweets", "labels")
    for name, func, parents, inputs, text in (
        ("extract", cmd_extract, [pipe, io], ("tweets",), "tweets -> daily feature tensor"),
        ("train", cmd_train, [pipe], (), "train the autoencoder(s) the representation needs"),
        ("encode", cmd_encode, [pipe], (), "encode the tensor with the trained model(s)"),
        ("features", cmd_features, [pipe], (),
         "summary statistics of the encoded series (plus the vec encoding for glob_vec)"),
        ("cluster", cmd_cluster, [pipe], (), "cluster the representation's points"),
        ("evaluate", cmd_evaluate, [pipe, io], ("labels",),
         "score a clustering against ground truth"),
        ("importance", cmd_importance, [pipe, io], both, "leave-one-feature-out importance"),
        ("lobo", cmd_lobo, [pipe, io], both, "leave-one-botnet-out generalization test"),
        ("synth", cmd_synth, [], (), "generate a labeled synthetic dataset"),
        ("run-all", cmd_run_all, [pipe, io], both, "extract, train, encode, cluster, evaluate"),
    ):
        subs[name] = sub.add_parser(name, parents=[common, *parents], help=text)
        subs[name].set_defaults(func=func, inputs=inputs)
    subs["lobo"].add_argument("--bot-classes", help="comma-separated class ids (default: all)")
    for flag in ("--n-days", "--n-genuine", "--seed"):
        subs["synth"].add_argument(flag, type=int)
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
        return args.func(args, *_merged(args))
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


def entry() -> int:
    """main for `python -m botclust.cli` and the botclust script, after
    gc.freeze, so no collection scans the import-time heap again."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
