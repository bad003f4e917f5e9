"""Traced entry point: run the botclust CLI with a span around each layer call.

    python3 perfbench/spans.py <botclust subcommand and flags>

Each public layer function listed in LAYERS is wrapped at every name a
caller looks it up by (``botclust.autoencoder.train`` and
``botclust.cli.train`` are the same function, so both get the wrapper).
Nothing under ``src/`` is edited. Spans (name, start, end, parent index,
run id) and counters are kept in memory and written as JSON to the path
in PERFBENCH_SPANS when the process ends. PERFBENCH_SPAWNED holds the
parent's ``time.monotonic()`` just before it started this process, so
interpreter start-up plus ``import botclust.cli`` can be attributed.

``summarize`` turns the span files of one run into per-layer self times:
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# botclust module -> the public functions wrapped in it. A span is named
# "<module>.<function>" (LSTM spans add "/encoder" or "/decoder"), and
# METRIC_OF maps each span name to the layer metric its self time joins.
LAYERS = {
    "ingest": ("parse_tweets", "load_labels", "build_timelines"),
    "mts": ("extract_mts", "minmax_normalize", "apply_normalization", "save_tensor",
            "load_tensor"),
    "autoencoder": ("train", "forward_autoencoder", "mse_loss", "lstm_forward_cached",
                    "lstm_backward", "dense_forward_cached", "dense_backward", "encode",
                    "save_model", "load_model"),
    "numerics": ("rmsprop_step", "clip_global_norm"),
    "globalfeats": ("extract_global_features", "zscore_standardize", "save_features_csv",
                    "load_features_csv"),
    "clustering": ("distance_matrix", "kdist_knee_eps", "dbscan", "ward_agglomerative",
                   "cut_dendrogram", "save_assignment_csv", "load_assignment_csv",
                   "save_dendrogram_json"),
    "labeling": ("assign_labels_binary", "assign_labels_multiclass", "prf_metrics"),
    "pipeline": ("run_pipeline_from_mts",),
}

METRIC_OF = {
    "cli.main": "cli.self_s",
    "ingest.parse_tweets": "ingest.parse_s",
    "ingest.load_labels": "ingest.parse_s",
    "ingest.build_timelines": "ingest.timelines_s",
    "mts.extract_mts": "mts.extract_s",
    "mts.minmax_normalize": "mts.normalize_s",
    "mts.apply_normalization": "mts.normalize_s",
    "mts.save_tensor": "mts.tensor_io_s",
    "mts.load_tensor": "mts.tensor_io_s",
    "autoencoder.train": "autoencoder.train_s",
    "autoencoder.forward_autoencoder": "autoencoder.train_s",
    "autoencoder.mse_loss": "autoencoder.train_s",
    "autoencoder.lstm_forward_cached/encoder": "autoencoder.lstm_fwd.encoder_s",
    "autoencoder.lstm_forward_cached/decoder": "autoencoder.lstm_fwd.decoder_s",
    "autoencoder.lstm_backward/encoder": "autoencoder.lstm_bwd.encoder_s",
    "autoencoder.lstm_backward/decoder": "autoencoder.lstm_bwd.decoder_s",
    "autoencoder.dense_forward_cached": "autoencoder.dense_s",
    "autoencoder.dense_backward": "autoencoder.dense_s",
    "autoencoder.encode": "autoencoder.encode_s",
    "autoencoder.save_model": "autoencoder.ckpt_io_s",
    "autoencoder.load_model": "autoencoder.ckpt_io_s",
    "numerics.rmsprop_step": "numerics.rmsprop_s",
    "numerics.clip_global_norm": "numerics.clip_s",
    "globalfeats.extract_global_features": "globalfeats.extract_s",
    "globalfeats.zscore_standardize": "globalfeats.zscore_s",
    "globalfeats.save_features_csv": "globalfeats.io_s",
    "globalfeats.load_features_csv": "globalfeats.io_s",
    "clustering.distance_matrix": "clustering.distance_s",
    "clustering.kdist_knee_eps": "clustering.knee_s",
    "clustering.dbscan": "clustering.dbscan_s",
    "clustering.ward_agglomerative": "clustering.ward_s",
    "clustering.cut_dendrogram": "clustering.cut_s",
    "clustering.save_assignment_csv": "clustering.io_s",
    "clustering.load_assignment_csv": "clustering.io_s",
    "clustering.save_dendrogram_json": "clustering.io_s",
    "labeling.assign_labels_binary": "labeling.assign_s",
    "labeling.assign_labels_multiclass": "labeling.assign_s",
    "labeling.prf_metrics": "labeling.score_s",
    "pipeline.run_pipeline_from_mts": "pipeline.self_s",
}

SELF_TIME_METRICS = tuple(dict.fromkeys(METRIC_OF.values())) + ("cli.startup_s",)
# Exact counts. lstm_steps adds N*T for every forward and backward LSTM
# call; ward_pair_scans is the sum of m(m-1)/2 for m = 2..N per Ward run.
COUNTERS = ("ingest.tweets", "autoencoder.lstm_steps", "clustering.ward_pair_scans",
            "clustering.dist_mb", "numerics.clip_fired", "numerics.clip_calls")
LSTM_FUNCTIONS = ("lstm_forward_cached", "lstm_backward")


def _lstm_side(args) -> str:
    # The encoder squeezes D features to width 1, the decoder expands 1 to D.
    layer = args[0]
    return "encoder" if layer.input_size > layer.hidden_size else "decoder"


def _count(counts: dict, qualname: str, args, result) -> None:
    """Exact work counts recorded at the same boundaries as the spans."""
    if qualname == "ingest.parse_tweets":
        counts["ingest.tweets"] += len(result)
    elif qualname == "autoencoder.lstm_forward_cached":
        n, t = args[1].shape[:2]
        counts["autoencoder.lstm_steps"] += n * t
    elif qualname == "autoencoder.lstm_backward":
        n, t = args[1]["x"].shape[:2]
        counts["autoencoder.lstm_steps"] += n * t
    elif qualname == "clustering.ward_agglomerative":
        n = len(args[0])
        counts["clustering.ward_pair_scans"] += (n + 1) * n * (n - 1) // 6
    elif qualname == "clustering.distance_matrix":
        n = len(args[0])
        counts["clustering.dist_mb"] = max(counts["clustering.dist_mb"], 8.0 * n * n / 2**20)
    elif qualname == "numerics.clip_global_norm":
        counts["numerics.clip_calls"] += 1
        counts["numerics.clip_fired"] += result is not args[0]


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index or -1, run id]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0.0)

    def wrap(self, qualname: str, fn):
        side = _lstm_side if qualname.rsplit(".", 1)[1] in LSTM_FUNCTIONS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{qualname}/{side(args)}" if side else qualname
            span = [name, time.monotonic(), None, self.stack[-1] if self.stack else -1, self.run_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            _count(self.counts, qualname, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every module-level reference to a listed function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "botclust" or name.startswith("botclust.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"botclust.{module_name}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def summarize(docs: list[dict]) -> dict[str, float]:
    """Self time per layer metric plus the counters, over one run's span
    files. Also derives autoencoder.epoch_s: the time inside train()
    divided by the RMSProp steps it took (one per epoch)."""
    times = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNTERS, 0.0)
    train_s = epochs = 0.0
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _run in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _run) in enumerate(spans):
            times[METRIC_OF[name]] += (end - start) - covered[i]
            if name == "autoencoder.train":
                train_s += end - start
            elif name == "numerics.rmsprop_step" and parent >= 0 and spans[parent][0] == "autoencoder.train":
                epochs += 1
        times["cli.startup_s"] += doc["ready"] - doc["spawned"]
        for key, value in doc["counts"].items():
            counts[key] = max(counts[key], value) if key == "clustering.dist_mb" else counts[key] + value
    times["autoencoder.epoch_s"] = train_s / epochs if epochs else 0.0
    return {**times, **counts}


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import botclust.cli

    recorder = Recorder(os.environ.get("PERFBENCH_RUN", "0"))
    recorder.install()
    cli_main = recorder.wrap("cli.main", botclust.cli.main)
    ready = time.monotonic()
    try:
        return cli_main(sys.argv[1:])
    finally:
        doc = {"spawned": spawned, "ready": ready, "spans": recorder.spans,
               "counts": recorder.counts}
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
