"""The benchmark's workloads and the synthetic populations they run on.

Each workload is a seeded synthetic population (half genuine users, two
botnets of a quarter each, built with ``botclust.synth``) and the CLI
invocations that consume it. The program sees only the generated
``tweets.jsonl`` and ``labels.csv``.

Sizes are set so that one run takes a few seconds on a 2-core machine:
a timed window then holds several runs, and the reported medians are
steady across seeds.
"""

from __future__ import annotations

import csv
import gc
import time
from dataclasses import dataclass, replace
from datetime import timezone
from pathlib import Path

import numpy as np

from botclust.ingest import FEATURE_NAMES, write_tweets_jsonl
from botclust.synth import DEFAULT_TEMPLATES, SynthConfig, generate_dataset

from hostspeed import kernel_seconds, scale

SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    flow: str          # "run-all": one process; "stepwise": the README's five steps
    preset: str
    task: str
    n_users: int
    n_days: int
    epochs: int
    why: str

    @property
    def ward(self) -> bool:
        return self.preset.endswith("_Hier")

    def params(self) -> dict:
        return {
            "flow": self.flow,
            "preset": self.preset,
            "task": self.task,
            "n_users": self.n_users,
            "n_days": self.n_days,
            "epochs": self.epochs,
        }

    def commands(self, tweets: Path, labels: Path, out: Path, seed: int) -> list[list[str]]:
        """CLI argument lists, one per process, run in order."""
        common = [
            "--outdir", str(out),
            "--variant-preset", self.preset,
            "--task", self.task,
            "--epochs", str(self.epochs),
            "--seed", str(seed),
        ]
        if self.flow == "run-all":
            return [["run-all", "--tweets", str(tweets), "--labels", str(labels), *common]]
        return [
            ["extract", "--tweets", str(tweets), *common],
            ["train", *common],
            ["encode", *common],
            ["cluster", *common],
            ["evaluate", "--labels", str(labels), *common],
        ]


# BENCHMARK.json lists lstm_globvec365 and ingest_stepwise: with 45 s
# windows a third workload would not fit the time all runs may take.
# ward_glob64 stays runnable by name for clustering work.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ward_glob64",
            flow="run-all",
            preset="Glob_Hier",
            task="binary",
            n_users=300,
            n_days=64,
            epochs=8,
            why="Ward's cubic Python merge loop dominates; short T keeps the LSTM share small, "
                "so a clustering change shows here",
        ),
        Workload(
            name="lstm_globvec365",
            flow="run-all",
            preset="Glob_Vec_Hier",
            task="binary",
            n_users=80,
            n_days=365,
            epochs=3,
            why="trains the uts and vec autoencoders over T=365 (BPTT, dense bottleneck, RMSProp); "
                "Ward at small N is cheap, so an autoencoder change shows here",
        ),
        Workload(
            name="ingest_stepwise",
            flow="stepwise",
            preset="UTS_DBSCAN",
            task="multiclass",
            n_users=200,
            n_days=365,
            epochs=2,
            why="five processes write and re-read every artifact; parse and extract dominate, "
                "DBSCAN runs and Ward never does, so a Ward change must read no change here",
        ),
    )
}

# Which end-to-end metric each layer metric should move, and on which
# workload; written down before measuring so a claimed gain can be
# checked against where it was predicted to appear.
PREDICTIONS = (
    ("ingest.parse_s, ingest.timelines_s", "run_s, peak_rss_mb", "ingest_stepwise"),
    ("mts.extract_s, mts.normalize_s, mts.tensor_io_s", "run_s", "ingest_stepwise"),
    ("autoencoder.train_s, autoencoder.epoch_s", "run_s",
     "lstm_globvec365 (about a quarter of ward_glob64)"),
    ("autoencoder.lstm_fwd.{encoder,decoder}_s, autoencoder.lstm_bwd.{encoder,decoder}_s",
     "run_s", "lstm_globvec365"),
    ("autoencoder.dense_s, autoencoder.encode_s, autoencoder.ckpt_io_s, "
     "autoencoder.final_train_mse", "run_s, weighted_f1",
     "lstm_globvec365, ingest_stepwise (ckpt)"),
    ("numerics.rmsprop_s, numerics.clip_s", "run_s", "lstm_globvec365"),
    ("globalfeats.extract_s, globalfeats.zscore_s, globalfeats.io_s", "run_s",
     "ward_glob64, lstm_globvec365 (absent from ingest_stepwise)"),
    ("clustering.distance_s, clustering.knee_s, clustering.dbscan_s", "run_s, peak_rss_mb",
     "ingest_stepwise"),
    ("clustering.ward_s, clustering.cut_s", "run_s", "ward_glob64"),
    ("labeling.assign_s, labeling.score_s", "run_s", "all, small"),
    ("pipeline.self_s, cli.self_s, cli.startup_s, clustering.io_s", "run_s", "ingest_stepwise"),
)


@dataclass
class Population:
    """Generated input files plus the ground truth the output checks use."""

    tweets: Path
    labels: Path
    classes: dict[str, int]
    feature_sums: dict[str, int]
    active_cells: int          # distinct (user, UTC day) pairs
    setup_s: list[float]       # at the reference host speed (see hostspeed.py)
    setup_wall_s: list[float]
    setup_kernel_s: list[float]


def _synth_config(wl: Workload, seed: int) -> SynthConfig:
    per_botnet = wl.n_users // 4
    return SynthConfig(
        n_days=wl.n_days,
        n_genuine=wl.n_users - per_botnet * len(DEFAULT_TEMPLATES),
        templates=tuple(replace(t, n_users=per_botnet) for t in DEFAULT_TEMPLATES),
        seed=seed,
    )


def _write_inputs(wl: Workload, seed: int, tweets: Path, labels: Path):
    records, table = generate_dataset(_synth_config(wl, seed))
    write_tweets_jsonl(records, tweets)
    with open(labels, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("user_id", "class_id"))
        writer.writerows(table.labels.items())
    return records, table


def make_population(wl: Workload, seed: int, directory: Path) -> Population:
    """Generate and write the inputs SETUP_REPS times, timing each set-up
    and the reference kernel before and after it."""
    directory.mkdir(parents=True, exist_ok=True)
    tweets, labels = directory / "tweets.jsonl", directory / "labels.csv"
    times, kernels = [], [kernel_seconds()]
    for _ in range(SETUP_REPS):
        records = table = None   # free the previous repetition before collecting
        gc.collect()
        started = time.perf_counter()
        records, table = _write_inputs(wl, seed, tweets, labels)
        times.append(time.perf_counter() - started)
        kernels.append(kernel_seconds())
    counts = np.array([r.counts() for r in records], dtype=np.int64)
    days = {(r.user_id, r.timestamp.astimezone(timezone.utc).date()) for r in records}
    return Population(
        tweets=tweets,
        labels=labels,
        classes=dict(table.labels),
        feature_sums={name: int(s) for name, s in zip(FEATURE_NAMES, counts.sum(axis=0))},
        active_cells=len(days),
        setup_s=[scale(t, k0, k1) for t, k0, k1 in zip(times, kernels, kernels[1:])],
        setup_wall_s=times,
        setup_kernel_s=[(k0 + k1) / 2.0 for k0, k1 in zip(kernels, kernels[1:])],
    )
