"""The benchmark's tracer (perfbench/spans.py) wraps program functions by
name and reads their arguments, and its workloads and checks import
program names; these tests fail when a function it lists is renamed, an
argument it counts from moves, or a name it imports goes."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import botclust.autoencoder as autoencoder
from botclust.autoencoder import AutoencoderConfig, train
from botclust.ingest import FEATURE_NAMES, load_labels, parse_tweets
from botclust.mts import MtsTensor
from botclust.numerics import seeded_rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PY = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for module_name, functions in _spans().LAYERS.items():
        module = importlib.import_module(f"botclust.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"botclust.{module_name}.{name}"


def test_lstm_step_counts_read_the_shapes_train_passes(monkeypatch):
    # Per epoch: the encoder and decoder run forward over every user and
    # backward over the training users only.
    spans = _spans()
    recorder = spans.Recorder("0")
    for name in spans.LSTM_FUNCTIONS:
        monkeypatch.setattr(autoencoder, name,
                            recorder.wrap(f"autoencoder.{name}", getattr(autoencoder, name)))
    n, t, epochs = 10, 7, 3
    values = seeded_rng(5).uniform(size=(n, t, 3))
    data = MtsTensor(values, [f"u{i}" for i in range(n)], ("a", "b", "c"), None, normalized=True)
    train(AutoencoderConfig(variant="uts", epochs=epochs, holdout_fraction=0.2), data)
    n_train = n - 2
    assert recorder.counts["autoencoder.lstm_steps"] == epochs * 2 * (n + n_train) * t
    names = [span[0] for span in recorder.spans]
    for side in ("encoder", "decoder"):
        assert names.count(f"autoencoder.lstm_forward_cached/{side}") == epochs
        assert names.count(f"autoencoder.lstm_backward/{side}") == epochs
    assert np.isfinite(recorder.spans[-1][2])


def test_benchmark_modules_import_and_write_a_population(tmp_path, monkeypatch):
    # The benchmark runs them with perfbench/ on the path.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    importlib.import_module("checks")
    monkeypatch.setattr(workloads, "kernel_seconds", lambda: 1.0)   # skip the host-speed kernel
    tiny = workloads.Workload(name="tiny", flow="stepwise", preset="UTS_DBSCAN",
                              task="multiclass", n_users=8, n_days=4, epochs=1, why="")
    population = workloads.make_population(tiny, 0, tmp_path)
    assert load_labels(population.labels).labels == population.classes
    sums = parse_tweets(population.tweets).counts.sum(axis=0)
    assert sums.tolist() == [population.feature_sums[name] for name in FEATURE_NAMES]
