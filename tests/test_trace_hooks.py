"""The benchmark's tracer (perfbench/spans.py) wraps program functions by
name and reads their arguments; these tests fail when a function it
lists is renamed or an argument it counts from moves."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import botclust.autoencoder as autoencoder
from botclust.autoencoder import AutoencoderConfig, train
from botclust.mts import MtsTensor
from botclust.numerics import seeded_rng

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
