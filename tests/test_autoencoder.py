import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from botclust.autoencoder import (
    GATE_ORDER,
    AutoencoderConfig,
    _backward,
    _forward_cached,
    init_model,
    DenseLayerParams,
    LstmLayerParams,
    MissingCacheError,
    dense_backward,
    dense_forward_cached,
    encode,
    forward_autoencoder,
    load_model,
    lstm_backward,
    lstm_forward_cached,
    mse_loss,
    save_model,
    train,
)
from botclust.mts import SENTINEL, MtsTensor
from botclust.numerics import (
    RmspropState,
    clip_global_norm,
    global_norm,
    rmsprop_step,
    seeded_rng,
)

from oracles import (
    batch_major_lstm_backward,
    batch_major_lstm_forward,
    finite_diff_grad,
    oracle_lstm_forward,
)


def flatten_blocks(blocks: dict[str, np.ndarray]) -> tuple[np.ndarray, list[tuple[str, tuple]]]:
    """Pack named blocks into one vector (sorted by name) plus a layout."""
    layout = [(name, blocks[name].shape) for name in sorted(blocks)]
    vec = np.concatenate([blocks[name].ravel() for name, _ in layout]) if layout else np.zeros(0)
    return vec, layout


def unflatten_blocks(vec: np.ndarray, layout: list[tuple[str, tuple]]) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for name, shape in layout:
        size = int(np.prod(shape))
        out[name] = vec[offset:offset + size].reshape(shape).copy()
        offset += size
    return out


def write_blocks(blocks: dict[str, np.ndarray], vec: np.ndarray) -> None:
    """Write a vector packed by flatten_blocks back into the named blocks
    themselves, so the layer that owns them sees the new values."""
    offset = 0
    for name in sorted(blocks):
        block = blocks[name]
        block[...] = vec[offset:offset + block.size].reshape(block.shape)
        offset += block.size


def lstm_forward(layer, sequence, return_sequence=True):
    """Single-sequence LSTM pass: (T, input) to (T, hidden) or (hidden,)."""
    hidden, _ = lstm_forward_cached(layer, np.asarray(sequence)[np.newaxis])
    return hidden[0] if return_sequence else hidden[0, -1]


def last_step_only(last, t_len):
    """An upstream gradient (N, T, H) that is zero but at the last step,
    where it is last (N, H): the gradient of a loss that reads only the
    last hidden state."""
    probe = np.zeros((last.shape[0], t_len, last.shape[1]))
    probe[:, -1] = last
    return probe


def split_gates(fused: dict[str, np.ndarray], hidden_size: int) -> dict[str, np.ndarray]:
    """Fused W/U/b (weights or gradients) as the per-gate blocks W_i..b_c."""
    out = {}
    for k, g in enumerate(GATE_ORDER):
        cols = slice(k * hidden_size, (k + 1) * hidden_size)
        for name in ("W", "U", "b"):
            out[f"{name}_{g}"] = fused[name][..., cols]
    return out


def _weights_dict(layer):
    return split_gates({"W": layer.W, "U": layer.U, "b": layer.b}, layer.hidden_size)


def max_rel_err(numeric, analytic):
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    scale[scale < 1e-8] = 1e-8
    return float(np.max(np.abs(numeric - analytic) / scale))


def lstm_grad_max_rel_err(rng, input_size, hidden_size, t_len, n_seq=2,
                          return_sequence=True):
    """Compare analytic BPTT gradients against central differences.

    Loss is the inner product of the hidden output with a fixed random
    tensor, zero but at the last step unless return_sequence, so the
    upstream gradient is exact and the finite-difference error is
    dominated by the truncation of the recurrence itself.
    """
    layer = LstmLayerParams.init(input_size, hidden_size, rng)
    x = rng.normal(size=(n_seq, t_len, input_size))
    out_shape = (n_seq, t_len, hidden_size) if return_sequence else (n_seq, hidden_size)
    probe = rng.normal(size=out_shape)
    if not return_sequence:
        probe = last_step_only(probe, t_len)

    blocks = layer.blocks("l")
    vec0, _ = flatten_blocks(blocks)

    def loss(vec):
        write_blocks(blocks, vec)
        hidden, _ = lstm_forward_cached(layer, x)
        return float(np.sum(hidden * probe))

    numeric = finite_diff_grad(loss, vec0)
    write_blocks(blocks, vec0)
    _, cache = lstm_forward_cached(layer, x)
    grads, _ = lstm_backward(layer, cache, probe)
    analytic, _ = flatten_blocks({f"l.{k}": v for k, v in grads.items()})
    return max_rel_err(numeric, analytic)


def dense_grad_max_rel_err(rng, input_size, output_size, n=3):
    layer = DenseLayerParams.init(input_size, output_size, rng)
    x = rng.normal(size=(n, input_size))
    probe = rng.normal(size=(n, output_size))
    blocks = layer.blocks("d")
    vec0, _ = flatten_blocks(blocks)

    def loss(vec):
        write_blocks(blocks, vec)
        y, _ = dense_forward_cached(layer, x)
        return float(np.sum(y * probe))

    numeric = finite_diff_grad(loss, vec0)
    write_blocks(blocks, vec0)
    _, cache = dense_forward_cached(layer, x)
    grads, _ = dense_backward(layer, cache, probe)
    analytic, _ = flatten_blocks({f"d.{k}": v for k, v in grads.items()})
    return max_rel_err(numeric, analytic)


def _toy_tensor(rng, n=6, t=8, d=3, inactive_prob=0.3):
    """Small normalized tensor with sentinel days sprinkled in."""
    vals = rng.uniform(0.0, 1.0, size=(n, t, d))
    inactive = rng.uniform(size=(n, t)) < inactive_prob
    inactive[:, 0] = False  # keep at least one active day per user
    vals[inactive] = SENTINEL
    return MtsTensor(
        values=vals,
        user_ids=[f"u{i}" for i in range(n)],
        feature_names=tuple(f"f{j}" for j in range(d)),
        day_min=None,
        normalized=True,
    )


def test_lstm_forward_matches_scalar_oracle():
    rng = seeded_rng(11)
    layer = LstmLayerParams.init(3, 2, rng)
    x = rng.normal(size=(2, 6, 3))
    hidden, _ = lstm_forward_cached(layer, x)
    weights = _weights_dict(layer)
    for i in range(x.shape[0]):
        ref = oracle_lstm_forward(weights, x[i])
        assert np.allclose(hidden[i], ref, rtol=1e-12, atol=1e-12)


def test_lstm_forward_single_sequence_wrapper():
    rng = seeded_rng(12)
    layer = LstmLayerParams.init(2, 3, rng)
    seq = rng.normal(size=(5, 2))
    full = lstm_forward(layer, seq)
    last = lstm_forward(layer, seq, return_sequence=False)
    assert full.shape == (5, 3)
    assert np.array_equal(last, full[-1])


def test_lstm_gradient_small_configs():
    rng = seeded_rng(21)
    for input_size, hidden_size in [(3, 1), (1, 2), (2, 3)]:
        err = lstm_grad_max_rel_err(rng, input_size, hidden_size, t_len=5)
        assert err < 1e-4, (input_size, hidden_size, err)


def test_lstm_gradient_last_state_only():
    rng = seeded_rng(22)
    err = lstm_grad_max_rel_err(rng, 3, 2, t_len=5, return_sequence=False)
    assert err < 1e-4


def test_lstm_gradient_matches_per_gate_oracle():
    """Fused gradients, split by gate, against central differences of the
    per-gate scalar oracle: checks the gate order along the 4H axis too."""
    rng = seeded_rng(26)
    layer = LstmLayerParams.init(3, 2, rng)
    x = rng.normal(size=(2, 5, 3))
    probe = rng.normal(size=(2, 5, 2))
    vec0, layout = flatten_blocks(_weights_dict(layer))

    def loss(vec):
        weights = unflatten_blocks(vec, layout)
        return float(sum(np.sum(oracle_lstm_forward(weights, seq) * p) for seq, p in zip(x, probe)))

    numeric = finite_diff_grad(loss, vec0)
    _, cache = lstm_forward_cached(layer, x)
    grads, _ = lstm_backward(layer, cache, probe)
    analytic, _ = flatten_blocks(split_gates(grads, 2))
    assert max_rel_err(numeric, analytic) < 1e-4


@pytest.mark.parametrize("input_size, hidden_size", [(6, 1), (1, 6)])
@pytest.mark.parametrize("n, t", [(n, t) for n in (1, 3, 64) for t in (1, 2, 365)])
@pytest.mark.parametrize("return_sequence", [True, False])
def test_lstm_time_major_matches_batch_major_bitwise(input_size, hidden_size, n, t, return_sequence):
    rng = seeded_rng(1000 * n + t)
    layer = LstmLayerParams.init(input_size, hidden_size, rng)
    layer.b = rng.normal(size=layer.b.shape)
    x = rng.uniform(size=(n, t, input_size))
    x[rng.uniform(size=(n, t)) < 0.3] = SENTINEL
    probe = rng.normal(size=(n, t, hidden_size) if return_sequence else (n, hidden_size))
    hidden, cache = lstm_forward_cached(layer, x)
    ref_hidden, ref_cache = batch_major_lstm_forward(layer, x)
    assert np.array_equal(hidden, ref_hidden)
    grads, dx = lstm_backward(layer, cache, probe if return_sequence else last_step_only(probe, t))
    ref_grads, ref_dx = batch_major_lstm_backward(layer, ref_cache, probe, return_sequence)
    for name in ("W", "U", "b"):
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert np.array_equal(dx, ref_dx)


def test_lstm_input_projection_has_no_one_row_chunk():
    # One user and T = 33: fixed 8-step chunks would leave a one-row
    # product for the last step, a gemv that sums in another order.
    for seed in range(10):
        rng = seeded_rng(seed)
        layer = LstmLayerParams.init(6, 1, rng)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.uniform(size=(1, 33, 6))
        x[rng.uniform(size=(1, 33)) < 0.3] = SENTINEL
        hidden, _ = lstm_forward_cached(layer, x)
        assert np.array_equal(hidden, batch_major_lstm_forward(layer, x)[0]), seed


def test_lstm_backward_consumes_its_cache():
    rng = seeded_rng(26)
    layer = LstmLayerParams.init(3, 2, rng)
    x = rng.normal(size=(2, 4, 3))
    probe = rng.normal(size=(2, 4, 2))
    _, cache = lstm_forward_cached(layer, x)
    lstm_backward(layer, cache, probe)
    with pytest.raises(MissingCacheError):
        lstm_backward(layer, cache, probe)
    # the input stays, so a caller can still read the batch shape
    assert cache["x"].shape == (2, 4, 3)


@pytest.mark.parametrize("input_size, hidden_size", [(6, 1), (1, 6)])
@pytest.mark.parametrize("n_train, n_rest, t", [(64, 16, 40), (3, 2, 9), (13, 5, 365)])
def test_lstm_joined_batch_matches_each_split_bitwise(input_size, hidden_size, n_train, n_rest, t):
    """One pass over training rows then holdout rows gives each split's
    own hidden sequence, and backpropagating the leading rows of its
    cache gives the training split's own gradients."""
    rng = seeded_rng(100 * n_train + t)
    layer = LstmLayerParams.init(input_size, hidden_size, rng)
    layer.b = rng.normal(size=layer.b.shape)
    x = rng.uniform(size=(n_train + n_rest, t, input_size))
    x[rng.uniform(size=x.shape[:2]) < 0.3] = SENTINEL
    probe = rng.normal(size=(n_train, t, hidden_size))
    hidden, cache = lstm_forward_cached(layer, x)
    train_hidden, train_cache = lstm_forward_cached(layer, x[:n_train])
    assert np.array_equal(hidden[:n_train], train_hidden)
    assert np.array_equal(hidden[n_train:], lstm_forward_cached(layer, x[n_train:])[0])
    cache["x"] = x[:n_train]
    grads, dx = lstm_backward(layer, cache, probe)
    ref_grads, ref_dx = lstm_backward(layer, train_cache, probe)
    for name in ("W", "U", "b"):
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert np.array_equal(dx, ref_dx)


@pytest.mark.parametrize("input_size, hidden_size", [(6, 1), (1, 6)])
@pytest.mark.parametrize("n, t", [(n, t) for n in (1, 3, 64) for t in (1, 33, 365)])
def test_lstm_forward_reads_rows_in_place_bitwise(input_size, hidden_size, n, t):
    """A pass over the rows of a larger tensor, in a shuffled order, equals
    a pass over those rows gathered first, bit for bit, and so does the
    backward pass of its cache, which gathers them itself."""
    rng = seeded_rng(7 * n + t)
    layer = LstmLayerParams.init(input_size, hidden_size, rng)
    layer.b = rng.normal(size=layer.b.shape)
    x = rng.uniform(size=(n + 2, t, input_size))
    x[rng.uniform(size=(n + 2, t)) < 0.3] = SENTINEL
    order = rng.permutation(n + 2)[:n]
    hidden, cache = lstm_forward_cached(layer, x, rows=order)
    ref_hidden, ref_cache = lstm_forward_cached(layer, x[order])
    assert np.array_equal(hidden, ref_hidden)
    for name in ("acts", "cells"):
        assert np.array_equal(cache[name], ref_cache[name]), name
    probe = rng.normal(size=(n, t, hidden_size))
    grads, dx = lstm_backward(layer, cache, probe)
    ref_grads, ref_dx = lstm_backward(layer, ref_cache, probe)
    for name in ("W", "U", "b"):
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert np.array_equal(dx, ref_dx)


def test_lstm_forward_reuses_buffers():
    rng = seeded_rng(28)
    layer = LstmLayerParams.init(3, 2, rng)
    buffers = {}
    first, _ = lstm_forward_cached(layer, rng.normal(size=(4, 5, 3)), buffers)
    assert sorted(buffers) == ["acts", "cells", "hidden"] and first is buffers["hidden"]
    x = rng.normal(size=(4, 5, 3))
    again, cache = lstm_forward_cached(layer, x, buffers)
    assert again is first and cache["acts"] is buffers["acts"]
    assert np.array_equal(again, lstm_forward_cached(layer, x)[0])
    wider, _ = lstm_forward_cached(layer, rng.normal(size=(6, 5, 3)), buffers)
    assert wider.shape == (6, 5, 2) and buffers["hidden"] is wider


def test_lstm_backward_peak_memory():
    """A decoder backward on a merged-split cache (N = 200 rows, the
    leading n = 160 backpropagated) allocates at its peak no more than
    the time-major gate gradients and half a (T, H, n) array: tanh(c) and
    dc/dh live in the cache's cell buffer, and the gate gradients are
    dropped before the products."""
    rng = seeded_rng(31)
    big_n, n, t, h = 200, 160, 365, 6
    layer = LstmLayerParams.init(1, h, rng)
    x = rng.uniform(size=(big_n, t, 1))
    _, cache = lstm_forward_cached(layer, x, {})
    cache["x"] = x[:n]
    probe = rng.normal(size=(n, t, h))
    per_step = t * h * n * 8
    bound = 4 * per_step + per_step // 2
    tracemalloc.start()
    try:
        lstm_backward(layer, cache, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def test_train_epoch_peak_memory():
    """One uts epoch over N = 200 users (n = 160 of them training) at
    T = 365, D = 6 allocates at its peak no more than both layers' forward
    buffers (6 + 36 floats per user and step), the gradient buffer of the
    training rows (D floats) and the decoder backward's bound above (27
    floats per training user and step): training reads its rows from the
    tensor in place and makes no permuted copy of it."""
    data = _toy_tensor(seeded_rng(43), n=200, t=365, d=6)
    n_train = 160
    bound = (42 * data.n_users + 33 * n_train) * data.n_days * 8
    tracemalloc.start()
    try:
        train(AutoencoderConfig(variant="uts", epochs=1, seed=2), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def _split_pass_train(config, data):
    """The training loop with one forward pass per split, the training
    rows and then the holdout rows alone: the reference train() must
    match bit for bit. Returns the model and the per-epoch curves."""
    rng = seeded_rng(config.seed)
    model = init_model(config, seq_len=data.n_days, input_dim=data.n_features, rng=rng)
    perm = rng.permutation(data.n_users)
    n_hold = min(max(1, int(round(data.n_users * config.holdout_fraction))), data.n_users - 1)
    x_train, x_hold = data.values[perm[n_hold:]], data.values[perm[:n_hold]]
    params = model.params_dict()
    opt = RmspropState(learning_rate=config.resolved_lr())
    curves = {"train_mse": [], "holdout_mse": [], "grad_norm": []}
    for _ in range(config.epochs):
        _, recon, caches = _forward_cached(model, x_train)
        curves["train_mse"].append(mse_loss(recon, x_train))
        curves["holdout_mse"].append(mse_loss(forward_autoencoder(model, x_hold)[1], x_hold))
        d_recon = recon - x_train
        d_recon *= 2.0 / recon.size
        grads = _backward(model, caches, d_recon)
        curves["grad_norm"].append(global_norm(grads))
        rmsprop_step(params, clip_global_norm(grads, config.clip_norm), opt)
    return model, curves


@pytest.mark.parametrize("variant, n, t, latent_dim", [
    ("uts", 12, 20, 5), ("vec", 12, 20, 5), ("uts", 31, 20, 5), ("vec", 31, 20, 5),
    # one dense product over both splits sums differently at this size
    ("vec", 12, 365, 300),
])
def test_train_one_pass_matches_split_passes_bitwise(variant, n, t, latent_dim):
    data = _toy_tensor(seeded_rng(41), n=n, t=t, d=3)
    cfg = AutoencoderConfig(variant=variant, epochs=4, latent_dim=latent_dim, seed=6, learning_rate=0.05)
    model, report = train(cfg, data)
    ref_model, curves = _split_pass_train(cfg, data)
    for name, block in ref_model.params_dict().items():
        assert np.array_equal(model.params_dict()[name], block), name
    assert {key: getattr(report, key) for key in curves} == curves


def test_lstm_init_draws_gates_in_order():
    """A seed pins the same weights as drawing each gate's block in turn."""
    layer = LstmLayerParams.init(3, 2, seeded_rng(27))
    rng = seeded_rng(27)
    limit_w, limit_u = np.sqrt(6.0 / 5), np.sqrt(6.0 / 4)
    gates = _weights_dict(layer)
    for g in GATE_ORDER:
        assert np.array_equal(gates[f"W_{g}"], rng.uniform(-limit_w, limit_w, size=(3, 2)))
    for g in GATE_ORDER:
        assert np.array_equal(gates[f"U_{g}"], rng.uniform(-limit_u, limit_u, size=(2, 2)))
    assert np.array_equal(layer.b, [0, 0, 1, 1, 0, 0, 0, 0])


def test_lstm_input_gradient():
    rng = seeded_rng(23)
    layer = LstmLayerParams.init(2, 2, rng)
    x0 = rng.normal(size=(1, 4, 2))
    probe = rng.normal(size=(1, 4, 2))

    def loss(flat):
        hidden, _ = lstm_forward_cached(layer, flat.reshape(x0.shape))
        return float(np.sum(hidden * probe))

    numeric = finite_diff_grad(loss, x0.ravel()).reshape(x0.shape)
    _, cache = lstm_forward_cached(layer, x0)
    _, dx = lstm_backward(layer, cache, probe)
    assert np.allclose(dx, numeric, rtol=1e-5, atol=1e-7)


def test_dense_gradient():
    rng = seeded_rng(24)
    assert dense_grad_max_rel_err(rng, 4, 3) < 1e-4


def test_backward_requires_cache():
    rng = seeded_rng(25)
    layer = LstmLayerParams.init(2, 2, rng)
    with pytest.raises(MissingCacheError):
        lstm_backward(layer, None, np.zeros((1, 3, 2)))
    dense = DenseLayerParams.init(2, 2, rng)
    with pytest.raises(MissingCacheError):
        dense_backward(dense, None, np.zeros((1, 2)))


def test_mse_loss_hand_value():
    recon = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 2.0], [3.0, 2.0]])
    # squared errors 1, 0, 0, 4 over 4 entries
    assert mse_loss(recon, target) == pytest.approx(1.25, rel=1e-15)


def test_train_uts_report_and_shapes():
    rng = seeded_rng(31)
    data = _toy_tensor(rng)
    cfg = AutoencoderConfig(variant="uts", epochs=5, seed=3)
    model, report = train(cfg, data)
    assert report.final_epoch == 5
    assert len(report.train_mse) == 5
    assert len(report.holdout_mse) == 5
    assert all(np.isfinite(report.train_mse))
    latent, recon = forward_autoencoder(model, data.values)
    assert latent.shape == (6, 8, 1)
    assert recon.shape == data.values.shape
    # encode gives one row per user: the width-1 hidden sequence as (N, T)
    enc = encode(model, data)
    assert enc.shape == (6, 8)
    assert np.array_equal(enc, latent[:, :, 0])


def test_train_reports_grad_norm_and_clipping():
    data = _toy_tensor(seeded_rng(39))
    _, tight = train(AutoencoderConfig(variant="uts", epochs=3, seed=1, clip_norm=1e-6), data)
    _, off = train(AutoencoderConfig(variant="uts", epochs=3, seed=1, clip_norm=0.0), data)
    assert tight.clipped == [True] * 3
    assert off.clipped == [False] * 3
    # the norm is taken before clipping, so the first epochs agree
    assert tight.grad_norm[0] == off.grad_norm[0] > 1e-6
    doc = tight.to_dict()
    assert doc["grad_norm"] == tight.grad_norm and doc["clipped"] == tight.clipped
    assert "timing" not in doc
    assert set(tight.timing) == {"cpu_time_s", "wall_time_s"}
    assert tight.timing["cpu_time_s"] >= 0.0 and tight.timing["wall_time_s"] >= 0.0


def test_train_reports_saturation_and_stall_ratio():
    # identical users, so every training split holds the same rows
    one = _toy_tensor(seeded_rng(40), n=1, t=30)
    data = replace(one, values=np.repeat(one.values, 5, axis=0), user_ids=[f"u{i}" for i in range(5)])
    # a step this large drives part of the latent into saturation
    cfg = AutoencoderConfig(variant="uts", epochs=3, seed=2, learning_rate=50.0)
    _, report = train(cfg, data)
    # the last epoch's forward pass runs on the parameters after two steps
    before, _ = train(replace(cfg, epochs=2), data)
    latent, recon = forward_autoencoder(before, one.values)
    assert 0.0 < report.latent_saturation == float(np.mean(np.abs(latent) > 0.99))
    baseline = np.mean((one.values - one.values.mean(axis=(0, 1))) ** 2)
    assert report.stall_ratio == pytest.approx(mse_loss(recon, one.values) / baseline, rel=1e-12)
    doc = report.to_dict()
    assert (doc["latent_saturation"], doc["stall_ratio"]) == (report.latent_saturation, report.stall_ratio)
    assert "stall_ratio" not in report.timing
    _, idle = train(replace(cfg, epochs=0), data)
    assert idle.latent_saturation is None and idle.stall_ratio is None


def test_train_deterministic_per_seed():
    rng = seeded_rng(32)
    data = _toy_tensor(rng)
    cfg = AutoencoderConfig(variant="uts", epochs=4, seed=9)
    model_a, rep_a = train(cfg, data)
    model_b, rep_b = train(cfg, data)
    assert rep_a.train_mse == rep_b.train_mse
    assert np.array_equal(encode(model_a, data), encode(model_b, data))
    model_c, _ = train(AutoencoderConfig(variant="uts", epochs=4, seed=10), data)
    assert not np.array_equal(encode(model_a, data), encode(model_c, data))


def test_train_vec_latent_shape():
    rng = seeded_rng(33)
    data = _toy_tensor(rng, n=5, t=6, d=2)
    cfg = AutoencoderConfig(variant="vec", epochs=3, latent_dim=7, seed=1)
    model, _ = train(cfg, data)
    enc = encode(model, data)
    assert enc.shape == (5, 7)
    _, recon = forward_autoencoder(model, data.values)
    assert recon.shape == data.values.shape


def test_train_rejects_raw_tensor():
    rng = seeded_rng(34)
    data = _toy_tensor(rng)
    raw = MtsTensor(
        values=data.values.copy(),
        user_ids=list(data.user_ids),
        feature_names=data.feature_names,
        day_min=None,
    )
    with pytest.raises(ValueError):
        train(AutoencoderConfig(variant="uts", epochs=2), raw)


def test_train_rejects_single_user():
    rng = seeded_rng(35)
    data = _toy_tensor(rng, n=1)
    with pytest.raises(ValueError):
        train(AutoencoderConfig(variant="uts", epochs=2), data)


def test_default_learning_rates_per_variant():
    assert AutoencoderConfig(variant="uts").resolved_lr() == 0.5
    assert AutoencoderConfig(variant="vec").resolved_lr() == 2e-4
    assert AutoencoderConfig(variant="uts", learning_rate=0.01).resolved_lr() == 0.01


def test_checkpoint_roundtrip(tmp_path):
    rng = seeded_rng(36)
    data = _toy_tensor(rng, n=4, t=5, d=2)
    cfg = AutoencoderConfig(variant="vec", epochs=3, latent_dim=4, seed=2)
    model, _ = train(cfg, data)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    back = load_model(path)
    orig = model.params_dict()
    restored = back.params_dict()
    assert sorted(orig) == sorted(restored)
    for name in orig:
        assert np.array_equal(orig[name], restored[name]), name
    assert np.array_equal(encode(back, data), encode(model, data))
    assert back.config.variant == "vec"
    assert back.seq_len == model.seq_len
    assert back.input_dim == model.input_dim


def test_checkpoint_header_bytes_are_pinned(tmp_path):
    """The header a checkpoint has always had, key for key and byte for byte."""
    from botclust.mts import NormalizationParams

    model = init_model(AutoencoderConfig(variant="vec", latent_dim=3, learning_rate=0.01,
                                         epochs=7, seed=5),
                       seq_len=4, input_dim=2, rng=None,
                       norm_params=NormalizationParams(("num_urls", "reply_count"),
                                                       [0.0, 1.0], [2.0, 3.5]))
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    raw = path.read_bytes()
    header = raw[12:12 + int.from_bytes(raw[8:12], "little")].decode("utf-8")
    assert header == (
        '{"blocks": [{"name": "dec_dense.W", "shape": [3, 4]}, {"name": "dec_dense.b", '
        '"shape": [4]}, {"name": "decoder.U", "shape": [2, 8]}, {"name": "decoder.W", '
        '"shape": [1, 8]}, {"name": "decoder.b", "shape": [8]}, {"name": "enc_dense.W", '
        '"shape": [4, 3]}, {"name": "enc_dense.b", "shape": [3]}, {"name": "encoder.U", '
        '"shape": [1, 4]}, {"name": "encoder.W", "shape": [2, 4]}, {"name": "encoder.b", '
        '"shape": [4]}], "config": {"clip_norm": 5.0, "epochs": 7, "holdout_fraction": 0.2, '
        '"latent_dim": 3, "learning_rate": 0.01, "seed": 5, "variant": "vec"}, '
        '"input_dim": 2, "norm_params": {"feature_names": ["num_urls", "reply_count"], '
        '"maxs": [2.0, 3.5], "mins": [0.0, 1.0]}, "seq_len": 4, "version": 2}'
    )


def test_checkpoint_with_retired_config_keys_loads(tmp_path):
    """v2 checkpoints written while the config still had input_dim and
    seq_len hold both keys as null; loading ignores them."""
    rng = seeded_rng(38)
    data = _toy_tensor(rng, n=4, t=5, d=2)
    model, _ = train(AutoencoderConfig(variant="uts", epochs=2, seed=0), data)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    raw = path.read_bytes()
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:header_end])
    header["config"].update(input_dim=None, seq_len=None)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[header_end:])
    back = load_model(path)
    assert back.config == model.config
    assert np.array_equal(encode(back, data), encode(model, data))


def test_load_model_draws_no_random_numbers(tmp_path):
    # The stepwise encode process loads models only: it need not import
    # numpy.random at all.
    data = _toy_tensor(seeded_rng(42), n=4, t=5, d=2)
    model, _ = train(AutoencoderConfig(variant="vec", epochs=2, latent_dim=3, seed=0), data)
    save_model(model, tmp_path / "model.ckpt")
    np.save(tmp_path / "data.npy", data.values)
    np.save(tmp_path / "latent.npy", encode(model, data))
    script = (
        "import sys, numpy as np\n"
        "from botclust.autoencoder import encode, load_model\n"
        "from botclust.mts import MtsTensor\n"
        f"model = load_model({str(tmp_path / 'model.ckpt')!r})\n"
        f"values = np.load({str(tmp_path / 'data.npy')!r})\n"
        "data = MtsTensor(values, ['a', 'b', 'c', 'd'], ('f0', 'f1'), None, normalized=True)\n"
        f"assert np.array_equal(encode(model, data), np.load({str(tmp_path / 'latent.npy')!r}))\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_encode_rejects_mismatched_width():
    rng = seeded_rng(37)
    data = _toy_tensor(rng, n=4, t=5, d=2)
    model, _ = train(AutoencoderConfig(variant="uts", epochs=2, seed=0), data)
    other = _toy_tensor(rng, n=4, t=5, d=3)
    with pytest.raises(ValueError):
        encode(model, other)
