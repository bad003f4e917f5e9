"""LSTM autoencoder trained full-batch with RMSProp on reconstruction MSE.

Two architectures share the encoder idea (LSTM squeezing D features to a
width-1 hidden sequence):

  uts: LSTM(D->1) sequence latent, LSTM(1->D) sequence reconstruction.
  vec: LSTM(D->1) -> flatten T -> dense T->L (tanh) latent; dense L->T
       (tanh) -> reshape -> LSTM(1->D) reconstruction.

Each LSTM layer stores its four gates fused: W (input, 4H), U (H, 4H)
and b (4H,), gate blocks in GATE_ORDER. The recurrence runs time-major
and batch-minor: gate activations are kept as (T, 4H, N) and cells as
(T, H, N), so every step reads and writes contiguous (4H, N) and (H, N)
blocks. The forward pass projects the input before the recurrence, one
matrix product per chunk of about 8 steps over rows in (user, step)
order, written straight into the time-major buffer (one broadcast
product when the input has one feature); the hidden sequence is kept
once, as (N, T, H). Each step then adds U.T @ h, formed into a
contiguous (4H, N) block, and runs the gates with a fixed set of numpy
calls into scratch arrays made once per pass, with no per-step
temporaries. The backward pass forms tanh(c) and dc/dh in the cache's
cell buffer, runs its reverse loop the same way (one product with U per
step, from a C-contiguous (N, 4H) copy of the step's gate gradients),
writes the gate gradients in (user, step) order into the spent
activation buffer, drops its time-major copy of them and forms the
weight gradients with one product each. A backward pass consumes its cache's activations and
cells (a second one raises MissingCacheError). Every sum runs in the
same order as in a batch-major layout, so outputs and gradients do not
depend on the layout to the last bit.

Training runs one forward pass per epoch over the training rows followed
by the holdout rows, so each LSTM runs its recurrence once; the dense
layers of vec run once per split, so each split's product is the one its
rows alone take. The backward pass reads the training rows' columns of
that pass's cache as views, and the forward buffers are allocated once
per train call. Training reads the rows of the normalized tensor in
place and makes no permuted copy of it; the encoder's backward gathers
its input after the decoder's, the training peak. Models and reports
equal one pass per split bit for bit, except where a split is a single
row: that product is a gemv, which sums in another order. The model's
layer arrays are the only copy of the weights: each epoch's RMSProp
step updates them and their accumulators in place.

All gradients are hand-derived backpropagation through time; the test
suite checks every layer against central finite differences.

Checkpoints are format version 2 (blocks encoder.W/U/b, decoder.W/U/b,
plus the dense layers of vec). Version 1 files held one block per gate;
loading one raises ValueError (exit 4 from the CLI): retrain the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .ingest import reading
from .mts import MtsTensor, NormalizationParams, header_count, read_container, write_container
from .numerics import RmspropState, clip_global_norm, global_norm, rmsprop_step, seeded_rng

GATE_ORDER = ("i", "f", "o", "c")

_CKPT_MAGIC = b"BCAECK01"
_CKPT_VERSION = 2


def _xavier(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> np.ndarray:
    """Xavier-uniform (fan_in, fan_out) weights; zeros without rng."""
    if rng is None:
        return np.zeros((fan_in, fan_out))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class _Layer:
    """A layer's parameter arrays, named in BLOCKS; its sizes are read from them."""

    BLOCKS: tuple[str, ...] = ()

    @property
    def input_size(self) -> int:
        return self.W.shape[0]

    def blocks(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.BLOCKS}


@dataclass
class LstmLayerParams(_Layer):
    """One LSTM layer with its four gates fused along the last axis.

    W (input, 4*hidden) maps the input, U (hidden, 4*hidden) the previous
    hidden state and b (4*hidden,) holds the biases; the gate blocks of
    width hidden follow GATE_ORDER. Cell and output activations are tanh,
    gate activations sigmoid.
    """

    BLOCKS = ("W", "U", "b")

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

    @classmethod
    def init(cls, input_size: int, hidden_size: int,
             rng: np.random.Generator | None) -> "LstmLayerParams":
        """Xavier-uniform weights drawn gate by gate (every W, then every
        U); biases zero except the forget gate at 1. Without rng the
        weights are zero, a shell for a checkpoint's blocks."""
        w = np.concatenate([_xavier(rng, input_size, hidden_size) for _ in GATE_ORDER], axis=1)
        u = np.concatenate([_xavier(rng, hidden_size, hidden_size) for _ in GATE_ORDER], axis=1)
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        return cls(W=w, U=u, b=b)


@dataclass
class DenseLayerParams(_Layer):
    """Fully connected layer with tanh activation: y = tanh(x W + b)."""

    BLOCKS = ("W", "b")

    W: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, input_size: int, output_size: int,
             rng: np.random.Generator | None) -> "DenseLayerParams":
        return cls(W=_xavier(rng, input_size, output_size), b=np.zeros(output_size))


class MissingCacheError(RuntimeError):
    pass


# Steps whose input projection one GEMM computes in lstm_forward_cached.
_PROJECTION_STEPS = 8
# Gate rows (steps times 4*hidden) per block of lstm_backward's copy of
# the gate gradients into (user, step) order: 21 steps for hidden 6, 128
# for hidden 1. On a 2-vCPU VM (numpy 2.4, T = 365, hidden 6) one
# whole-array copy took 4.3, 9.7, 68 and 387 ms at N = 64, 160, 1000 and
# 4000 users, these blocks 0.9, 4.4, 30 and 173 ms; at hidden 1 both ways
# cost about the same.
_TRANSPOSE_ROWS = 512


def _buffer(buffers: dict | None, name: str, shape: tuple) -> np.ndarray:
    """buffers[name] when it has this shape, else a new array kept there."""
    if buffers is None:
        return np.empty(shape)
    if name not in buffers or buffers[name].shape != shape:
        buffers[name] = np.empty(shape)
    return buffers[name]


def lstm_forward_cached(layer: LstmLayerParams, x: np.ndarray, buffers: dict | None = None,
                        rows=slice(None)) -> tuple[np.ndarray, dict]:
    """Batched LSTM pass with h0 = c0 = 0 over the users x[rows] of an
    input x of shape (N, T, input); rows defaults to all of them in order.

    Returns the full hidden sequence (n, T, hidden) of those n users and
    the cache needed for backpropagation through time: the input and the
    rows, the gate activations (T, 4*hidden, n) with gate blocks in
    GATE_ORDER, the cell states (T, hidden, n) and the hidden sequence
    that is also returned. Given a buffers dict, those three arrays are
    the ones it holds from an earlier call of the same shape (and are
    overwritten), else new ones kept in it. The rows are read in place,
    a chunk of steps at a time, so no copy of x[rows] is made. Each step
    makes the same dozen numpy calls into scratch arrays made once per
    call: the recurrent term U.T @ h, the sigmoid's two exponentials in
    one exp call, and the cell and hidden updates with out=.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != layer.input_size:
        raise ValueError(f"expected (N, T, {layer.input_size}) input, got {x.shape}")
    n = np.arange(len(x))[rows].size
    t, d = x.shape[1:]
    h = layer.hidden_size
    # Time-major, batch-minor: each step's gates are one contiguous (4H, N)
    # block. The input projection runs a chunk of steps per GEMM over rows
    # in (user, step) order and lands transposed in that chunk's blocks.
    # Chunks split T evenly, so none is a single row (a gemv, which sums in
    # another order) unless the whole input is. With one input feature each
    # entry is a single exact product, the K = 1 GEMM's value, so one
    # broadcast product fills the whole buffer.
    acts = _buffer(buffers, "acts", (t, 4 * h, n))
    if d == 1:
        np.multiply(x[rows, :, 0].T[:, np.newaxis], layer.W.T, out=acts)
        acts += layer.b[:, np.newaxis]
    else:
        chunks = -(-t // _PROJECTION_STEPS)
        bounds = [t * k // chunks for k in range(chunks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            proj = x[rows, lo:hi].reshape(n * (hi - lo), d) @ layer.W
            proj += layer.b
            acts[lo:hi] = proj.reshape(n, hi - lo, 4 * h).transpose(1, 2, 0)
    cells = _buffer(buffers, "cells", (t, h, n))
    hidden = _buffer(buffers, "hidden", (n, t, h))
    # Scratch for the loop, made once and filled in place. The recurrent
    # term h_prev @ U lands in a contiguous (4H, N) block, formed after
    # each step for the next one (zero at step 0) from h kept as a
    # contiguous (H, N) array. With H = 1 it is one product per entry, as
    # the K = 1 matrix product is. Above, U.T @ h sums as (h.T @ U).T does.
    rec = np.zeros((4 * h, n))
    h_t = np.empty((h, n))
    c_prev = np.zeros((h, n))
    product, u_t = np.multiply if h == 1 else np.matmul, layer.U.T
    # ex holds the sigmoid's two exp arguments, so one call forms both.
    # The constants are 0-d arrays: a Python float operand costs a
    # conversion per call.
    ex = np.empty((2, 3 * h, n))
    num, den = ex
    zero, one, minus_one = np.zeros(()), np.ones(()), np.full((), -1.0)
    # Each step's views come from one zip over per-step iterators, cheaper
    # than indexing every array at every step.
    gates = acts.reshape(t, 4, h, n).transpose(1, 0, 2, 3)
    steps = zip(acts, acts[:, :3 * h], *gates, cells, hidden.transpose(1, 2, 0))
    for z, s, i_t, f_t, o_t, g_t, c_t, h_out in steps:
        z += rec
        # sigmoid of the i, f, o rows s: exp(min(s, 0)) / (1 + exp(-|s|)),
        # which is 1/(1+e) for s >= 0 and e/(1+e) below, e = exp(-|s|)
        # (exp(0) is exactly 1, and below 0 min(s, 0) is -|s|), so that
        # neither side overflows
        np.minimum(s, zero, out=num)
        np.copysign(s, minus_one, out=den)
        np.exp(ex, out=ex)
        den += one
        np.divide(num, den, out=s)
        np.tanh(g_t, out=g_t)
        c_prev = np.multiply(f_t, c_prev, out=c_t)
        np.multiply(i_t, g_t, out=h_t)
        c_prev += h_t
        np.tanh(c_prev, out=h_t)
        h_t *= o_t
        h_out[...] = h_t
        product(u_t, h_t, out=rec)
    cache = {"x": x, "rows": rows, "acts": acts, "cells": cells, "hidden": hidden}
    return hidden, cache


def lstm_backward(
    layer: LstmLayerParams,
    cache: dict | None,
    d_out: np.ndarray,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Full BPTT given the forward cache and upstream hidden-state grads.

    d_out is (N, T, hidden), one gradient per step. Returns the parameter
    gradients keyed W/U/b and the gradient with respect to the input
    sequence. The cache's arrays may cover more users than the rows of its
    input x that it names: only their leading n users, those of x[rows],
    are backpropagated, read as views. x[rows] is gathered when the pass
    runs and replaces the cache's input and rows. The pass consumes the
    cache's activations and cells: afterwards the activation buffer holds
    the gate gradients and the cell buffer the factor dc/dh (a later
    lstm_forward_cached writes both before reading them), so a cache
    serves one backward pass; a second raises MissingCacheError.
    """
    if cache is None or "acts" not in cache:
        raise MissingCacheError("lstm_backward needs a fresh cache from lstm_forward_cached")
    x = cache["x"] = cache["x"][cache.pop("rows")]
    n, t, d = x.shape
    h = layer.hidden_size
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (n, t, h):
        raise ValueError(f"upstream gradient shape {d_out.shape} != {(n, t, h)}")

    spent, spent_cells = cache.pop("acts"), cache.pop("cells")
    dz = _gate_gradients(layer, spent[:, :, :n], spent_cells[:, :, :n], d_out)

    # The activations are spent: their buffer takes the gate gradients in
    # (user, step) row order, the order every sum below runs over. The
    # transposing copy goes a block of steps at a time, which stays in
    # cache (see _TRANSPOSE_ROWS). The time-major gradients are dropped
    # before the products.
    dz_seq = spent.reshape(-1)[:n * t * 4 * h].reshape(n, t, 4 * h)
    block = max(1, _TRANSPOSE_ROWS // (4 * h))
    for lo in range(0, t, block):
        np.copyto(dz_seq[:, lo:lo + block], dz[lo:lo + block].transpose(2, 0, 1))
    del dz
    hidden = cache["hidden"][:n]
    dz_rows = dz_seq.reshape(n * t, 4 * h)
    # h_prev is zero at step 0, so per user hidden[:, :-1] meets dz[:, 1:]
    d_u = np.matmul(hidden[:, :-1].transpose(0, 2, 1), dz_seq[:, 1:])
    grads = {"W": x.reshape(n * t, d).T @ dz_rows, "U": d_u.sum(axis=0), "b": dz_rows.sum(axis=0)}
    return grads, (dz_rows @ layer.W.T).reshape(n, t, d)


def _gate_gradients(layer: LstmLayerParams, acts: np.ndarray, cells: np.ndarray,
                    d_hidden: np.ndarray) -> np.ndarray:
    """The reverse loop of lstm_backward: the gate gradients (T, 4H, N)
    from the gate activations (T, 4H, N), the cell states (T, H, N) and
    the upstream hidden-state gradients (N, T, H). The cells are read
    once, then overwritten with tanh(c) and the factor dc/dh. The views
    of the gradients end with this call, so the caller frees them by
    dropping the one array returned."""
    t, h4, n = acts.shape
    h = h4 // 4
    i, f, o, g = acts.reshape(t, 4, h, n).transpose(1, 0, 2, 3)
    # Everything but the upstream dc (dh for the output gate) is known from
    # the forward pass, so each gate's factor is formed for all steps here:
    # dz_i = dc*i(1-i)*g, dz_f = dc*f(1-f)*c_prev, dz_o = dh*o(1-o)*tanh(c),
    # dz_c = dc*(1-g^2)*i, and dc = dh*o*(1-tanh(c)^2) + dc_next.
    dz = np.subtract(1.0, acts)
    dz *= acts
    dz_gates = dz.reshape(t, 4, h, n)
    dzi, dzf, dzo, dzg = dz_gates.transpose(1, 0, 2, 3)
    np.multiply(g, g, out=dzg)
    np.subtract(1.0, dzg, out=dzg)
    dzi *= g
    dzf[0] = 0.0
    dzf[1:] *= cells[:-1]
    dzg *= i
    dc_dh = np.tanh(cells, out=cells)
    dzo *= dc_dh
    dc_dh *= dc_dh
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    # Per-step scratch, made once and filled in place. Each step's four
    # gate factors are scaled by one product with (dc, dc, dh, dc), kept
    # as a (4, H, N) block. The product with U reads a C-contiguous (N, 4H)
    # copy of the step's gate gradients, the operand of a batch-major
    # layout: with H = 1 the product is a gemv, and the transposed one
    # would sum the four gate terms in another order.
    scale = np.empty((4, h, n))
    dh, dc = scale[2], scale[3]
    dc_next, dh_next = np.zeros((h, n)), np.zeros((n, h))
    dz_rows = np.empty((n, 4 * h))
    u_t, dh_next_t, head = layer.U.T, dh_next.T, scale[:2]
    steps = zip(dz[::-1], dz_gates[::-1], f[::-1], dc_dh[::-1], d_hidden.transpose(1, 2, 0)[::-1])
    for dz_t, dzs, f_t, dc_dh_t, d_t in steps:
        np.add(d_t, dh_next_t, out=dh)
        np.multiply(dh, dc_dh_t, out=dc)
        dc += dc_next
        np.copyto(head, dc)
        dzs *= scale
        np.copyto(dz_rows, dz_t.T)
        np.matmul(dz_rows, u_t, out=dh_next)
        np.multiply(dc, f_t, out=dc_next)
    return dz


def dense_forward_cached(layer: DenseLayerParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.input_size:
        raise ValueError(f"expected (N, {layer.input_size}) input, got {x.shape}")
    y = np.tanh(x @ layer.W + layer.b)
    return y, {"x": x, "y": y}


def dense_backward(layer: DenseLayerParams, cache: dict | None, dy: np.ndarray) -> tuple[dict, np.ndarray]:
    if cache is None:
        raise MissingCacheError("dense_backward needs the cache from dense_forward_cached")
    x, y = cache["x"], cache["y"]
    da = np.asarray(dy, dtype=np.float64) * (1.0 - y * y)
    grads = {"W": x.T @ da, "b": da.sum(axis=0)}
    return grads, da @ layer.W.T


@dataclass
class AutoencoderConfig:
    """Training configuration. Defaults follow the reference setup:
    RMSProp at 0.5 (uts) or 2e-4 (vec), 250 epochs, full-batch, tanh
    activations, latent width 300 for the vectorial variant.

    Note the uts learning rate of 0.5 is aggressive for RMSProp; global
    gradient-norm clipping (clip_norm) keeps it finite.
    """

    variant: str = "uts"
    latent_dim: int = 300
    learning_rate: Optional[float] = None
    epochs: int = 250
    holdout_fraction: float = 0.2
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.variant not in ("uts", "vec"):
            raise ValueError(f"variant must be 'uts' or 'vec', got {self.variant!r}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")
        if self.variant == "vec" and self.latent_dim <= 0:
            raise ValueError(f"latent_dim must be positive, got {self.latent_dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.learning_rate is not None and not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if math.isnan(self.clip_norm):
            raise ValueError("clip_norm must be a number (<= 0 turns clipping off), got nan")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def resolved_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.5 if self.variant == "uts" else 2e-4

    @classmethod
    def from_dict(cls, d: dict) -> "AutoencoderConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class AutoencoderModel:
    config: AutoencoderConfig
    seq_len: int
    encoder: LstmLayerParams
    decoder: LstmLayerParams
    enc_dense: Optional[DenseLayerParams] = None
    dec_dense: Optional[DenseLayerParams] = None
    norm_params: Optional[NormalizationParams] = None

    @property
    def variant(self) -> str:
        return self.config.variant

    @property
    def input_dim(self) -> int:
        return self.encoder.input_size

    def params_dict(self) -> dict[str, np.ndarray]:
        out = {}
        out.update(self.encoder.blocks("encoder"))
        if self.enc_dense is not None:
            out.update(self.enc_dense.blocks("enc_dense"))
        if self.dec_dense is not None:
            out.update(self.dec_dense.blocks("dec_dense"))
        out.update(self.decoder.blocks("decoder"))
        return out


def init_model(config: AutoencoderConfig, seq_len: int, input_dim: int,
               rng: np.random.Generator | None,
               norm_params: NormalizationParams | None = None) -> AutoencoderModel:
    """Build a freshly initialized model. Draw order is fixed (encoder,
    enc_dense, dec_dense, decoder) so a seed pins every weight. Without
    rng nothing is drawn and the weights are zero (see load_model)."""
    encoder = LstmLayerParams.init(input_dim, 1, rng)
    enc_dense = dec_dense = None
    if config.variant == "vec":
        enc_dense = DenseLayerParams.init(seq_len, config.latent_dim, rng)
        dec_dense = DenseLayerParams.init(config.latent_dim, seq_len, rng)
    decoder = LstmLayerParams.init(1, input_dim, rng)
    return AutoencoderModel(config, seq_len, encoder, decoder, enc_dense, dec_dense, norm_params)


def _forward_cached(model: AutoencoderModel, x: np.ndarray, n_train: int | None = None,
                    buffers: dict | None = None, rows=slice(None)):
    """Encoder and decoder over the batch x[rows] of a tensor x (N, T, D),
    read in place, whose first n_train rows (default: all) are the ones
    to backpropagate. Returns their latent, the reconstruction of every
    row and the caches for those rows. Each LSTM runs once over the whole
    batch, with buffers[layer] as its buffers; the dense layers of vec
    run once per split, rows [:n_train] and [n_train:], so a split's
    product is the one its rows alone take.
    """
    layer_buffers = buffers or {}
    enc_seq, enc_cache = lstm_forward_cached(model.encoder, x, layer_buffers.get("encoder"), rows)
    n, t = enc_seq.shape[:2]
    n_train = n if n_train is None else n_train
    caches = {"encoder": enc_cache}
    if model.variant == "uts":
        latent = dec_in = enc_seq                                      # (N, T, 1)
    else:
        flat = enc_seq.reshape(n, t)
        latent, c1 = dense_forward_cached(model.enc_dense, flat[:n_train])    # (n_train, L)
        expanded, c2 = dense_forward_cached(model.dec_dense, latent)          # (n_train, T)
        caches.update({"enc_dense": c1, "dec_dense": c2})
        if n_train < n:
            rest, _ = dense_forward_cached(model.enc_dense, flat[n_train:])
            expanded = np.concatenate([expanded, dense_forward_cached(model.dec_dense, rest)[0]])
        dec_in = expanded.reshape(n, t, 1)
    recon, dec_cache = lstm_forward_cached(model.decoder, dec_in, layer_buffers.get("decoder"))
    caches["decoder"] = dec_cache
    enc_cache["rows"] = np.arange(len(x))[rows][:n_train]
    dec_cache["x"] = dec_in[:n_train]
    return latent[:n_train], recon, caches


def forward_autoencoder(model: AutoencoderModel, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode and reconstruct a normalized batch of shape (N, T, D).

    Returns (latent, reconstruction) where latent is (N, T, 1) for the
    uts variant and (N, latent_dim) for the vec variant.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ValueError(f"batch must be (N, T, D), got shape {batch.shape}")
    if batch.shape[1] != model.seq_len or batch.shape[2] != model.input_dim:
        raise ValueError(
            f"batch shape {batch.shape[1:]} does not match model (T={model.seq_len}, D={model.input_dim})"
        )
    latent, recon, _ = _forward_cached(model, batch)
    return latent, recon


def _backward(model: AutoencoderModel, caches: dict, d_recon: np.ndarray) -> dict[str, np.ndarray]:
    n, t = d_recon.shape[:2]
    dec_grads, d_dec_in = lstm_backward(model.decoder, caches["decoder"], d_recon)
    grads = {f"decoder.{k}": v for k, v in dec_grads.items()}
    if model.variant == "uts":
        d_latent = d_dec_in                                            # (N, T, 1)
        enc_grads, _ = lstm_backward(model.encoder, caches["encoder"], d_latent)
    else:
        dd_grads, d_latent = dense_backward(model.dec_dense, caches["dec_dense"], d_dec_in.reshape(n, t))
        grads.update({f"dec_dense.{k}": v for k, v in dd_grads.items()})
        ed_grads, d_flat = dense_backward(model.enc_dense, caches["enc_dense"], d_latent)
        grads.update({f"enc_dense.{k}": v for k, v in ed_grads.items()})
        enc_grads, _ = lstm_backward(model.encoder, caches["encoder"], d_flat.reshape(n, t, 1))
    grads.update({f"encoder.{k}": v for k, v in enc_grads.items()})
    return grads


def mse_loss(reconstruction: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every entry of the two tensors."""
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if reconstruction.shape != target.shape:
        raise ValueError(f"shape mismatch: {reconstruction.shape} vs {target.shape}")
    diff = reconstruction - target
    diff *= diff
    return float(np.mean(diff))


def train(
    config: AutoencoderConfig,
    data: MtsTensor,
    norm_params: NormalizationParams | None = None,
) -> tuple[AutoencoderModel, dict]:
    """Train on a normalized tensor: seeded split, full-batch RMSProp.

    Runs exactly config.epochs optimizer steps on the training split.
    The holdout curve is monitored only; there is no early stopping.
    Both splits are read from data in place, and the optimizer steps the
    model's own weight arrays in place.

    Returns the model and the body of train_report_<variant>.json. Its
    "train" block holds the per-epoch curves train_mse and holdout_mse
    (both measured before each step, by one forward pass over both
    splits), grad_norm (the global gradient norm before clipping) and
    clipped (whether clipping fired); two label-free health checks of
    the last epoch (None without epochs): latent_saturation, the share
    of training-latent entries with |value| > 0.99, and stall_ratio, the
    last training MSE over the MSE of predicting every entry by its
    feature's mean over the training split; and final_epoch and seed.
    Its "timing" block holds the epoch loop's wall_time_s and this
    process's cpu_time_s over it (a training that shared its CPU shows
    wall well above CPU).
    """
    if not data.normalized:
        raise ValueError("train expects a normalized tensor; run minmax_normalize first")
    n = data.n_users
    if n < 2:
        raise ValueError("training needs at least 2 users for a holdout split")
    t, d = data.n_days, data.n_features

    rng = seeded_rng(config.seed)
    model = init_model(config, seq_len=t, input_dim=d, rng=rng, norm_params=norm_params)

    perm = rng.permutation(n)
    n_hold = min(max(1, int(round(n * config.holdout_fraction))), n - 1)
    n_train = n - n_hold
    # Training rows first, then the holdout rows: one forward pass per
    # epoch covers both splits, reading them from the tensor in place.
    x, train_rows, hold_rows = data.values, perm[n_hold:], perm[:n_hold]
    order = np.concatenate([train_rows, hold_rows])

    params = model.params_dict()
    opt = RmspropState(learning_rate=config.resolved_lr())
    buffers = {"encoder": {}, "decoder": {}}
    train_curve: list[float] = []
    hold_curve: list[float] = []
    norms: list[float] = []
    clipped: list[bool] = []
    started, cpu_started = time.perf_counter(), time.process_time()
    for epoch in range(config.epochs):
        latent, recon, caches = _forward_cached(model, x, n_train, buffers, order)
        # The gradient's buffer takes the gathered training rows, then
        # the difference in place.
        d_recon = x[train_rows]
        np.subtract(recon[:n_train], d_recon, out=d_recon)
        loss = float(np.mean(d_recon * d_recon))
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch + 1}")
        train_curve.append(loss)
        hold_curve.append(mse_loss(recon[n_train:], x[hold_rows]))
        d_recon *= 2.0 / d_recon.size
        grads = _backward(model, caches, d_recon)
        norms.append(global_norm(grads))
        step_grads = clip_global_norm(grads, config.clip_norm, norms[-1])
        clipped.append(step_grads is not grads)
        rmsprop_step(params, step_grads, opt)
    saturation = stall = None
    if config.epochs:
        saturation = float(np.mean(np.abs(latent) > 0.99))
        x_train = x[train_rows]
        baseline = mse_loss(np.broadcast_to(x_train.mean(axis=(0, 1)), x_train.shape), x_train)
        stall = loss / baseline if baseline > 0.0 else None
    report = {
        "train": {"train_mse": train_curve, "holdout_mse": hold_curve, "grad_norm": norms,
                  "clipped": clipped, "latent_saturation": saturation, "stall_ratio": stall,
                  "final_epoch": config.epochs, "seed": config.seed},
        "timing": {"wall_time_s": time.perf_counter() - started,
                   "cpu_time_s": time.process_time() - cpu_started},
    }
    return model, report


def encode(model: AutoencoderModel, data: MtsTensor) -> np.ndarray:
    """Encoder-only pass; works for users never seen in training.

    Returns one row per user: the width-1 latent series (N, T) for uts,
    the latent vector (N, latent_dim) for vec. The tensor must already be
    normalized with the model's statistics (apply_normalization with the
    params stored on the model).
    """
    if not data.normalized:
        raise ValueError("encode expects a normalized tensor")
    if data.n_days != model.seq_len or data.n_features != model.input_dim:
        raise ValueError(
            f"tensor shape (T={data.n_days}, D={data.n_features}) does not match "
            f"model (T={model.seq_len}, D={model.input_dim})"
        )
    enc_seq, _ = lstm_forward_cached(model.encoder, data.values)
    series = enc_seq.reshape(data.n_users, data.n_days)
    if model.variant == "uts":
        return series
    return dense_forward_cached(model.enc_dense, series)[0]


def save_model(model: AutoencoderModel, path) -> None:
    """Versioned checkpoint: JSON header plus float64 parameter blocks."""
    blocks = model.params_dict()
    names = sorted(blocks)
    header = {
        "version": _CKPT_VERSION,
        "config": asdict(model.config),
        "seq_len": model.seq_len,
        "input_dim": model.input_dim,
        "norm_params": model.norm_params.to_dict() if model.norm_params else None,
        "blocks": [{"name": n, "shape": list(blocks[n].shape)} for n in names],
    }
    write_container(path, _CKPT_MAGIC, header, [blocks[n] for n in names])


def _checkpoint_size(header: dict) -> int:
    version = header["version"]
    if version == 1:
        raise ValueError("checkpoint version 1 is no longer supported; retrain")
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return sum(map(_block_size, header["blocks"]))


def _block_size(entry: dict) -> int:
    shape = entry["shape"]
    if not isinstance(shape, list):
        raise ValueError(f"header field 'shape' must be a list, got {shape!r}")
    return math.prod(header_count("shape", dim) for dim in shape)


def load_model(path) -> AutoencoderModel:
    with reading(path):
        header, body = read_container(path, _CKPT_MAGIC, "model checkpoint", _checkpoint_size)
        config = AutoencoderConfig.from_dict(header["config"])
        norm = header["norm_params"]
        norm = NormalizationParams.from_dict(norm) if norm else None
        model = init_model(config, seq_len=header["seq_len"], input_dim=header["input_dim"],
                           rng=None, norm_params=norm)
        blocks = model.params_dict()
        layout = {name: list(block.shape) for name, block in blocks.items()}
        if {entry["name"]: entry["shape"] for entry in header["blocks"]} != layout:
            raise ValueError(f"checkpoint blocks do not match a {config.variant} model "
                             f"with T={model.seq_len}, D={model.input_dim}")
        offset = 0
        for entry in header["blocks"]:
            block = blocks[entry["name"]]
            block[...] = body[offset:offset + block.size].reshape(block.shape)
            offset += block.size
        return model
