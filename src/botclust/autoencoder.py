"""LSTM autoencoder trained full-batch with RMSProp on reconstruction MSE.

Two architectures share the encoder idea (LSTM squeezing D features to a
width-1 hidden sequence):

  uts: LSTM(D->1) sequence latent, LSTM(1->D) sequence reconstruction.
  vec: LSTM(D->1) -> flatten T -> dense T->L (tanh) latent; dense L->T
       (tanh) -> reshape -> LSTM(1->D) reconstruction.

All gradients are hand-derived backpropagation through time; the test
suite checks every layer against central finite differences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .mts import MtsTensor, NormalizationParams, read_container, write_container
from .numerics import RmspropState, clip_global_norm, rmsprop_step, seeded_rng

GATE_ORDER = ("i", "f", "o", "c")

_CKPT_MAGIC = b"BCAECK01"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LstmLayerParams:
    """Gate weights for one LSTM layer.

    W_* map the input to each gate, U_* map the previous hidden state,
    b_* are gate biases. Cell and output activations are tanh, gate
    activations sigmoid.
    """

    input_size: int
    hidden_size: int
    W_i: np.ndarray
    W_f: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    U_i: np.ndarray
    U_f: np.ndarray
    U_o: np.ndarray
    U_c: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    def __post_init__(self):
        for g in GATE_ORDER:
            w = getattr(self, f"W_{g}")
            u = getattr(self, f"U_{g}")
            b = getattr(self, f"b_{g}")
            if w.shape != (self.input_size, self.hidden_size):
                raise ValueError(f"W_{g} shape {w.shape} != ({self.input_size}, {self.hidden_size})")
            if u.shape != (self.hidden_size, self.hidden_size):
                raise ValueError(f"U_{g} shape {u.shape} != ({self.hidden_size}, {self.hidden_size})")
            if b.shape != (self.hidden_size,):
                raise ValueError(f"b_{g} shape {b.shape} != ({self.hidden_size},)")

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LstmLayerParams":
        """Xavier-uniform weights; biases zero except forget gate at 1."""
        def xavier(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        w = {g: xavier(input_size, hidden_size) for g in GATE_ORDER}
        u = {g: xavier(hidden_size, hidden_size) for g in GATE_ORDER}
        b = {g: np.zeros(hidden_size) for g in GATE_ORDER}
        b["f"] = np.ones(hidden_size)
        return cls(
            input_size=input_size,
            hidden_size=hidden_size,
            **{f"W_{g}": w[g] for g in GATE_ORDER},
            **{f"U_{g}": u[g] for g in GATE_ORDER},
            **{f"b_{g}": b[g] for g in GATE_ORDER},
        )

    def blocks(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for g in GATE_ORDER:
            out[f"{prefix}.W_{g}"] = getattr(self, f"W_{g}")
            out[f"{prefix}.U_{g}"] = getattr(self, f"U_{g}")
            out[f"{prefix}.b_{g}"] = getattr(self, f"b_{g}")
        return out

    def load_blocks(self, prefix: str, blocks: dict[str, np.ndarray]) -> None:
        for g in GATE_ORDER:
            setattr(self, f"W_{g}", blocks[f"{prefix}.W_{g}"])
            setattr(self, f"U_{g}", blocks[f"{prefix}.U_{g}"])
            setattr(self, f"b_{g}", blocks[f"{prefix}.b_{g}"])


@dataclass
class DenseLayerParams:
    """Fully connected layer with tanh activation: y = tanh(x W + b)."""

    input_size: int
    output_size: int
    W: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, input_size: int, output_size: int, rng: np.random.Generator) -> "DenseLayerParams":
        limit = np.sqrt(6.0 / (input_size + output_size))
        return cls(
            input_size=input_size,
            output_size=output_size,
            W=rng.uniform(-limit, limit, size=(input_size, output_size)),
            b=np.zeros(output_size),
        )

    def blocks(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}

    def load_blocks(self, prefix: str, blocks: dict[str, np.ndarray]) -> None:
        self.W = blocks[f"{prefix}.W"]
        self.b = blocks[f"{prefix}.b"]


class MissingCacheError(RuntimeError):
    pass


def lstm_forward_cached(layer: LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched LSTM pass over x of shape (N, T, input) with h0 = c0 = 0.

    Returns the full hidden sequence (N, T, hidden) and the cache needed
    for backpropagation through time.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != layer.input_size:
        raise ValueError(f"expected (N, T, {layer.input_size}) input, got {x.shape}")
    n, t, _ = x.shape
    h = layer.hidden_size
    gates = {g: np.empty((n, t, h)) for g in GATE_ORDER}
    cells = np.empty((n, t, h))
    tanh_c = np.empty((n, t, h))
    hidden = np.empty((n, t, h))
    h_prev = np.zeros((n, h))
    c_prev = np.zeros((n, h))
    for step in range(t):
        xt = x[:, step, :]
        zi = xt @ layer.W_i + h_prev @ layer.U_i + layer.b_i
        zf = xt @ layer.W_f + h_prev @ layer.U_f + layer.b_f
        zo = xt @ layer.W_o + h_prev @ layer.U_o + layer.b_o
        zc = xt @ layer.W_c + h_prev @ layer.U_c + layer.b_c
        i_t = _sigmoid(zi)
        f_t = _sigmoid(zf)
        o_t = _sigmoid(zo)
        g_t = np.tanh(zc)
        c_t = f_t * c_prev + i_t * g_t
        tc = np.tanh(c_t)
        h_t = o_t * tc
        gates["i"][:, step] = i_t
        gates["f"][:, step] = f_t
        gates["o"][:, step] = o_t
        gates["c"][:, step] = g_t
        cells[:, step] = c_t
        tanh_c[:, step] = tc
        hidden[:, step] = h_t
        h_prev, c_prev = h_t, c_t
    cache = {"x": x, "gates": gates, "cells": cells, "tanh_c": tanh_c, "hidden": hidden}
    return hidden, cache


def lstm_forward(layer: LstmLayerParams, sequence: np.ndarray, return_sequence: bool = True) -> np.ndarray:
    """Single-sequence LSTM pass: (T, input) to (T, hidden) or (hidden,)."""
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError(f"sequence must be 2-D (T, input), got shape {seq.shape}")
    if seq.shape[0] < 1:
        raise ValueError("sequence length must be at least 1")
    hidden, _ = lstm_forward_cached(layer, seq[np.newaxis])
    return hidden[0] if return_sequence else hidden[0, -1]


def lstm_backward(
    layer: LstmLayerParams,
    cache: dict | None,
    d_out: np.ndarray,
    return_sequence: bool = True,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Full BPTT given the forward cache and upstream hidden-state grads.

    d_out is (N, T, hidden) when return_sequence, else (N, hidden) for the
    last state only. Returns gate/bias gradients keyed W_*/U_*/b_* and the
    gradient with respect to the input sequence.
    """
    if cache is None:
        raise MissingCacheError("lstm_backward needs the cache from lstm_forward_cached")
    x = cache["x"]
    n, t, _ = x.shape
    h = layer.hidden_size
    d_out = np.asarray(d_out, dtype=np.float64)
    if return_sequence:
        if d_out.shape != (n, t, h):
            raise ValueError(f"upstream gradient shape {d_out.shape} != {(n, t, h)}")
        d_hidden = d_out
    else:
        if d_out.shape != (n, h):
            raise ValueError(f"upstream gradient shape {d_out.shape} != {(n, h)}")
        d_hidden = np.zeros((n, t, h))
        d_hidden[:, -1] = d_out

    grads = {f"W_{g}": np.zeros_like(getattr(layer, f"W_{g}")) for g in GATE_ORDER}
    grads.update({f"U_{g}": np.zeros_like(getattr(layer, f"U_{g}")) for g in GATE_ORDER})
    grads.update({f"b_{g}": np.zeros_like(getattr(layer, f"b_{g}")) for g in GATE_ORDER})
    dx = np.zeros_like(x)
    dh_next = np.zeros((n, h))
    dc_next = np.zeros((n, h))
    gates, cells, tanh_c = cache["gates"], cache["cells"], cache["tanh_c"]
    hidden = cache["hidden"]
    for step in range(t - 1, -1, -1):
        i_t = gates["i"][:, step]
        f_t = gates["f"][:, step]
        o_t = gates["o"][:, step]
        g_t = gates["c"][:, step]
        tc = tanh_c[:, step]
        c_prev = cells[:, step - 1] if step > 0 else np.zeros((n, h))
        h_prev = hidden[:, step - 1] if step > 0 else np.zeros((n, h))

        dh = d_hidden[:, step] + dh_next
        do = dh * tc
        dzo = do * o_t * (1.0 - o_t)
        dc = dh * o_t * (1.0 - tc * tc) + dc_next
        df = dc * c_prev
        dzf = df * f_t * (1.0 - f_t)
        di = dc * g_t
        dzi = di * i_t * (1.0 - i_t)
        dg = dc * i_t
        dzc = dg * (1.0 - g_t * g_t)

        xt = x[:, step]
        for g, dz in zip(GATE_ORDER, (dzi, dzf, dzo, dzc)):
            grads[f"W_{g}"] += xt.T @ dz
            grads[f"U_{g}"] += h_prev.T @ dz
            grads[f"b_{g}"] += dz.sum(axis=0)
        dx[:, step] = dzi @ layer.W_i.T + dzf @ layer.W_f.T + dzo @ layer.W_o.T + dzc @ layer.W_c.T
        dh_next = dzi @ layer.U_i.T + dzf @ layer.U_f.T + dzo @ layer.U_o.T + dzc @ layer.U_c.T
        dc_next = dc * f_t
    return grads, dx


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
    input_dim: Optional[int] = None      # data-driven when None
    seq_len: Optional[int] = None        # data-driven when None
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

    def resolved_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.5 if self.variant == "uts" else 2e-4

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "input_dim": self.input_dim,
            "seq_len": self.seq_len,
            "latent_dim": self.latent_dim,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "holdout_fraction": self.holdout_fraction,
            "seed": self.seed,
            "clip_norm": self.clip_norm,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AutoencoderConfig":
        return cls(**d)


@dataclass
class TrainReport:
    train_mse: list[float]
    holdout_mse: list[float]
    final_epoch: int
    seed: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "train_mse": self.train_mse,
            "holdout_mse": self.holdout_mse,
            "final_epoch": self.final_epoch,
            "seed": self.seed,
            "timing": {"wall_time_s": self.wall_time_s},
        }


@dataclass
class AutoencoderModel:
    config: AutoencoderConfig
    seq_len: int
    input_dim: int
    encoder: LstmLayerParams
    decoder: LstmLayerParams
    enc_dense: Optional[DenseLayerParams] = None
    dec_dense: Optional[DenseLayerParams] = None
    norm_params: Optional[NormalizationParams] = None

    @property
    def variant(self) -> str:
        return self.config.variant

    def params_dict(self) -> dict[str, np.ndarray]:
        out = {}
        out.update(self.encoder.blocks("encoder"))
        if self.enc_dense is not None:
            out.update(self.enc_dense.blocks("enc_dense"))
        if self.dec_dense is not None:
            out.update(self.dec_dense.blocks("dec_dense"))
        out.update(self.decoder.blocks("decoder"))
        return out

    def set_params(self, blocks: dict[str, np.ndarray]) -> None:
        self.encoder.load_blocks("encoder", blocks)
        self.decoder.load_blocks("decoder", blocks)
        if self.enc_dense is not None:
            self.enc_dense.load_blocks("enc_dense", blocks)
        if self.dec_dense is not None:
            self.dec_dense.load_blocks("dec_dense", blocks)


def init_model(config: AutoencoderConfig, seq_len: int, input_dim: int,
               rng: np.random.Generator,
               norm_params: NormalizationParams | None = None) -> AutoencoderModel:
    """Build a freshly initialized model. Draw order is fixed (encoder,
    enc_dense, dec_dense, decoder) so a seed pins every weight."""
    encoder = LstmLayerParams.init(input_dim, 1, rng)
    enc_dense = dec_dense = None
    if config.variant == "vec":
        enc_dense = DenseLayerParams.init(seq_len, config.latent_dim, rng)
        dec_dense = DenseLayerParams.init(config.latent_dim, seq_len, rng)
    decoder = LstmLayerParams.init(1, input_dim, rng)
    return AutoencoderModel(
        config=config,
        seq_len=seq_len,
        input_dim=input_dim,
        encoder=encoder,
        decoder=decoder,
        enc_dense=enc_dense,
        dec_dense=dec_dense,
        norm_params=norm_params,
    )


def _forward_cached(model: AutoencoderModel, batch: np.ndarray):
    n, t, d = batch.shape
    enc_seq, enc_cache = lstm_forward_cached(model.encoder, batch)     # (N, T, 1)
    caches = {"encoder": enc_cache}
    if model.variant == "uts":
        latent = enc_seq
        recon, dec_cache = lstm_forward_cached(model.decoder, latent)
        caches["decoder"] = dec_cache
    else:
        flat = enc_seq.reshape(n, t)
        latent, c1 = dense_forward_cached(model.enc_dense, flat)       # (N, L)
        expanded, c2 = dense_forward_cached(model.dec_dense, latent)   # (N, T)
        dec_in = expanded.reshape(n, t, 1)
        recon, dec_cache = lstm_forward_cached(model.decoder, dec_in)
        caches.update({"enc_dense": c1, "dec_dense": c2, "decoder": dec_cache})
    return latent, recon, caches


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
    n = d_recon.shape[0]
    t = model.seq_len
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
    return float(np.mean(diff * diff))


def train(
    config: AutoencoderConfig,
    data: MtsTensor,
    norm_params: NormalizationParams | None = None,
) -> tuple[AutoencoderModel, TrainReport]:
    """Train on a normalized tensor: seeded split, full-batch RMSProp.

    Runs exactly config.epochs optimizer steps on the training split and
    records training and holdout MSE (both measured before each step).
    The holdout curve is monitored only; there is no early stopping.
    """
    if not data.normalized:
        raise ValueError("train expects a normalized tensor; run minmax_normalize first")
    n = data.n_users
    if n < 2:
        raise ValueError("training needs at least 2 users for a holdout split")
    t, d = data.n_days, data.n_features
    if config.seq_len is not None and config.seq_len != t:
        raise ValueError(f"config.seq_len {config.seq_len} != data T {t}")
    if config.input_dim is not None and config.input_dim != d:
        raise ValueError(f"config.input_dim {config.input_dim} != data D {d}")

    rng = seeded_rng(config.seed)
    model = init_model(config, seq_len=t, input_dim=d, rng=rng, norm_params=norm_params)

    perm = rng.permutation(n)
    n_hold = min(max(1, int(round(n * config.holdout_fraction))), n - 1)
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    x_train = data.values[train_idx]
    x_hold = data.values[hold_idx]

    params = model.params_dict()
    opt = RmspropState(learning_rate=config.resolved_lr())
    train_curve: list[float] = []
    hold_curve: list[float] = []
    started = time.perf_counter()
    for epoch in range(config.epochs):
        model.set_params(params)
        latent, recon, caches = _forward_cached(model, x_train)
        loss = mse_loss(recon, x_train)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch + 1}")
        _, hold_recon = forward_autoencoder(model, x_hold)
        hold_loss = mse_loss(hold_recon, x_hold)
        train_curve.append(loss)
        hold_curve.append(hold_loss)
        d_recon = (2.0 / recon.size) * (recon - x_train)
        grads = _backward(model, caches, d_recon)
        grads = clip_global_norm(grads, config.clip_norm)
        params = rmsprop_step(params, grads, opt)
    model.set_params(params)
    report = TrainReport(
        train_mse=train_curve,
        holdout_mse=hold_curve,
        final_epoch=config.epochs,
        seed=config.seed,
        wall_time_s=time.perf_counter() - started,
    )
    return model, report


def encode(model: AutoencoderModel, data: MtsTensor) -> np.ndarray:
    """Encoder-only pass; works for users never seen in training.

    The tensor must already be normalized with the model's statistics
    (apply_normalization with the params stored on the model).
    """
    if not data.normalized:
        raise ValueError("encode expects a normalized tensor")
    if data.n_days != model.seq_len or data.n_features != model.input_dim:
        raise ValueError(
            f"tensor shape (T={data.n_days}, D={data.n_features}) does not match "
            f"model (T={model.seq_len}, D={model.input_dim})"
        )
    enc_seq, _ = lstm_forward_cached(model.encoder, data.values)
    if model.variant == "uts":
        return enc_seq
    flat = enc_seq.reshape(data.n_users, data.n_days)
    latent, _ = dense_forward_cached(model.enc_dense, flat)
    return latent


def save_model(model: AutoencoderModel, path) -> None:
    """Versioned checkpoint: JSON header plus float64 parameter blocks."""
    blocks = model.params_dict()
    names = sorted(blocks)
    header = {
        "version": 1,
        "config": model.config.to_dict(),
        "seq_len": model.seq_len,
        "input_dim": model.input_dim,
        "norm_params": model.norm_params.to_dict() if model.norm_params else None,
        "blocks": [{"name": n, "shape": list(blocks[n].shape)} for n in names],
    }
    write_container(path, _CKPT_MAGIC, header, [blocks[n] for n in names])


def _checkpoint_size(header: dict) -> int:
    if header["version"] != 1:
        raise ValueError(f"unsupported checkpoint version {header['version']}")
    return sum(int(np.prod(entry["shape"])) for entry in header["blocks"])


def load_model(path) -> AutoencoderModel:
    header, body = read_container(path, _CKPT_MAGIC, "model checkpoint", _checkpoint_size)
    blocks = {}
    offset = 0
    for entry in header["blocks"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        blocks[entry["name"]] = body[offset:offset + count].reshape(shape)
        offset += count
    config = AutoencoderConfig.from_dict(header["config"])
    norm = NormalizationParams.from_dict(header["norm_params"]) if header["norm_params"] else None
    rng = seeded_rng(0)
    model = init_model(config, seq_len=header["seq_len"], input_dim=header["input_dim"],
                       rng=rng, norm_params=norm)
    model.set_params(blocks)
    return model


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
