"""Float64 kernels: seeded RNG, RMSProp, gradient clipping, finite differences.

The PRNG is numpy's PCG64 (O'Neill's permuted congruential generator,
128-bit state, as shipped by numpy) so that a given seed yields the same
stream on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seed gives an identical stream.

    PCG64 with numpy's SeedSequence expansion. Streams are reproducible
    across runs and platforms for a fixed numpy major version.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass
class RmspropState:
    """Squared-gradient accumulators plus the optimizer constants.

    rho and epsilon default to the canonical RMSProp values; only the
    learning rate is experiment-specific.
    """

    learning_rate: float
    rho: float = 0.9
    epsilon: float = 1e-8
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def rmsprop_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: RmspropState,
) -> dict[str, np.ndarray]:
    """One RMSProp update over named parameter blocks.

    v <- rho*v + (1-rho)*g^2 ; theta <- theta - lr * g / (sqrt(v) + eps).
    Accumulators live in ``state.v`` keyed like ``params`` and are updated
    in place; missing blocks start at zero. Returns the new parameters.
    """
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient key mismatch: {sorted(missing)}")
    out: dict[str, np.ndarray] = {}
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in block '{name}'")
        if g.shape != params[name].shape:
            raise ValueError(f"shape mismatch in block '{name}': {params[name].shape} vs {g.shape}")
        v = state.v.get(name)
        if v is None:
            v = np.zeros_like(params[name])
        v = state.rho * v + (1.0 - state.rho) * g * g
        state.v[name] = v
        out[name] = params[name] - state.learning_rate * g / (np.sqrt(v) + state.epsilon)
    return out


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Joint L2 norm of all blocks."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all blocks so the joint L2 norm is at most ``max_norm``.
    Returns ``grads`` itself when nothing is scaled (``max_norm <= 0``
    turns clipping off)."""
    if max_norm <= 0.0:
        return grads
    norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}
