"""Float64 kernels: seeded RNG, RMSProp, gradient clipping.

The PRNG is numpy's PCG64 (O'Neill's permuted congruential generator,
128-bit state, as shipped by numpy) so that a given seed yields the same
stream on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator; identical entropy gives an identical stream.

    PCG64 with numpy's SeedSequence expansion of the entropy words: one
    word gives SeedSequence(seed)'s stream, several a stream per index
    under one seed. Streams are reproducible across runs and platforms
    for a fixed numpy major version.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


# The canonical RMSProp constants; only the learning rate is
# experiment-specific.
RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-8


@dataclass
class RmspropState:
    """The learning rate plus the squared-gradient accumulators."""

    learning_rate: float
    v: dict[str, np.ndarray] = field(default_factory=dict)


def rmsprop_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: RmspropState,
) -> None:
    """One RMSProp update over named parameter blocks, in place.

    v <- rho*v + (1-rho)*g^2 ; theta <- theta - lr * g / (sqrt(v) + eps).
    Each block of ``params`` and its accumulator in ``state.v`` (keyed
    like ``params``; a missing one starts at zero) is stepped in place,
    so every array keeps its identity.
    """
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient key mismatch: {sorted(missing)}")
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in block '{name}'")
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch in block '{name}': {p.shape} vs {g.shape}")
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p)
        v *= RMSPROP_RHO
        v += (1.0 - RMSPROP_RHO) * g * g
        p -= state.learning_rate * g / (np.sqrt(v) + RMSPROP_EPSILON)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Joint L2 norm of all blocks."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float,
                     norm: float) -> dict[str, np.ndarray]:
    """Scale all blocks so the joint L2 norm is at most ``max_norm``;
    ``norm`` is their measured joint norm, ``global_norm(grads)``.
    Returns ``grads`` itself when nothing is scaled (``max_norm <= 0``
    turns clipping off)."""
    if max_norm <= 0.0:
        return grads
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}
