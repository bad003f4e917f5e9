import numpy as np
import pytest

from botclust.numerics import (
    RmspropState,
    clip_global_norm,
    rmsprop_step,
    seeded_rng,
)

from oracles import finite_diff_grad


def test_seeded_rng_reproducible():
    a = seeded_rng(7).normal(size=10)
    b = seeded_rng(7).normal(size=10)
    c = seeded_rng(8).normal(size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rmsprop_single_step_hand_values():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = RmspropState(learning_rate=0.1, rho=0.9, epsilon=1e-8)
    out = rmsprop_step(params, grads, state)
    # v = 0.9*0 + 0.1*4 = 0.4 ; w = 1 - 0.1*2/(sqrt(0.4)+1e-8)
    expected_v = 0.4
    expected_w = 1.0 - 0.1 * 2.0 / (np.sqrt(expected_v) + 1e-8)
    assert state.v["w"][0] == pytest.approx(expected_v, abs=0, rel=1e-15)
    assert out["w"][0] == pytest.approx(expected_w, abs=0, rel=1e-15)


def test_rmsprop_second_step_accumulates():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = RmspropState(learning_rate=0.1, rho=0.9, epsilon=1e-8)
    params = rmsprop_step(params, grads, state)
    params = rmsprop_step(params, {"w": np.array([1.0])}, state)
    expected_v = 0.9 * 0.4 + 0.1 * 1.0
    assert state.v["w"][0] == pytest.approx(expected_v, rel=1e-15)


def test_rmsprop_key_mismatch_raises():
    state = RmspropState(learning_rate=0.1)
    with pytest.raises(ValueError):
        rmsprop_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, state)


def test_rmsprop_nonfinite_gradient_raises():
    state = RmspropState(learning_rate=0.1)
    with pytest.raises(FloatingPointError):
        rmsprop_step({"a": np.zeros(1)}, {"a": np.array([np.nan])}, state)


def test_clip_global_norm_scales_jointly():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm(grads, 1.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert total == pytest.approx(1.0, rel=1e-12)
    assert clipped["a"][0] / clipped["b"][0] == pytest.approx(0.75, rel=1e-12)


def test_clip_global_norm_untouched_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}
    clipped = clip_global_norm(grads, 5.0)
    assert clipped["a"] is grads["a"]


def test_finite_diff_quadratic():
    theta = np.array([1.0, -2.0, 0.5])

    def loss(p):
        return float(np.sum(p**2))

    grad = finite_diff_grad(loss, theta)
    assert np.allclose(grad, 2 * theta, atol=1e-8)
