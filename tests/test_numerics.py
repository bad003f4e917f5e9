import numpy as np
import pytest

from botclust.numerics import (
    RmspropState,
    clip_global_norm,
    rmsprop_step,
    seeded_rng,
)

from oracles import finite_diff_grad, out_of_place_rmsprop_step


def test_seeded_rng_reproducible():
    a = seeded_rng(7).normal(size=10)
    b = seeded_rng(7).normal(size=10)
    c = seeded_rng(8).normal(size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("entropy", [(0,), (7,), (2**40,), (42, 0), (42, 79), (1, 2, 3)])
def test_seeded_rng_is_the_seed_sequence_of_its_words(entropy):
    # One word gives the stream of SeedSequence(word), which training has
    # always used; several give SeedSequence([words]), synth's per-user streams.
    seq = np.random.SeedSequence(entropy[0] if len(entropy) == 1 else list(entropy))
    want = np.random.Generator(np.random.PCG64(seq)).integers(0, 2**63, size=8)
    assert np.array_equal(seeded_rng(*entropy).integers(0, 2**63, size=8), want)


def test_rmsprop_single_step_hand_values():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = RmspropState(learning_rate=0.1)
    assert rmsprop_step(params, grads, state) is None
    # v = 0.9*0 + 0.1*4 = 0.4 ; w = 1 - 0.1*2/(sqrt(0.4)+1e-8)
    expected_v = 0.4
    expected_w = 1.0 - 0.1 * 2.0 / (np.sqrt(expected_v) + 1e-8)
    assert state.v["w"][0] == pytest.approx(expected_v, abs=0, rel=1e-15)
    assert params["w"][0] == pytest.approx(expected_w, abs=0, rel=1e-15)


def test_rmsprop_second_step_accumulates():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = RmspropState(learning_rate=0.1)
    rmsprop_step(params, grads, state)
    rmsprop_step(params, {"w": np.array([1.0])}, state)
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


def test_rmsprop_steps_in_place_as_the_out_of_place_step():
    """Seven steps over blocks of several shapes, one step with a zero
    gradient and one with clipped gradients, equal the former out-of-place
    step bit for bit; every parameter and accumulator array stays the
    same object throughout."""
    rng = seeded_rng(29)
    shapes = {"enc.W": (6, 4), "enc.U": (1, 4), "enc.b": (4,), "dense.W": (30, 7), "dense.b": (7,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref_params = {name: p.copy() for name, p in params.items()}
    state, ref_state = RmspropState(learning_rate=0.05), RmspropState(learning_rate=0.05)
    blocks, accumulators = dict(params), {}
    for step in range(7):
        grads = {name: rng.normal(scale=3.0, size=shape) for name, shape in shapes.items()}
        if step == 2:
            grads = {name: np.zeros(shape) for name, shape in shapes.items()}
        if step == 4:
            clipped = clip_global_norm(grads, 1.0)
            assert clipped is not grads
            grads = clipped
        rmsprop_step(params, grads, state)
        ref_params = out_of_place_rmsprop_step(ref_params, grads, ref_state)
        accumulators = accumulators or dict(state.v)
        for name in shapes:
            assert np.array_equal(params[name], ref_params[name]), (step, name)
            assert np.array_equal(state.v[name], ref_state.v[name]), (step, name)
            assert params[name] is blocks[name] and state.v[name] is accumulators[name]


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
