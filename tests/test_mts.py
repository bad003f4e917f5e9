from datetime import datetime, timezone

import numpy as np
import pytest

from botclust.ingest import TweetRecord, build_timelines
from botclust.mts import (
    SENTINEL,
    MtsTensor,
    apply_normalization,
    extract_mts,
    load_tensor,
    minmax_normalize,
    save_tensor,
)
from oracles import loop_apply_normalization, loop_minmax_normalize


def _rec(user, day, hour=12, **counts):
    fields = dict(
        num_urls=0,
        num_hashtags=0,
        num_mentions=0,
        retweet_count=0,
        reply_count=0,
        favorite_count=0,
    )
    fields.update(counts)
    return TweetRecord(
        user_id=user,
        timestamp=datetime(2023, 3, day, hour, 0, tzinfo=timezone.utc),
        **fields,
    )


def _hand_fixture():
    """Three users over four days with hand-checkable daily sums.

    alice: two tweets on Mar 1 (sums add up), an all-zero tweet on Mar 3
    (active day, all zeros, NOT a sentinel). bob: one tweet on Mar 2.
    carol: tweets on Mar 1 and Mar 4 (pins the day range).
    """
    records = [
        _rec("alice", 1, 9, num_urls=2, retweet_count=1, favorite_count=5),
        _rec("alice", 1, 20, num_urls=1, num_hashtags=3),
        _rec("alice", 3),
        _rec("bob", 2, num_mentions=4, reply_count=2),
        _rec("carol", 1, favorite_count=1),
        _rec("carol", 4, num_hashtags=2, retweet_count=6),
    ]
    return records


def test_extract_mts_hand_tensor_exact():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))

    s = SENTINEL
    expected = np.array(
        [
            # alice: day sums (urls, hashtags, mentions, rts, replies, favs)
            [[3, 3, 0, 1, 0, 5], [s] * 6, [0, 0, 0, 0, 0, 0], [s] * 6],
            # bob
            [[s] * 6, [0, 0, 4, 0, 2, 0], [s] * 6, [s] * 6],
            # carol
            [[0, 0, 0, 0, 0, 1], [s] * 6, [s] * 6, [0, 2, 0, 6, 0, 0]],
        ],
        dtype=np.float64,
    )
    assert mts.user_ids == ["alice", "bob", "carol"]
    assert mts.values.shape == (3, 4, 6)
    assert np.array_equal(mts.values, expected)
    # The all-zero active day must not look like a sentinel day.
    assert not mts.sentinel_mask()[0, 2]
    assert mts.sentinel_mask()[0, 1]


def test_extract_mts_feature_subset():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records), features=("retweet_count", "num_urls"))
    assert mts.feature_names == ("retweet_count", "num_urls")
    assert np.array_equal(mts.values[0, 0], np.array([1.0, 3.0]))
    assert np.array_equal(mts.values[2, 3], np.array([6.0, 0.0]))
    # Sentinel days stay sentinel in every selected column.
    assert np.array_equal(mts.values[1, 0], np.array([SENTINEL, SENTINEL]))


def test_extract_mts_rejects_unknown_feature():
    with pytest.raises(ValueError):
        extract_mts(build_timelines(_hand_fixture()), features=("num_urls", "bogus"))


def test_extract_mts_rejects_duplicate_feature():
    with pytest.raises(ValueError, match="repeat"):
        extract_mts(build_timelines(_hand_fixture()), features=("num_urls", "num_urls"))


def test_extract_mts_ignores_record_order():
    records = _hand_fixture()
    reference = extract_mts(build_timelines(records)).values
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert extract_mts(build_timelines(shuffled)).values.tobytes() == reference.tobytes()


def test_minmax_normalize_hand_values():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    norm, params = minmax_normalize(mts)

    assert norm.normalized
    # num_urls spans 0..3 over active days -> alice day0 maps to 1.0.
    assert norm.values[0, 0, 0] == pytest.approx(1.0)
    # favorite_count spans 0..5 -> carol day0 value 1 maps to 0.2.
    assert norm.values[2, 0, 5] == pytest.approx(0.2)
    # Sentinels survive untouched.
    assert norm.values[1, 0, 0] == SENTINEL
    # Active zero day maps to 0.
    assert np.all(norm.values[0, 2] == 0.0)
    assert params.mins[0] == 0.0 and params.maxs[0] == 3.0


def test_minmax_constant_feature_maps_to_zero():
    vals = np.full((2, 3, 1), 4.0)
    vals[0, 1, :] = SENTINEL
    mts = MtsTensor(
        values=vals,
        user_ids=["a", "b"],
        feature_names=("num_urls",),
        day_min=None,
    )
    norm, params = minmax_normalize(mts)
    assert params.mins[0] == params.maxs[0] == 4.0
    active = ~norm.sentinel_mask()
    assert np.all(norm.values[active] == 0.0)
    assert norm.values[0, 1, 0] == SENTINEL


def test_apply_normalization_uses_external_stats():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    _, params = minmax_normalize(mts)
    again = apply_normalization(mts, params)
    reference, _ = minmax_normalize(mts)
    assert np.array_equal(again.values, reference.values)
    # Values above the fitted max extrapolate beyond 1 (no clamping).
    boosted = MtsTensor(
        values=mts.values * 2.0 - (mts.values == SENTINEL) * SENTINEL,
        user_ids=list(mts.user_ids),
        feature_names=mts.feature_names,
        day_min=mts.day_min,
    )
    # Keep sentinels intact: recompute directly instead of arithmetic.
    vals = mts.values.copy()
    active = ~mts.sentinel_mask()
    vals[active] *= 2.0
    boosted = MtsTensor(
        values=vals,
        user_ids=list(mts.user_ids),
        feature_names=mts.feature_names,
        day_min=mts.day_min,
    )
    out = apply_normalization(boosted, params)
    assert out.values[0, 0, 0] == pytest.approx(2.0)


def _random_tensor(rng, n, t, scale=10.0, inactive=0.3):
    """Counts with a share of sentinel days; feature 2 is constant (3.0)
    on active days and feature 4 is fractional."""
    values = np.floor(rng.exponential(scale, size=(n, t, 5)))
    values[:, :, 2] = 3.0
    values[:, :, 4] *= 0.37
    values[rng.random((n, t)) < inactive] = SENTINEL
    return MtsTensor(values=values, user_ids=[f"u{i}" for i in range(n)],
                     feature_names=tuple(f"f{j}" for j in range(5)), day_min=None)


def _same_normalization(got, want):
    (norm, params), (loop_norm, loop_params) = got, want
    assert norm.values.tobytes() == loop_norm.values.tobytes()
    assert params.mins.tobytes() == loop_params.mins.tobytes()
    assert params.maxs.tobytes() == loop_params.maxs.tobytes()
    assert (norm.user_ids, norm.feature_names, norm.normalized, norm.kind) == \
        (loop_norm.user_ids, loop_norm.feature_names, loop_norm.normalized, loop_norm.kind)


def test_normalization_equals_the_per_feature_loops_bit_for_bit():
    rng = np.random.default_rng(3)
    fitted = _random_tensor(rng, 40, 30)
    _same_normalization(minmax_normalize(fitted), loop_minmax_normalize(fitted))
    params = minmax_normalize(fitted)[1]
    assert params.mins[2] == params.maxs[2] == 3.0
    # A tensor of sentinels only: min = max = 0, and every day stays -1.
    empty = _random_tensor(rng, 4, 6, inactive=1.0)
    norm, empty_params = minmax_normalize(empty)
    _same_normalization((norm, empty_params), loop_minmax_normalize(empty))
    assert np.all(norm.values == SENTINEL) and not np.any(empty_params.maxs)
    # Unseen users beyond the fitted range, both ways: scaled with the
    # fitted statistics, outside [0, 1], as the loop scales them.
    unseen = _random_tensor(rng, 12, 30, scale=40.0)
    unseen.values[unseen.values == 3.0] = 7.0
    unseen.values[0, 0] = -0.5
    out = apply_normalization(unseen, params)
    assert out.values.max() > 1.0 and out.values[0, 0, 0] < 0.0
    assert np.all(out.values[:, :, 2][~unseen.sentinel_mask()] == 0.0)
    _same_normalization((out, params), (loop_apply_normalization(unseen, params), params))


def test_normalize_twice_rejected():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    norm, params = minmax_normalize(mts)
    with pytest.raises(ValueError):
        minmax_normalize(norm)
    with pytest.raises(ValueError):
        apply_normalization(norm, params)


def test_tensor_save_load_roundtrip(tmp_path):
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    norm, _ = minmax_normalize(mts)
    p = tmp_path / "x.tensor"
    save_tensor(norm, p)
    back = load_tensor(p)
    assert np.array_equal(back.values, norm.values)
    assert back.user_ids == norm.user_ids
    assert back.feature_names == norm.feature_names
    assert back.day_min == norm.day_min
    assert back.normalized == norm.normalized
    assert back.kind == norm.kind


def test_select_users_preserves_rows():
    records = _hand_fixture()
    mts = extract_mts(build_timelines(records))
    sub = mts.select_users([2, 0])
    assert sub.user_ids == ["carol", "alice"]
    assert np.array_equal(sub.values[0], mts.values[2])
    assert np.array_equal(sub.values[1], mts.values[0])
    assert not np.shares_memory(sub.values, mts.values)
    cols = mts.select_features(("favorite_count", "num_urls"))
    assert np.array_equal(cols.values, mts.values[:, :, [5, 0]])
    assert not np.shares_memory(cols.values, mts.values)
