from dataclasses import replace
from datetime import date, datetime, timezone

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
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)

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
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest, features=("retweet_count", "num_urls"))
    assert mts.feature_names == ("retweet_count", "num_urls")
    assert np.array_equal(mts.values[0, 0], np.array([1.0, 3.0]))
    assert np.array_equal(mts.values[2, 3], np.array([6.0, 0.0]))
    # Sentinel days stay sentinel in every selected column.
    assert np.array_equal(mts.values[1, 0], np.array([SENTINEL, SENTINEL]))


def test_extract_mts_rejects_unknown_feature():
    records = _hand_fixture()
    timelines, manifest = build_timelines(records)
    with pytest.raises(ValueError):
        extract_mts(timelines, manifest, features=("num_urls", "bogus"))


def test_extract_mts_rejects_duplicate_feature():
    timelines, manifest = build_timelines(_hand_fixture())
    with pytest.raises(ValueError, match="repeat"):
        extract_mts(timelines, manifest, features=("num_urls", "num_urls"))


def test_extract_mts_rejects_tweet_outside_manifest_range():
    timelines, manifest = build_timelines(_hand_fixture())
    short = replace(manifest, day_max=date(2023, 3, 3))
    with pytest.raises(ValueError, match="user carol on 2023-03-04 outside manifest range"):
        extract_mts(timelines, short)


def test_minmax_normalize_hand_values():
    records = _hand_fixture()
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)
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
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)
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


def test_normalize_twice_rejected():
    records = _hand_fixture()
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)
    norm, params = minmax_normalize(mts)
    with pytest.raises(ValueError):
        minmax_normalize(norm)
    with pytest.raises(ValueError):
        apply_normalization(norm, params)


def test_tensor_save_load_roundtrip(tmp_path):
    records = _hand_fixture()
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)
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
    timelines, manifest = build_timelines(records)
    mts = extract_mts(timelines, manifest)
    sub = mts.select_users([2, 0])
    assert sub.user_ids == ["carol", "alice"]
    assert np.array_equal(sub.values[0], mts.values[2])
    assert np.array_equal(sub.values[1], mts.values[0])
