import numpy as np
import pytest

from botclust.clustering import distance_matrix
from botclust.ingest import GENUINE_CLASS, build_timelines, parse_tweets, write_tweets_jsonl
from botclust.mts import extract_mts
from botclust.synth import BotTemplate, DEFAULT_TEMPLATES, SynthConfig, generate_dataset
from oracles import dumps_write_tweets_jsonl, perdraw_generate_dataset, tables_equal


def test_default_config_population_shape():
    records, labels = generate_dataset(SynthConfig())
    assert labels.num_classes == 3
    supports = labels.supports()
    assert supports[GENUINE_CLASS] == 40
    assert supports[1] == 20
    assert supports[2] == 20
    user_ids = {r.user_id for r in records}
    assert user_ids == set(labels.labels)
    table = build_timelines(records)
    assert len(table.user_ids) == 80
    assert table.num_days <= 64


def test_generation_is_deterministic():
    a, la = generate_dataset(SynthConfig())
    b, lb = generate_dataset(SynthConfig())
    assert a == b
    assert la.labels == lb.labels
    c, _ = generate_dataset(SynthConfig(seed=43))
    assert a != c


_MEANS = (5.0, 2.0, 1.0, 4.0, 2.0, 5.0)

# Each config below runs a different branch of the generator against the
# per-draw oracle.
ORACLE_CONFIGS = {
    "default": SynthConfig(),
    "seed_43": SynthConfig(seed=43),
    # No genuine user is active on either day: each takes the fallback record.
    "genuine_fallback": SynthConfig(n_days=2, genuine_activity_range=(0.0, 0.01)),
    # Tweet indices past 11 move the slot to the next minute.
    "fourteen_per_day": SynthConfig(n_days=30, n_genuine=5, templates=(
        BotTemplate(class_id=1, n_users=4, period=9, feature_means=_MEANS,
                    tweets_per_active_day=14),)),
    # Bots that flip day 0 off and leave day 1 off (16 of these 40) take
    # the bot fallback record.
    "bot_fallback": SynthConfig(n_days=2, n_genuine=2, templates=(
        BotTemplate(class_id=1, n_users=40, period=2, feature_means=_MEANS,
                    flip_prob=0.45),)),
    "no_botnets": SynthConfig(templates=()),
}


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
def test_generation_matches_perdraw_oracle(tmp_path, cfg):
    records, labels = generate_dataset(cfg)
    expected_records, expected_labels = perdraw_generate_dataset(cfg)
    assert records == expected_records
    assert list(labels.labels.items()) == list(expected_labels.labels.items())
    assert all(type(c) is int for rec in records for c in rec.counts())
    write_tweets_jsonl(records, tmp_path / "tweets.jsonl")
    dumps_write_tweets_jsonl(expected_records, tmp_path / "expected.jsonl")
    assert (tmp_path / "tweets.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_roundtrip_through_interchange_format(tmp_path):
    records, _ = generate_dataset(SynthConfig(n_genuine=5, n_days=10))
    p = tmp_path / "tweets.jsonl"
    write_tweets_jsonl(records, p)
    assert tables_equal(parse_tweets(p), build_timelines(records))


def test_no_bot_classes_config():
    cfg = SynthConfig(n_genuine=6, n_days=12, templates=())
    records, labels = generate_dataset(cfg)
    assert labels.labels and set(labels.labels.values()) == {GENUINE_CLASS}
    assert len(set(r.user_id for r in records)) == 6


def test_every_user_has_at_least_one_tweet():
    records, labels = generate_dataset(SynthConfig(n_genuine=10, n_days=8))
    seen = {r.user_id for r in records}
    assert seen == set(labels.labels)


def test_bot_schedule_follows_period():
    template = BotTemplate(
        class_id=1, n_users=3, period=3,
        feature_means=(2.0, 2.0, 2.0, 2.0, 2.0, 2.0),
        flip_prob=0.0, count_noise=0.0,
    )
    cfg = SynthConfig(n_genuine=2, n_days=12, templates=(template,))
    records, labels = generate_dataset(cfg)
    bots = [u for u, c in labels.labels.items() if c == 1]
    day0 = min(r.timestamp.date() for r in records)
    for uid in bots:
        days = sorted({(r.timestamp.date() - day0).days for r in records if r.user_id == uid})
        assert all(d % 3 == 0 for d in days)


def test_template_validation():
    means = (1.0,) * 6
    with pytest.raises(ValueError):
        BotTemplate(class_id=0, n_users=2, period=2, feature_means=means)
    with pytest.raises(ValueError):
        BotTemplate(class_id=1, n_users=2, period=0, feature_means=means)
    with pytest.raises(ValueError):
        BotTemplate(class_id=1, n_users=2, period=2, feature_means=means, flip_prob=0.6)
    with pytest.raises(ValueError):
        BotTemplate(class_id=1, n_users=2, period=2, feature_means=(1.0, 2.0))


def test_config_validation():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SynthConfig(seed=-1)
    with pytest.raises(ValueError):
        SynthConfig(n_days=1)
    with pytest.raises(ValueError):
        SynthConfig(n_genuine=0, templates=())
    # class ids must be dense from 1 for the label table to validate
    with pytest.raises(ValueError):
        t = BotTemplate(class_id=2, n_users=2, period=2, feature_means=(1.0,) * 6)
        generate_dataset(SynthConfig(n_genuine=2, n_days=8, templates=(t,)))


def test_default_templates_differ_in_period_and_profile():
    periods = [t.period for t in DEFAULT_TEMPLATES]
    assert len(set(periods)) == len(periods)
    profiles = [
        tuple(m * t.tweets_per_active_day for m in t.feature_means)
        for t in DEFAULT_TEMPLATES
    ]
    assert len(set(profiles)) == len(profiles)


def test_botnets_tighter_than_genuine_in_raw_series_space():
    """Each botnet's mean within-class distance over the raw daily tensor
    must stay below the genuine crowd's; coordination means similarity."""
    records, labels = generate_dataset(SynthConfig())
    mts = extract_mts(build_timelines(records))
    true = np.array([labels.labels[u] for u in mts.user_ids])
    dist = distance_matrix(mts.values.reshape(mts.n_users, -1))

    def mean_within(class_id):
        idx = np.flatnonzero(true == class_id)
        block = dist[np.ix_(idx, idx)]
        iu = np.triu_indices(len(idx), 1)
        return float(block[iu].mean())

    genuine_spread = mean_within(GENUINE_CLASS)
    for template in DEFAULT_TEMPLATES:
        assert mean_within(template.class_id) < genuine_spread, template.class_id
