import json
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from botclust.cli import main
from botclust.ingest import (
    FEATURE_NAMES,
    LabelTable,
    ParseError,
    TweetRecord,
    build_timelines,
    load_labels,
    parse_tweets,
    write_tweets_jsonl,
)
from botclust.mts import load_tensor


def _row(user="u1", ts="2023-01-05T10:00:00Z", **over):
    row = {"user_id": user, "timestamp": ts}
    for name in FEATURE_NAMES:
        row[name] = over.get(name, 0)
    return row


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_parse_jsonl_roundtrip_fields(tmp_path):
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(num_urls=3, favorite_count=7)])
    recs = parse_tweets(p)
    assert len(recs) == 1
    assert recs[0].user_id == "u1"
    assert recs[0].num_urls == 3
    assert recs[0].favorite_count == 7
    assert recs[0].timestamp == datetime(2023, 1, 5, 10, 0, tzinfo=timezone.utc)


def test_parse_reports_line_number_on_bad_json(tmp_path):
    p = tmp_path / "t.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(_row()) + "\n")
        fh.write("{not json\n")
    with pytest.raises(ParseError) as err:
        parse_tweets(p)
    assert err.value.line_no == 2


def test_parse_missing_field_raises(tmp_path):
    p = tmp_path / "t.jsonl"
    row = _row()
    del row["retweet_count"]
    _write_jsonl(p, [row])
    with pytest.raises(ParseError, match="retweet_count"):
        parse_tweets(p)


def test_parse_negative_count_drops_row_and_continues(tmp_path):
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(num_urls=-1), _row(user="u2")])
    recs = parse_tweets(p)
    assert [r.user_id for r in recs] == ["u2"]


def test_parse_timezone_normalized_to_utc_day(tmp_path):
    p = tmp_path / "t.jsonl"
    # 23:30 on Jan 5 at +02:00 is 21:30 UTC the same day; 01:00 at -03:00
    # on Jan 6 is 04:00 UTC Jan 6.
    _write_jsonl(
        p,
        [
            _row(ts="2023-01-05T23:30:00+02:00"),
            _row(user="u2", ts="2023-01-06T01:00:00-03:00"),
        ],
    )
    recs = parse_tweets(p)
    assert recs[0].day().isoformat() == "2023-01-05"
    assert recs[1].day().isoformat() == "2023-01-06"


def test_parse_csv_matches_jsonl(tmp_path):
    rows = [_row(num_hashtags=2), _row(user="u2", reply_count=5)]
    pj = tmp_path / "t.jsonl"
    pc = tmp_path / "t.csv"
    _write_jsonl(pj, rows)
    header = ["user_id", "timestamp", *FEATURE_NAMES]
    with open(pc, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[h]) for h in header) + "\n")
    assert parse_tweets(pj) == parse_tweets(pc, format="csv")


def test_parse_csv_missing_header_column(tmp_path):
    p = tmp_path / "t.csv"
    with open(p, "w") as fh:
        fh.write("user_id,timestamp,num_urls\n")
        fh.write("u1,2023-01-05T10:00:00Z,1\n")
    with pytest.raises(ParseError):
        parse_tweets(p, format="csv")


def test_write_tweets_jsonl_roundtrip(tmp_path):
    recs = [
        TweetRecord(
            user_id="a",
            timestamp=datetime(2023, 2, 1, 8, 30, tzinfo=timezone.utc),
            num_urls=1,
            num_hashtags=2,
            num_mentions=3,
            retweet_count=4,
            reply_count=5,
            favorite_count=6,
        )
    ]
    p = tmp_path / "out.jsonl"
    write_tweets_jsonl(recs, p)
    assert parse_tweets(p) == recs


@pytest.mark.parametrize("raw", [float("inf"), float("-inf"), float("nan"), True])
def test_damaged_count_is_parse_error_and_exit_4(tmp_path, caplog, raw):
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(), _row(retweet_count=raw)])
    with pytest.raises(ParseError, match="line 2: count 'retweet_count'") as err:
        parse_tweets(p)
    assert err.value.line_no == 2
    assert main(["extract", "--outdir", str(tmp_path / "out"), "--tweets", str(p)]) == 4
    assert "line 2" in caplog.text


def test_count_beyond_int64_extracts(tmp_path):
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(favorite_count=10**20)])
    out = tmp_path / "out"
    assert main(["extract", "--outdir", str(out), "--tweets", str(p)]) == 0
    assert load_tensor(out / "mts_raw.tensor").values[0, 0, 5] == 1e20


def test_build_timelines_table_columns(tmp_path):
    p = tmp_path / "t.jsonl"
    _write_jsonl(
        p,
        [
            _row(user="b", ts="2023-01-07T10:00:00Z", num_urls=2),
            _row(user="a", ts="2023-01-03T10:00:00Z"),
            _row(user="a", ts="2023-01-05T10:00:00Z", favorite_count=9),
        ],
    )
    table = build_timelines(parse_tweets(p))
    assert table.user_ids == ["a", "b"]
    assert table.day_min == date(2023, 1, 3)
    assert table.num_days == 5
    assert table.rows.tolist() == [1, 0, 0]
    assert table.days.tolist() == [4, 0, 2]
    assert table.counts.dtype == np.float64
    assert table.counts.tolist() == [[2, 0, 0, 0, 0, 0], [0] * 6, [0, 0, 0, 0, 0, 9]]


def test_build_timelines_buckets_on_utc_date():
    def rec(user, ts):
        return TweetRecord(user, ts, 0, 0, 0, 0, 0, 0)

    # 01:00 on Mar 2 at +05:00 is 20:00 UTC on Mar 1.
    table = build_timelines([
        rec("a", datetime(2023, 3, 2, 1, 0, tzinfo=timezone(timedelta(hours=5)))),
        rec("b", datetime(2023, 3, 1, 12, 0, tzinfo=timezone.utc)),
    ])
    assert table.day_min == date(2023, 3, 1)
    assert table.num_days == 1
    assert table.days.tolist() == [0, 0]


def test_build_timelines_rejects_empty():
    with pytest.raises(ValueError):
        build_timelines([])


def class_users(table, class_id):
    return sorted(u for u, c in table.labels.items() if c == class_id)


def test_label_table_requires_dense_classes():
    with pytest.raises(ValueError):
        LabelTable(labels={"a": 0, "b": 2})
    table = LabelTable(labels={"a": 0, "b": 1, "c": 1})
    assert table.num_classes == 2
    assert table.supports() == {0: 1, 1: 2}
    assert class_users(table, 1) == ["b", "c"]


def test_load_labels_csv(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("user_id,class_id\na,0\nb,1\n")
    table = load_labels(p)
    assert table.labels == {"a": 0, "b": 1}


def test_load_labels_rejects_duplicate(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("user_id,class_id\na,0\na,1\n")
    with pytest.raises(ParseError):
        load_labels(p)
