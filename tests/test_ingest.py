import json
import logging
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from botclust.cli import main
from botclust.ingest import (
    CHUNK_ROWS,
    FEATURE_NAMES,
    LabelTable,
    ParseError,
    TweetRecord,
    TweetTable,
    build_timelines,
    load_labels,
    parse_tweets,
    write_tweets_jsonl,
)
from botclust.mts import load_tensor
from oracles import rowwise_parse_tweets, rowwise_table, tables_equal


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
    table = parse_tweets(p)
    assert len(table) == 1
    assert table.user_ids == ["u1"]
    assert table.counts.tolist() == [[3, 0, 0, 0, 0, 7]]
    assert table.day_min == date(2023, 1, 5)
    assert table.days.tolist() == [0]


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
    table = parse_tweets(p)
    assert len(table) == 1
    assert table.user_ids == ["u2"]


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
    table = parse_tweets(p)
    assert table.day_min == date(2023, 1, 5)
    assert table.days.tolist() == [0, 1]


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
    assert tables_equal(parse_tweets(pj), parse_tweets(pc, format="csv"))


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
    assert json.loads(p.read_text())["timestamp"] == "2023-02-01T08:30:00Z"
    assert tables_equal(parse_tweets(p), build_timelines(recs))


@pytest.mark.parametrize(
    "raw", [float("inf"), float("-inf"), float("nan"), True, pytest.param(10**400, id="1e400")]
)
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
    def rec(user, day, urls=0, favorites=0):
        return TweetRecord(user, datetime(2023, 1, day, 10, tzinfo=timezone.utc),
                           urls, 0, 0, 0, 0, favorites)

    records = [rec("b", 7, urls=2), rec("a", 3), rec("a", 5, favorites=9)]
    p = tmp_path / "t.jsonl"
    write_tweets_jsonl(records, p)
    table = parse_tweets(p)
    assert tables_equal(table, build_timelines(records))
    assert len(table) == 3
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


def test_build_timelines_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        build_timelines([])
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(num_urls=-1)])
    with pytest.raises(ValueError):
        parse_tweets(p)
    p.write_text("\n")
    with pytest.raises(ValueError):
        parse_tweets(p)


def _outcome(parse, path, format, caplog):
    """The table or ParseError a parse gives, with the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="botclust.ingest"):
        try:
            result = parse(path, format)
        except ParseError as exc:
            result = exc
    return result, list(caplog.messages)


def _assert_matches_rowwise(path, caplog, format="jsonl"):
    expected, expected_log = _outcome(
        lambda p, f: rowwise_table(rowwise_parse_tweets(p, f)), path, format, caplog)
    got, got_log = _outcome(parse_tweets, path, format, caplog)
    if isinstance(expected, ParseError):
        assert isinstance(got, ParseError), got
        assert (got.line_no, str(got)) == (expected.line_no, str(expected))
    else:
        assert isinstance(got, TweetTable), got
        assert tables_equal(got, expected)
    assert got_log == expected_log


def _line(**over):
    return json.dumps(_row(**over))


# One middle row per case, between two canonical rows. Each must parse to
# the row-wise parse's table, or fail with its line number and message.
ROWWISE_CASES = {
    "offset_plus": _line(ts="2023-01-05T23:30:00+02:00"),
    "offset_minus": _line(ts="2023-01-06T01:00:00-03:00"),
    "offset_zero": _line(ts="2023-01-05T10:00:00+00:00"),
    "offset_crosses_day": _line(ts="2023-01-06T01:00:00+05:00"),
    "no_zone": _line(ts="2023-01-05T10:00:00"),
    "lowercase_z": _line(ts="2023-01-05T10:00:00z"),
    "fraction": _line(ts="2023-01-05T10:00:00.750Z"),
    "whitespace": _line(ts="  2023-01-05T10:00:00Z "),
    "space_separator": _line(ts="2023-01-05 10:00:00Z"),
    # numpy reads the offset inside the first 19 characters (and warns);
    # only the round trip keeps the row off the fast path.
    "offset_before_z": pytest.param(
        _line(ts="2023-01-05T10:00+01Z"),
        marks=pytest.mark.filterwarnings("ignore:no explicit representation of timezones")),
    "letter_separator": _line(ts="2023-01-05X10:00:00Z"),
    "year_0": _line(ts="0000-01-01T00:00:00Z"),
    "year_1": _line(ts="0001-01-01T00:00:00Z"),
    "before_1970": _line(ts="1969-12-31T23:59:59Z"),
    "year_9999": _line(ts="9999-12-31T23:59:59Z"),
    "feb29_leap": _line(ts="2024-02-29T12:00:00Z"),
    "feb29_nonleap": _line(ts="2023-02-29T12:00:00Z"),
    "hour_24": _line(ts="2023-01-05T24:00:00Z"),
    "second_60": _line(ts="2016-12-31T23:59:60Z"),
    "numeric_timestamp": _line(ts=20230105),
    "float_count": _line(retweet_count=3.0),
    "fractional_count": _line(retweet_count=3.5),
    "bool_count": _line(retweet_count=True),
    "string_count": _line(retweet_count="3"),
    "nan_count": _line(retweet_count=float("nan")),
    "infinite_count": _line(retweet_count=float("inf")),
    "count_2e53_plus_1": _line(favorite_count=2**53 + 1),
    "count_2e63_plus_1": _line(favorite_count=2**63 + 1),
    "count_1e20": _line(favorite_count=10**20),
    "numeric_user": _line(user=123),
    "empty_user": _line(user=""),
    "null_user": _line(user=None),
    "null_timestamp": _line(ts=None),
    "null_count": _line(reply_count=None),
    "missing_count": json.dumps({k: v for k, v in _row().items() if k != "reply_count"}),
    "negative": _line(num_mentions=-2),
    "negative_and_float": _line(num_urls=-1, favorite_count=2.0),
    "blank_lines": "\n   \n" + _line(user="u3"),
    "not_an_object": "[1, 2]",
    "bad_json": "{not json",
}


@pytest.mark.parametrize("middle", ROWWISE_CASES.values(), ids=ROWWISE_CASES.keys())
def test_parse_matches_rowwise_oracle(tmp_path, caplog, middle):
    p = tmp_path / "t.jsonl"
    p.write_text("\n".join([_line(user="a", ts="2023-01-04T08:00:00Z", num_urls=1), middle,
                            _line(user="z", ts="2023-01-09T23:59:59Z", reply_count=4)]) + "\n")
    _assert_matches_rowwise(p, caplog)


@pytest.mark.parametrize("counts", [("1", "2"), ("-1", "0"), ("1.0", "0"), ("x", "0")])
def test_parse_csv_matches_rowwise_oracle(tmp_path, caplog, counts):
    header = ["user_id", "timestamp", *FEATURE_NAMES]
    rows = [
        ["a", "2023-01-04T08:00:00Z", "1", "0", "0", "0", "0", "0"],
        ["b", "2023-01-05T23:30:00+02:00", *counts, "0", "0", "0", "0"],
        ["7", "2023-01-06T10:00:00Z", "0", "0", "3", "0", "0", "0"],
    ]
    p = tmp_path / "t.csv"
    p.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    _assert_matches_rowwise(p, caplog, format="csv")


def _two_chunk_file(path, special):
    """2 * CHUNK_ROWS + 5 canonical rows over 9 users and 40 days, with
    the lines named in ``special`` (1-based line number -> text) replaced."""
    lines = [
        _line(user=f"u{i % 9}", ts=f"2023-02-{1 + i % 28:02d}T{i % 24:02d}:00:00Z",
              num_urls=i % 3, favorite_count=i % 11)
        for i in range(2 * CHUNK_ROWS + 5)
    ]
    for line_no, text in special.items():
        lines[line_no - 1] = text
    path.write_text("\n".join(lines) + "\n")


CHUNK_CASES = {
    "negative_last_of_chunk_1": {CHUNK_ROWS: _line(user="neg", num_urls=-1)},
    "offset_first_of_chunk_2": {CHUNK_ROWS + 1: _line(user="off", ts="2023-03-31T23:00:00-02:00")},
    "bad_first_of_chunk_2": {CHUNK_ROWS + 1: _line(retweet_count="many")},
    "bad_count_before_bad_timestamp": {
        CHUNK_ROWS + 10: _line(retweet_count=2.5),
        CHUNK_ROWS + 20: _line(ts="2023-13-01T00:00:00Z"),
    },
    "bad_timestamp_before_bad_count": {
        CHUNK_ROWS + 10: _line(ts="2023-13-01T00:00:00Z"),
        CHUNK_ROWS + 20: _line(retweet_count=2.5),
    },
    "bad_count_before_bad_json": {
        CHUNK_ROWS + 10: _line(retweet_count=None),
        CHUNK_ROWS + 20: "{not json",
    },
    "negative_before_bad_last_line": {
        2 * CHUNK_ROWS - 1: _line(user="neg", reply_count=-3),
        2 * CHUNK_ROWS + 5: _line(ts="2023-01-05T10:00:00ZZ"),
    },
}


@pytest.mark.parametrize("special", CHUNK_CASES.values(), ids=CHUNK_CASES.keys())
def test_parse_matches_rowwise_oracle_across_chunks(tmp_path, caplog, special):
    p = tmp_path / "t.jsonl"
    _two_chunk_file(p, special)
    _assert_matches_rowwise(p, caplog)


def test_canonical_parse_builds_no_tweet_record(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("TweetRecord built while parsing")

    p = tmp_path / "t.jsonl"
    _two_chunk_file(p, {7: _line(user="neg", num_urls=-1)})
    monkeypatch.setattr(TweetRecord, "__init__", refuse)
    assert len(parse_tweets(p)) == 2 * CHUNK_ROWS + 4


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
