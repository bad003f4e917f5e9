import json
import logging
import time
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from botclust import ingest
from botclust.cli import main
from botclust.clustering import load_assignment_csv
from botclust.globalfeats import load_features_csv
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
from oracles import dumps_write_tweets_jsonl, rowwise_parse_tweets, rowwise_table, tables_equal


def _row(user="u1", ts="2023-01-05T10:00:00Z", **over):
    row = {"user_id": user, "timestamp": ts}
    for name in FEATURE_NAMES:
        row[name] = over.get(name, 0)
    return row


def _line(**over):
    return json.dumps(_row(**over))


def _compact_line(**over):
    """``_line`` with json.dumps's compact separators."""
    return json.dumps(_row(**over), separators=(",", ":"))


def _raw_line(**over):
    """``_line`` with non-ASCII and DEL characters written raw, not escaped."""
    return json.dumps(_row(**over), ensure_ascii=False)


def _with_count(text):
    """A canonical line whose retweet_count is the raw JSON ``text``."""
    return _line().replace('"retweet_count": 0', f'"retweet_count": {text}')


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


def test_write_converts_aware_timestamp_to_utc(tmp_path):
    # 01:00 on Mar 2 at +05:00 is 20:00 UTC on Mar 1.
    rec = TweetRecord("a", datetime(2023, 3, 2, 1, 0, tzinfo=timezone(timedelta(hours=5))),
                      0, 0, 0, 0, 0, 0)
    p = tmp_path / "out.jsonl"
    write_tweets_jsonl([rec], p)
    assert json.loads(p.read_text())["timestamp"] == "2023-03-01T20:00:00Z"
    assert tables_equal(parse_tweets(p), build_timelines([rec]))


@pytest.mark.parametrize("year", [1, 999, 1000, 9999])
def test_write_roundtrip_four_digit_year(tmp_path, year):
    rec = TweetRecord("a", datetime(year, 5, 1, tzinfo=timezone.utc), 1, 0, 0, 0, 0, 0)
    p = tmp_path / "out.jsonl"
    write_tweets_jsonl([rec], p)
    assert json.loads(p.read_text())["timestamp"] == f"{year:04d}-05-01T00:00:00Z"
    assert tables_equal(parse_tweets(p), build_timelines([rec]))


def test_write_matches_dumps_oracle(tmp_path):
    def rec(user_id="a", ts=datetime(2023, 2, 1, 8, 30, tzinfo=timezone.utc), count=0):
        return TweetRecord(user_id, ts, 1, 2, 3, count, 0, 6)

    # Each case between plain records, so a file mixes both kinds of line.
    cases = [
        rec('a"b'), rec("a\\b"), rec("\u00e9"), rec("x\ty"), rec(7),
        rec(ts=datetime(2023, 3, 2, 1, 0, tzinfo=timezone(timedelta(hours=5)))),
        rec(ts=datetime(2023, 3, 2, 1, 0)),
        rec(count=10**20),
    ]
    records = [r for case in cases for r in (rec(), case)]
    # 'a"b' also first and at CHUNK_ROWS, so the id memo is read across chunks.
    records = [rec('a"b'), *records]
    records += [rec()] * (CHUNK_ROWS - len(records)) + [rec('a"b')]
    write_tweets_jsonl(records, tmp_path / "out.jsonl")
    dumps_write_tweets_jsonl(records, tmp_path / "expected.jsonl")
    written = (tmp_path / "out.jsonl").read_bytes()
    assert written == (tmp_path / "expected.jsonl").read_bytes()


def test_write_refuses_an_id_parse_would_change(tmp_path):
    ids = ['a"b', "a\\b", "\u00e9", "x\ty", 7]
    records = [TweetRecord(uid, datetime(2023, 2, 1, tzinfo=timezone.utc), 1, 0, 0, 0, 0, 0)
               for uid in ids]
    p = tmp_path / "out.jsonl"
    write_tweets_jsonl(records, p)
    assert parse_tweets(p).user_ids == sorted(str(uid) for uid in ids)
    # Refused for the id whatever the counts are.
    for bad in (" u0", " "):
        for rec in (records[0], records[0]._replace(num_urls=True)):
            with pytest.raises(ValueError, match=repr(bad)):
                write_tweets_jsonl([rec._replace(user_id=bad)], p)


@pytest.mark.parametrize("user_id, count", [
    pytest.param(None, 0, id="none_id"),
    pytest.param("u1", True, id="bool_count"),
    pytest.param("u1", 2.5, id="fraction_count"),
    pytest.param("u1", 2.0, id="integral_float_count"),
    pytest.param("u7", np.int64(1), id="numpy_count"),
])
def test_write_refuses_a_record_parse_would_refuse_or_read_slowly(tmp_path, user_id, count):
    rec = TweetRecord(user_id, datetime(2023, 2, 1, tzinfo=timezone.utc), 1, 0, 0, count, 0, 0)
    with pytest.raises(ValueError, match=repr(user_id)):
        write_tweets_jsonl([rec], tmp_path / "out.jsonl")


@pytest.mark.parametrize("existing", [None, b"earlier bytes\n"], ids=["new", "existing"])
def test_refused_write_leaves_no_partial_file(tmp_path, existing):
    p = tmp_path / "out.jsonl"
    if existing is not None:
        p.write_bytes(existing)
    good = TweetRecord("u0", datetime(2023, 2, 1, tzinfo=timezone.utc), 1, 0, 0, 0, 0, 0)
    # Refused in the second chunk, after the first is written.
    with pytest.raises(ValueError, match="' u0'"):
        write_tweets_jsonl([good] * CHUNK_ROWS + [good._replace(user_id=" u0")], p)
    assert sorted(tmp_path.iterdir()) == ([] if existing is None else [p])
    if existing is not None:
        assert p.read_bytes() == existing


@pytest.fixture
def kolkata_local_time(monkeypatch):
    """The process's local zone set to UTC+05:30 for one test."""
    monkeypatch.setenv("TZ", "Asia/Kolkata")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_naive_timestamp_is_utc_on_both_paths(tmp_path, kolkata_local_time):
    # Read as local time, naive 01:00 on Mar 2 would be 19:30 UTC on Mar 1.
    rec = TweetRecord("a", datetime(2023, 3, 2, 1, 0), 0, 0, 0, 0, 0, 0)
    p = tmp_path / "out.jsonl"
    write_tweets_jsonl([rec], p)
    table = build_timelines([rec])
    assert table.day_min == date(2023, 3, 2)
    assert tables_equal(parse_tweets(p), table)


@pytest.mark.parametrize("line, message", [
    pytest.param(_line(ts="0001-01-01T00:30:00+01:00"), "bad timestamp", id="offset_before_year_1"),
    pytest.param(_line(ts="9999-12-31T23:30:00-01:00"), "bad timestamp", id="offset_past_year_9999"),
    pytest.param(_with_count("9" * 4301), "invalid JSON", id="count_4301_digits"),
])
def test_undecodable_row_is_line_numbered_and_exit_4(tmp_path, caplog, line, message):
    p = tmp_path / "t.jsonl"
    p.write_text(_line() + "\n" + line + "\n")
    with pytest.raises(ParseError, match=f"line 2: {message}") as err:
        parse_tweets(p)
    assert err.value.line_no == 2
    assert main(["extract", "--outdir", str(tmp_path / "out"), "--tweets", str(p)]) == 4
    assert f"input error: {p}: line 2: {message}" in caplog.text


@pytest.mark.parametrize(
    "raw", [float("inf"), float("-inf"), float("nan"), True, pytest.param(10**400, id="1e400")]
)
def test_damaged_count_is_parse_error_and_exit_4(tmp_path, caplog, raw):
    p = tmp_path / "t.jsonl"
    _write_jsonl(p, [_row(), _row(retweet_count=raw)])
    with pytest.raises(ParseError, match="line 2: count 'retweet_count'") as err:
        parse_tweets(p)
    assert (err.value.path, err.value.line_no) == (p, 2)
    assert main(["extract", "--outdir", str(tmp_path / "out"), "--tweets", str(p)]) == 4
    assert f"input error: {p}: line 2: count 'retweet_count'" in caplog.text


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
    """The table or input error a parse gives, with the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="botclust.ingest"):
        try:
            result = parse(path, format)
        except (ParseError, UnicodeDecodeError) as exc:
            result = exc
    return result, list(caplog.messages)


def _first_undecodable_line(path):
    for line_no, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no


def _assert_matches_rowwise(path, caplog, format="jsonl"):
    expected, expected_log = _outcome(
        lambda p, f: rowwise_table(rowwise_parse_tweets(p, f)), path, format, caplog)
    got, got_log = _outcome(parse_tweets, path, format, caplog)
    if isinstance(expected, ParseError):
        assert isinstance(got, ParseError), got
        # The oracle reads no file under reading, so its error and warnings name none.
        assert (got.line_no, str(got)) == (expected.line_no, f"{path}: {expected}")
    elif isinstance(expected, UnicodeDecodeError):
        # The row-wise parse lets the decoder's error through; the parse
        # names the line of the first byte that is not UTF-8.
        assert isinstance(got, ParseError), got
        assert got.line_no == _first_undecodable_line(path)
    else:
        assert isinstance(got, TweetTable), got
        assert tables_equal(got, expected)
    assert got_log == [f"{path}: {message}" for message in expected_log]


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
    "fraction_offset_crosses_day": _line(ts="2023-01-05T23:59:59.999999-00:30"),
    "whitespace": _line(ts="  2023-01-05T10:00:00Z "),
    "space_separator": _line(ts="2023-01-05 10:00:00Z"),
    # numpy would read the offset inside the first 19 characters.
    "offset_before_z": _line(ts="2023-01-05T10:00+01Z"),
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
    "blank_user": _line(user=" \t "),
    "padded_user_raw_ideographic_space": _raw_line(user="u0\u3000"),
    "padded_negative_user": _line(user=" neg ", num_mentions=-2),
    "null_user": _line(user=None),
    "null_timestamp": _line(ts=None),
    "null_count": _line(reply_count=None),
    "missing_count": json.dumps({k: v for k, v in _row().items() if k != "reply_count"}),
    "negative": _line(num_mentions=-2),
    "negative_and_float": _line(num_urls=-1, favorite_count=2.0),
    "blank_lines": "\n   \n" + _line(user="u3"),
    "not_an_object": "[1, 2]",
    "bad_json": "{not json",
    # Near misses of write_tweets_jsonl's layout: the pattern path must
    # either leave them to the row validator or read what json.loads reads.
    "user_escaped_quote": _line(user='a"b'),
    "user_escaped_e_acute": _line(user="é"),
    # ASCII JSON text that decodes to a lone surrogate, not an undecodable byte.
    "user_escaped_surrogate": _line(user="u\udcff"),
    "user_raw_e_acute": _raw_line(user="é"),
    "user_raw_tab": _line(user="a\tb").replace("\\t", "\t"),
    "user_raw_del": _raw_line(user="a\x7fb"),
    "user_raw_line_separator": _raw_line(user="a\u2028b"),
    "arabic_indic_timestamp": _line(ts="٢٠٢٣-٠١-٠٥T10:00:00Z"),
    "arabic_indic_count": _with_count("1٣"),
    "count_leading_zero": _with_count("01"),
    "count_minus_zero": _with_count("-0"),
    "count_15_digits": _line(favorite_count=10**15 - 1),
    "count_16_digits": _line(favorite_count=10**16 - 1),
    "crlf": _line() + "\r",
    "trailing_space": _line() + " ",
    "compact_separators": _compact_line(),
    "tab_separators": json.dumps(_row(), separators=(",\t", ":\t")),
    "two_spaces": json.dumps(_row(), separators=(",  ", ":  ")),
    "lone_cr_between_rows": _line(user="m") + "\r" + _line(user="n"),
    "reordered_keys": json.dumps(_row(), sort_keys=True),
    "duplicate_count": _line()[:-1] + ', "favorite_count": 5}',
}


# Near misses of the compact layout, between two compact rows.
COMPACT_CASES = {
    "canonical": _compact_line(user="m"),
    "crlf": _compact_line() + "\r",
    "user_escaped_quote": _compact_line(user='a"b'),
    "user_raw_tab": _compact_line(user="a\tb").replace("\\t", "\t"),
    "arabic_indic_count": _compact_line().replace('"retweet_count":0', '"retweet_count":1٣'),
    "count_leading_zero": _compact_line().replace('"retweet_count":0', '"retweet_count":01'),
    "count_16_digits": _compact_line(favorite_count=10**16 - 1),
    "month_13": _compact_line(ts="2023-13-01T00:00:00Z"),
    "offset": _compact_line(ts="2023-01-05T23:30:00+02:00"),
    "negative": _compact_line(num_mentions=-2),
    "space_after_colon_only": json.dumps(_row(), separators=(",", ": ")),
    "default_separators": _line(),
    "trailing_space": _compact_line() + " ",
}


def _three_line_file(path, middle, line):
    path.write_text("\n".join([line(user="a", ts="2023-01-04T08:00:00Z", num_urls=1), middle,
                               line(user="z", ts="2023-01-09T23:59:59Z", reply_count=4)]) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("middle", ROWWISE_CASES.values(), ids=ROWWISE_CASES.keys())
def test_parse_matches_rowwise_oracle(tmp_path, caplog, middle):
    p = tmp_path / "t.jsonl"
    _three_line_file(p, middle, _line)
    _assert_matches_rowwise(p, caplog)


@pytest.mark.parametrize("middle", COMPACT_CASES.values(), ids=COMPACT_CASES.keys())
def test_compact_parse_matches_rowwise_oracle(tmp_path, caplog, middle):
    p = tmp_path / "t.jsonl"
    _three_line_file(p, middle, _compact_line)
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


# A first line, then a row whose user id has blanks around it.
PADDED_ID_FILES = {
    "spaced": ("jsonl", _line(), _line(user=" u0 ")),
    "compact": ("jsonl", _compact_line(), _compact_line(user=" u0")),
    "reordered_keys": ("jsonl", _line(), json.dumps(_row(user="u0 "), sort_keys=True)),
    "csv": ("csv", ",".join(["user_id", "timestamp", *FEATURE_NAMES]),
            "\tu0 ,2023-01-05T10:00:00Z,0,0,0,0,0,0"),
}


@pytest.mark.parametrize("format, first, row", PADDED_ID_FILES.values(), ids=PADDED_ID_FILES)
def test_padded_tweet_id_is_stripped_as_table_ids_are(tmp_path, caplog, format, first, row):
    p = tmp_path / f"t.{format}"
    p.write_text(f"{first}\n{row}\n", encoding="utf-8")
    assert "u0" in parse_tweets(p, format=format).user_ids
    _assert_matches_rowwise(p, caplog, format)
    # Only blanks is no id at all.
    p.write_text(f"{first}\n{row.replace('u0', ' ')}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing field 'user_id'") as err:
        parse_tweets(p, format=format)
    assert err.value.line_no == 2


# A header and two rows laid out so that the rows' line numbers move with
# blank lines and with a line break quoted in a field.
CSV_LAYOUTS = {
    "blank_lines": lambda h, a, b: f"{h}\n\n{a}\n\n\n{b}\n",
    "quoted_line_break": lambda h, a, b: f'{h}\n"x\ny"{a[1:]}\n{b}\n',
    "wide_row_after_blank": lambda h, a, b: f"{h}\n{a}\n\n{b},9\n",
}


@pytest.mark.parametrize("layout", CSV_LAYOUTS)
@pytest.mark.parametrize("counts", [("1", "2"), ("-1", "0"), ("x", "0")])
def test_parse_csv_line_numbers_match_rowwise_oracle(tmp_path, caplog, counts, layout):
    header = ",".join(["user_id", "timestamp", *FEATURE_NAMES])
    a = "a,2023-01-04T08:00:00Z,1,0,0,0,0,0"
    b = ",".join(["b", "2023-01-05T10:00:00Z", *counts, "0", "0", "0", "0"])
    p = tmp_path / "t.csv"
    p.write_text(CSV_LAYOUTS[layout](header, a, b))
    _assert_matches_rowwise(p, caplog, format="csv")


def _two_chunk_file(path, special, line=_line, newline="\n"):
    """2 * CHUNK_ROWS + 5 canonical rows over 9 users and 40 days, with
    the lines named in ``special`` (1-based line number -> text) replaced."""
    lines = [
        line(user=f"u{i % 9}", ts=f"2023-02-{1 + i % 28:02d}T{i % 24:02d}:00:00Z",
             num_urls=i % 3, favorite_count=i % 11)
        for i in range(2 * CHUNK_ROWS + 5)
    ]
    for line_no, text in special.items():
        lines[line_no - 1] = text
    path.write_bytes((newline.join(lines) + newline).encode())


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


@pytest.mark.parametrize("format", ["jsonl", "csv"])
@pytest.mark.parametrize("early", ["negative", "string_count", "missing_count"])
def test_rows_before_undecodable_byte_match_rowwise_oracle(tmp_path, caplog, format, early):
    # The 0xff byte sits far past the first 8 KiB the reader decodes at once.
    header = ["user_id", "timestamp", *FEATURE_NAMES]
    rows = [_row(user=f"u{i}") for i in range(300)]
    rows[1] = {"negative": _row(num_urls=-1), "string_count": _row(retweet_count="x"),
               "missing_count": {k: v for k, v in _row().items() if k != "reply_count"}}[early]
    if format == "jsonl":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        text = ",".join(header) + "\n" + "".join(
            ",".join(str(row.get(h, "")) for h in header) + "\n" for row in rows)
    p = tmp_path / "t.jsonl"
    p.write_bytes(text.encode() + b"\xff\n")
    _assert_matches_rowwise(p, caplog, format=format)


def _undecodable_last_line_file(path, format, last_row=None):
    """300 lines of rows (for CSV a header, then 299 rows), the last one
    ``last_row`` if given, and then a lone 0xff byte on line 301."""
    rows = [_row(user=f"u{i}") for i in range(300 if format == "jsonl" else 299)]
    if last_row is not None:
        rows[-1] = last_row
    if format == "jsonl":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        header = ["user_id", "timestamp", *FEATURE_NAMES]
        text = ",".join(header) + "\n" + "".join(
            ",".join(str(row[h]) for h in header) + "\n" for row in rows)
    path.write_bytes(text.encode() + b"\xff\n")


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_undecodable_byte_is_line_numbered_and_exit_4(tmp_path, caplog, format):
    p = tmp_path / "t.txt"
    _undecodable_last_line_file(p, format)
    with pytest.raises(ParseError, match="line 301: byte 0xff is not UTF-8") as err:
        parse_tweets(p, format=format)
    assert err.value.line_no == 301
    assert main(["extract", "--outdir", str(tmp_path / "out"), "--tweets", str(p),
                 "--format", format]) == 4
    assert f"input error: {p}: line 301: byte 0xff" in caplog.text


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_bad_row_in_undecodable_block_is_reported_first(tmp_path, format):
    # Line 300 sits in the 8 KiB block the reader fails to decode.
    p = tmp_path / "t.txt"
    _undecodable_last_line_file(p, format, last_row=_row(retweet_count="x"))
    with pytest.raises(ParseError, match="line 300: count 'retweet_count'"):
        parse_tweets(p, format=format)


@pytest.mark.parametrize("line", [_line, _compact_line], ids=["default", "compact"])
def test_raw_undecodable_byte_in_canonical_id_is_line_numbered(tmp_path, line):
    # A canonical line but for a raw 0xff byte inside its id, in the second
    # chunk: the pattern scan must not read it as the user 'u\udcff'.
    p = tmp_path / "t.jsonl"
    _two_chunk_file(p, {CHUNK_ROWS + 3: line(user="u@")}, line=line)
    p.write_bytes(p.read_bytes().replace(b'"u@"', b'"u\xff"'))
    with pytest.raises(ParseError, match=f"line {CHUNK_ROWS + 3}: byte 0xff is not UTF-8"):
        parse_tweets(p)


def _record_decoded(monkeypatch):
    """The lines ``parse_tweets`` decodes with json.loads, as it decodes them."""
    decoded = []

    def loads(line):
        decoded.append(line)
        return json.loads(line)

    monkeypatch.setattr(ingest, "json", SimpleNamespace(loads=loads))
    return decoded


@pytest.mark.parametrize("line", [_line, _compact_line], ids=["default", "compact"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final_newline", "no_final_newline"])
def test_canonical_file_decodes_no_line(tmp_path, caplog, monkeypatch, line, newline,
                                        final_newline):
    p = tmp_path / "t.jsonl"
    _two_chunk_file(p, {}, line, newline)
    if not final_newline:
        p.write_bytes(p.read_bytes()[:-len(newline)])
    decoded = _record_decoded(monkeypatch)
    _assert_matches_rowwise(p, caplog)
    assert decoded == []


# A block size that puts two or three lines in a block, so a small file
# spans many blocks.
SMALL_BLOCK = 300


def _small_block_file(path, special, line=_line, newline="\n"):
    """40 canonical rows over 5 users and 12 days, with the lines named in
    ``special`` (1-based line number -> text) replaced."""
    lines = [line(user=f"u{i % 5}", ts=f"2023-03-{1 + i % 12:02d}T{i % 24:02d}:{i:02d}:59Z",
                  num_urls=i % 3, favorite_count=10**14 + i)
             for i in range(40)]
    for line_no, text in special.items():
        lines[line_no - 1] = text
    path.write_bytes((newline.join(lines) + newline).encode())


def _expected_blocks(path, block_chars):
    """A file's lines grouped as the parse reads them: each block is the
    fewest whole lines holding at least ``block_chars`` characters."""
    blocks, block = [], []
    for line in path.read_text().splitlines(keepends=True):
        block.append(line)
        if sum(map(len, block)) >= block_chars:
            blocks.append(block)
            block = []
    return blocks + [block] if block else blocks


def test_odd_line_decodes_only_its_block(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", SMALL_BLOCK)
    p = tmp_path / "t.jsonl"
    _small_block_file(p, {20: json.dumps(_row(user="odd"), separators=(",", ":"))})
    decoded = _record_decoded(monkeypatch)
    _assert_matches_rowwise(p, caplog)
    odd_block = next(b for b in _expected_blocks(p, SMALL_BLOCK) if '"user_id":"odd"' in "".join(b))
    assert 1 < len(odd_block) < 5
    assert decoded == odd_block


@pytest.mark.parametrize("line", [_line, _compact_line], ids=["default", "compact"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final_newline", "no_final_newline"])
def test_small_blocks_read_canonical_file_as_row_validator(tmp_path, caplog, monkeypatch, line,
                                                           newline, final_newline):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", SMALL_BLOCK)
    p = tmp_path / "t.jsonl"
    _small_block_file(p, {}, line, newline)
    if not final_newline:
        p.write_bytes(p.read_bytes()[:-len(newline)])
    decoded = _record_decoded(monkeypatch)
    _assert_matches_rowwise(p, caplog)
    assert decoded == []


# Lines in a later block that send it to the row validator, whose error
# or warning must name the line in the file.
LATER_BLOCK_CASES = {
    "bad_json": {25: "{not json"},
    "negative_then_bad_count": {23: _line(user="neg", reply_count=-3), 31: _line(retweet_count=2.5)},
    # File iteration ends a line at a bare '\r', so every later line number is one higher.
    "bare_cr_then_bad_count": {21: _line(user="m") + "\r" + _line(user="n"),
                               33: _line(retweet_count="x")},
    "bare_cr_then_negative": {21: _line(user="m") + "\r" + _line(user="n"),
                              36: _line(user="neg", num_urls=-1)},
    # Timestamps the pattern refuses, each a ParseError of the row validator.
    "feb29_nonleap": {27: _line(ts="2023-02-29T12:00:00Z")},
    "year_0": {27: _line(ts="0000-01-01T00:00:00Z")},
    "hour_24": {27: _line(ts="2023-01-05T24:00:00Z")},
    "second_60": {27: _line(ts="2016-12-31T23:59:60Z")},
}


@pytest.mark.parametrize("special", LATER_BLOCK_CASES.values(), ids=LATER_BLOCK_CASES.keys())
def test_later_block_is_line_numbered_as_row_validator(tmp_path, caplog, monkeypatch, special):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", SMALL_BLOCK)
    p = tmp_path / "t.jsonl"
    _small_block_file(p, special)
    _assert_matches_rowwise(p, caplog)


def test_canonical_parse_builds_no_tweet_record(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("TweetRecord built while parsing")

    p = tmp_path / "t.jsonl"
    _two_chunk_file(p, {7: _line(user="neg", num_urls=-1)})
    # A named tuple built with _make skips both __new__ and __init__.
    for name in ("__init__", "__new__", "_make"):
        monkeypatch.setattr(TweetRecord, name, refuse)
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


def test_load_labels_undecodable_byte_is_line_numbered_and_exit_4(tmp_path, caplog):
    rows = b"".join(b"u%d,0\n" % i for i in range(298))
    p = tmp_path / "labels.csv"
    p.write_bytes(b"user_id,class_id\n" + rows + b"u298,0\n\xff\n")
    with pytest.raises(ParseError, match="line 301: byte 0xff is not UTF-8"):
        load_labels(p)
    tweets = tmp_path / "t.jsonl"
    tweets.write_text(_line() + "\n")
    assert main(["run-all", "--outdir", str(tmp_path / "out"), "--tweets", str(tweets),
                 "--labels", str(p)]) == 4
    assert f"input error: {p}: line 301: byte 0xff" in caplog.text
    # A bad row before the byte, in the same decoded block, comes first.
    p.write_bytes(b"user_id,class_id\n" + rows + b"u298,x\n\xff\n")
    with pytest.raises(ParseError, match="line 300: class id is not an integer"):
        load_labels(p)


# Every CSV reader, each splitting its file into rows by ingest.csv_rows:
# the header, one good row for a user id, a row whose second field is
# damaged, the error that field raises, the loader, and a view of the
# loaded result that two equal files share.
_TWEET_FIELDS = "2023-01-05T10:00:00Z,1,0,0,0,0,0"
CSV_READERS = {
    "tweets": (",".join(["user_id", "timestamp", *FEATURE_NAMES]),
               lambda uid: f"{uid},{_TWEET_FIELDS}",
               "u3,2023-01-05T10:00:00Z,x,0,0,0,0,0", "count 'num_urls' is not an integer",
               lambda p: parse_tweets(p, format="csv"),
               lambda t: (t.user_ids, t.rows.tolist(), t.days.tolist(), t.counts.tolist())),
    "labels": ("user_id,class_id", lambda uid: f"{uid},0", "u3,x", "class id is not an integer",
               load_labels, lambda t: t.labels),
    "clusters": ("user_id,cluster_id", lambda uid: f"{uid},1", "u3,x",
                 "cluster id is not an integer", load_assignment_csv,
                 lambda a: (a.user_ids, a.labels.tolist())),
    "global_features": ("user_id,mean", lambda uid: f"{uid},0.5", "u3,x", "could not convert",
                        load_features_csv,
                        lambda f: (f.user_ids, f.column_names, f.values.tolist())),
}


@pytest.mark.parametrize("reader", ["labels", "clusters", "global_features"])
def test_user_table_repeated_id_names_both_lines(tmp_path, reader):
    # Every table keyed by user id refuses a repeat; ids are blank-stripped first.
    header, row, _bad, _message, load, _view = CSV_READERS[reader]
    p = tmp_path / f"{reader}.csv"
    p.write_text(f"{header}\n{row('u0')}\n{row('u1')}\n{row(' u0 ')}\n")
    with pytest.raises(ParseError, match="line 4: user id 'u0' repeats line 2") as err:
        load(p)
    assert err.value.line_no == 4 and err.value.path == p


@pytest.mark.parametrize("reader", CSV_READERS)
def test_csv_bad_field_after_blank_lines_names_its_physical_line(tmp_path, reader):
    header, row, bad, message, load, _view = CSV_READERS[reader]
    p = tmp_path / f"{reader}.csv"
    p.write_text(f"{header}\n{row('u0')}\n\n\n{bad}\n")
    with pytest.raises(ParseError, match=f"line 5: {message}") as err:
        load(p)
    assert err.value.line_no == 5 and err.value.path == p


@pytest.mark.parametrize("reader", CSV_READERS)
def test_csv_quoted_line_break_counts_toward_the_line(tmp_path, reader):
    header, row, bad, message, load, _view = CSV_READERS[reader]
    broken_id = '"u\n0"'   # lines 2 and 3
    p = tmp_path / f"{reader}.csv"
    p.write_text(f"{header}\n{row(broken_id)}\n{row('u1')}\n{bad}\n")
    with pytest.raises(ParseError, match=f"line 5: {message}"):
        load(p)


@pytest.mark.parametrize("reader", CSV_READERS)
def test_csv_wrong_column_count_names_its_physical_line(tmp_path, reader):
    header, row, _bad, _message, load, _view = CSV_READERS[reader]
    width = header.count(",") + 1
    p = tmp_path / f"{reader}.csv"
    p.write_text(f"{header}\n{row('u0')}\n\nu1\n{row('u2')},9\n")
    with pytest.raises(ParseError, match=f"line 4: expected {width} columns, got 1"):
        load(p)
    p.write_text(f"{header}\n{row('u0')}\n\n{row('u2')},9\n")
    with pytest.raises(ParseError, match=f"line 4: expected {width} columns, got {width + 1}"):
        load(p)


@pytest.mark.parametrize("reader", CSV_READERS)
def test_csv_blank_line_between_good_rows_loads(tmp_path, reader):
    header, row, _bad, _message, load, view = CSV_READERS[reader]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(f"{header}\n{row('u0')}\n{row('u1')}\n")
    spaced.write_text(f"\n{header}\n\n{row('u0')}\n\n\n{row('u1')}\n\n")
    assert view(load(spaced)) == view(load(plain))
