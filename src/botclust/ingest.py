"""Tweet-activity ingestion: tweet and label parsing, the tweet table.

Input rows are pre-extracted per-tweet entity counts, not raw tweet text.
Timestamps are normalized to UTC; the day boundary sits at 00:00:00 UTC.

``parse_tweets`` reads a file straight into a ``TweetTable`` without a
per-tweet object: it decodes the rows one line at a time and turns each
chunk of CHUNK_ROWS decoded rows into columns. Canonical rows (a
non-empty string user id, a ``YYYY-MM-DDTHH:MM:SSZ`` timestamp and
non-negative integer counts) are converted for the whole chunk at once;
every other row goes through the row validator in line order, so errors,
negative-row warnings and UTC days are those of a row-by-row parse.
``build_timelines`` indexes in-memory ``TweetRecord`` lists (from
``synth`` and the tests) into the same table.
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import compress
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

FEATURE_NAMES: tuple[str, ...] = (
    "num_urls",
    "num_hashtags",
    "num_mentions",
    "retweet_count",
    "reply_count",
    "favorite_count",
)

GENUINE_CLASS = 0

# Rows decoded before a chunk is turned into columns: large enough that
# the per-chunk numpy calls cost little per row, small enough that the
# decoded dicts of one chunk stay a few MiB.
CHUNK_ROWS = 4096
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")
_NAT = np.datetime64("NaT", "s")


class ParseError(ValueError):
    """Structurally malformed input row; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TweetRecord:
    """One tweet's entity counts at a UTC timestamp (second precision)."""

    user_id: str
    timestamp: datetime
    num_urls: int
    num_hashtags: int
    num_mentions: int
    retweet_count: int
    reply_count: int
    favorite_count: int

    def counts(self) -> tuple[int, ...]:
        return (
            self.num_urls,
            self.num_hashtags,
            self.num_mentions,
            self.retweet_count,
            self.reply_count,
            self.favorite_count,
        )

    def day(self) -> date:
        return self.timestamp.astimezone(timezone.utc).date()


@dataclass(frozen=True)
class TweetTable:
    """Every record of one data set as row-aligned columns.

    ``user_ids`` is sorted lexicographically, which fixes the row order of
    every downstream tensor. Record ``i`` belongs to user
    ``user_ids[rows[i]]``, falls ``days[i]`` UTC days after ``day_min``,
    and carries the six counts ``counts[i]`` (float64, FEATURE_NAMES
    order).
    """

    user_ids: list[str]
    day_min: date
    num_days: int
    rows: np.ndarray      # (M,) int64
    days: np.ndarray      # (M,) int64, in [0, num_days)
    counts: np.ndarray    # (M, 6) float64

    def __len__(self) -> int:
        """The number of records in the table."""
        return len(self.rows)


@dataclass
class LabelTable:
    """user_id -> class id; class 0 is reserved for genuine users."""

    labels: dict[str, int]

    def __post_init__(self):
        ids = set(self.labels.values())
        if ids and ids != set(range(max(ids) + 1)):
            raise ValueError(f"class ids must be dense from 0, got {sorted(ids)}")

    @property
    def num_classes(self) -> int:
        return max(self.labels.values()) + 1 if self.labels else 0

    def supports(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for cid in self.labels.values():
            out[cid] = out.get(cid, 0) + 1
        return dict(sorted(out.items()))


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def _row_from_fields(fields: dict, line_no: int) -> tuple[str, int, list[float]] | None:
    """Validate one row into its user id, UTC day ordinal and six counts.
    Returns None for rows rejected with a diagnostic."""
    for key in ("user_id", "timestamp", *FEATURE_NAMES):
        if key not in fields or fields[key] is None or fields[key] == "":
            raise ParseError(line_no, f"missing field '{key}'")
    try:
        ts = _parse_timestamp(str(fields["timestamp"]))
    except ValueError as exc:
        raise ParseError(line_no, f"bad timestamp {fields['timestamp']!r}: {exc}") from exc
    counts = []
    for name in FEATURE_NAMES:
        raw = fields[name]
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}") from exc
        if isinstance(raw, bool) or (isinstance(raw, float) and raw != value):
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}")
        counts.append(value)
    negatives = [name for name, value in zip(FEATURE_NAMES, counts) if value < 0]
    if negatives:
        log.warning("line %d: rejected row for user %s, negative count in %s",
                    line_no, fields["user_id"], negatives)
        return None
    floats = []
    for name, value in zip(FEATURE_NAMES, counts):
        try:
            floats.append(float(value))
        except OverflowError as exc:
            raise ParseError(line_no, f"count '{name}' is too large for a float64") from exc
    return str(fields["user_id"]), ts.toordinal(), floats


class _TableBuilder:
    """Row-aligned column chunks plus the index at which each user id was
    first seen, indexed into one TweetTable at the end."""

    def __init__(self):
        self.seen: dict[str, int] = {}
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, user_ids: list[str], ordinals: np.ndarray, counts: np.ndarray) -> None:
        """Append records: their user ids, UTC day ordinals and (M, 6) float64 counts."""
        seen = self.seen
        first_seen = np.fromiter((seen.setdefault(uid, len(seen)) for uid in user_ids),
                                 dtype=np.int64, count=len(user_ids))
        self.chunks.append((first_seen, ordinals, counts))

    def table(self) -> TweetTable:
        if not self.seen:
            raise ValueError("no tweet records to index")
        first_seen, ordinals, counts = (np.concatenate(column) for column in zip(*self.chunks))
        user_ids = sorted(self.seen)
        rank = np.empty(len(user_ids), dtype=np.int64)
        rank[[self.seen[uid] for uid in user_ids]] = np.arange(len(user_ids))
        first = int(ordinals.min())
        return TweetTable(
            user_ids=user_ids,
            day_min=date.fromordinal(first),
            num_days=int(ordinals.max()) - first + 1,
            rows=rank[first_seen],
            days=ordinals - first,
            counts=counts,
        )


def _seconds_or_nat(text: str) -> np.datetime64:
    try:
        return np.datetime64(text, "s")
    except ValueError:
        return _NAT


def _canonical_ordinals(stamps: list) -> tuple[np.ndarray, np.ndarray]:
    """UTC day ordinals of the canonical ``YYYY-MM-DDTHH:MM:SSZ`` stamps
    from year 1 on, and the mask of the stamps that are canonical."""
    canonical = np.array([type(s) is str and len(s) == 20 and s[19] == "Z" for s in stamps])
    # U19 drops the 'Z'; numpy reads the empty string as NaT.
    text = np.array([s if ok else "" for s, ok in zip(stamps, canonical)], dtype="U19")
    try:
        seconds = text.astype("datetime64[s]")
    except ValueError:  # a value out of range somewhere in the chunk
        seconds = np.array([_seconds_or_nat(t) for t in text], dtype="datetime64[s]")
    canonical &= (np.datetime_as_string(seconds, unit="s") == text) & (seconds >= _YEAR_ONE)
    return seconds.astype("datetime64[D]").astype(np.int64) + _EPOCH_ORDINAL, canonical


def _add_chunk(builder: _TableBuilder, chunk: list[tuple[int, dict]]) -> None:
    """Turn one chunk of (line number, decoded row) pairs into columns.

    Rows with a non-empty string user id, a canonical timestamp and
    non-negative integer counts that fit a float64 are converted for the
    whole chunk at once. Every other row goes through ``_row_from_fields``
    in line order, so the first bad row raises and negative rows are
    dropped exactly as a row-by-row parse would. CSV fields are strings,
    so CSV rows always take that path.
    """
    if not chunk:
        return
    rows = [fields for _, fields in chunk]
    user_ids = [row.get("user_id") for row in rows]
    fast = np.array([type(uid) is str and uid != "" for uid in user_ids])
    ordinals, canonical = _canonical_ordinals([row.get("timestamp") for row in rows])
    fast &= canonical
    counts = np.zeros((len(rows), len(FEATURE_NAMES)))
    for j, name in enumerate(FEATURE_NAMES):
        column = [row.get(name) for row in rows]
        is_int = np.array([type(value) is int for value in column])
        if not is_int.all():
            column = [value if ok else 0 for value, ok in zip(column, is_int)]
        try:
            counts[:, j] = np.array(column, dtype=np.float64)
        except OverflowError:  # the row validator names the row and count
            is_int[:] = False
        fast &= is_int & (counts[:, j] >= 0)
    keep = np.ones(len(rows), dtype=bool)
    for i in np.flatnonzero(~fast):
        line_no, fields = chunk[i]
        row = _row_from_fields(fields, line_no)
        if row is None:
            keep[i] = False
        else:
            user_ids[i], ordinals[i], counts[i] = row
    if not keep.all():
        user_ids = list(compress(user_ids, keep))
        ordinals, counts = ordinals[keep], counts[keep]
    builder.add(user_ids, ordinals, counts)


def _jsonl_rows(fh) -> Iterator[tuple[int, dict]]:
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise ParseError(line_no, "row is not a JSON object")
        yield line_no, fields


def _csv_rows(fh) -> Iterator[tuple[int, dict]]:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        return
    expected = {"user_id", "timestamp", *FEATURE_NAMES}
    if not expected.issubset(set(reader.fieldnames)):
        raise ParseError(1, f"CSV header missing columns {sorted(expected - set(reader.fieldnames))}")
    for line_no, row in enumerate(reader, start=2):
        if None in row.values() or None in row:
            raise ParseError(line_no, "wrong number of columns")
        yield line_no, row


def parse_tweets(path: str | Path, format: str = "jsonl") -> TweetTable:
    """Parse tweet activity rows from a JSONL or CSV file into one TweetTable.

    Rows are read in chunks of CHUNK_ROWS and each chunk becomes columns;
    no per-tweet object is built. Structurally malformed rows
    (undecodable, missing fields, bad timestamps, counts that are not
    integers or do not fit a float64) raise ParseError with the offending
    line number; the first such line in the file is the one reported.
    Rows with negative counts are dropped with a logged diagnostic and
    parsing continues. A file with no rows left raises ValueError.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}, expected 'jsonl' or 'csv'")
    builder = _TableBuilder()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _jsonl_rows(fh) if format == "jsonl" else _csv_rows(fh)
        chunk: list[tuple[int, dict]] = []
        try:
            for row in rows:
                chunk.append(row)
                if len(chunk) == CHUNK_ROWS:
                    full, chunk = chunk, []
                    _add_chunk(builder, full)
        except ParseError:
            _add_chunk(builder, chunk)  # a bad row earlier in the chunk is reported first
            raise
        _add_chunk(builder, chunk)
    return builder.table()


def write_tweets_jsonl(records: list[TweetRecord], path: str | Path) -> None:
    """Serialize records to the JSONL interchange format (UTC, 'Z' suffix)."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        for rec in records:
            row = {
                "user_id": rec.user_id,
                "timestamp": rec.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            }
            row.update({name: count for name, count in zip(FEATURE_NAMES, rec.counts())})
            fh.write(json.dumps(row) + "\n")


def build_timelines(records: list[TweetRecord]) -> TweetTable:
    """Index in-memory records into one TweetTable, as ``parse_tweets``
    does for a file.

    Records may come in any order. Each is bucketed on its UTC date.
    """
    m = len(records)
    builder = _TableBuilder()
    builder.add(
        [rec.user_id for rec in records],
        np.fromiter((rec.day().toordinal() for rec in records), dtype=np.int64, count=m),
        np.fromiter((c for rec in records for c in rec.counts()), dtype=np.float64,
                    count=m * len(FEATURE_NAMES)).reshape(m, len(FEATURE_NAMES)),
    )
    return builder.table()


def load_labels(path: str | Path) -> LabelTable:
    """Read the `user_id,class_id` CSV into a validated LabelTable."""
    labels: dict[str, int] = {}
    with open(Path(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty label file")
        if [h.strip() for h in header] != ["user_id", "class_id"]:
            raise ParseError(1, f"expected header 'user_id,class_id', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(line_no, f"expected 2 columns, got {len(row)}")
            uid, raw_class = row[0].strip(), row[1].strip()
            try:
                cid = int(raw_class)
            except ValueError as exc:
                raise ParseError(line_no, f"class id is not an integer: {raw_class!r}") from exc
            if cid < 0:
                raise ParseError(line_no, f"negative class id {cid}")
            if uid in labels:
                raise ParseError(line_no, f"duplicate user_id {uid!r}")
            labels[uid] = cid
    return LabelTable(labels=labels)
