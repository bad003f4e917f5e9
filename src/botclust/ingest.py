"""Tweet-activity ingestion: tweet and label parsing, the tweet table.

Input rows are pre-extracted per-tweet entity counts, not raw tweet text.
Timestamps are normalized to UTC; the day boundary sits at 00:00:00 UTC.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from datetime import date, datetime, timezone
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


def _record_from_fields(fields: dict, line_no: int) -> TweetRecord | None:
    """Validate one row. Returns None for rows rejected with a diagnostic."""
    for key in ("user_id", "timestamp", *FEATURE_NAMES):
        if key not in fields or fields[key] is None or fields[key] == "":
            raise ParseError(line_no, f"missing field '{key}'")
    try:
        ts = _parse_timestamp(str(fields["timestamp"]))
    except ValueError as exc:
        raise ParseError(line_no, f"bad timestamp {fields['timestamp']!r}: {exc}") from exc
    counts = {}
    for name in FEATURE_NAMES:
        raw = fields[name]
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}") from exc
        if isinstance(raw, bool) or (isinstance(raw, float) and raw != value):
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}")
        counts[name] = value
    negatives = [n for n in FEATURE_NAMES if counts[n] < 0]
    if negatives:
        log.warning("line %d: rejected row for user %s, negative count in %s",
                    line_no, fields["user_id"], negatives)
        return None
    return TweetRecord(user_id=str(fields["user_id"]), timestamp=ts, **counts)


def parse_tweets(path: str | Path, format: str = "jsonl") -> list[TweetRecord]:
    """Parse tweet activity rows from a JSONL or CSV file.

    Structurally malformed rows (undecodable, missing fields, bad
    timestamps) raise ParseError with the offending line number. Rows with
    negative counts are dropped with a logged diagnostic and parsing
    continues.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}, expected 'jsonl' or 'csv'")
    records: list[TweetRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if format == "jsonl":
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    fields = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(line_no, f"invalid JSON: {exc}") from exc
                if not isinstance(fields, dict):
                    raise ParseError(line_no, "row is not a JSON object")
                rec = _record_from_fields(fields, line_no)
                if rec is not None:
                    records.append(rec)
        else:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return []
            expected = {"user_id", "timestamp", *FEATURE_NAMES}
            if not expected.issubset(set(reader.fieldnames)):
                raise ParseError(1, f"CSV header missing columns {sorted(expected - set(reader.fieldnames))}")
            for line_no, row in enumerate(reader, start=2):
                if None in row.values() or None in row:
                    raise ParseError(line_no, "wrong number of columns")
                rec = _record_from_fields(row, line_no)
                if rec is not None:
                    records.append(rec)
    return records


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
    """Index the records into one TweetTable.

    Records may come in any order. Each is bucketed on its UTC date.
    """
    if not records:
        raise ValueError("build_timelines requires at least one record")
    m = len(records)
    seen: dict[str, int] = {}
    first_rows = np.fromiter((seen.setdefault(rec.user_id, len(seen)) for rec in records),
                             dtype=np.int64, count=m)
    ordinals = np.fromiter((rec.day().toordinal() for rec in records), dtype=np.int64, count=m)
    counts = np.fromiter((c for rec in records for c in rec.counts()),
                         dtype=np.float64, count=m * len(FEATURE_NAMES))
    user_ids = sorted(seen)
    rank = np.empty(len(seen), dtype=np.int64)
    rank[[seen[uid] for uid in user_ids]] = np.arange(len(user_ids))
    first = int(ordinals.min())
    return TweetTable(
        user_ids=user_ids,
        day_min=date.fromordinal(first),
        num_days=int(ordinals.max()) - first + 1,
        rows=rank[first_rows],
        days=ordinals - first,
        counts=counts.reshape(m, len(FEATURE_NAMES)),
    )


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
