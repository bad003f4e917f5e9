"""Tweet-activity ingestion: file parsing, per-user timelines, balancing.

Input rows are pre-extracted per-tweet entity counts, not raw tweet text.
Timestamps are normalized to UTC; the day boundary sits at 00:00:00 UTC.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

from .numerics import seeded_rng

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


@dataclass
class UserTimeline:
    user_id: str
    tweets: list[TweetRecord]


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


@dataclass
class DatasetManifest:
    """Canonical user order, global day range and per-user record counts.

    ``supports`` maps each user id to how many records it contributed;
    class-level supports live on LabelTable.
    """

    user_ids: list[str]
    day_min: date
    day_max: date
    supports: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.day_min > self.day_max:
            raise ValueError(f"day_min {self.day_min} exceeds day_max {self.day_max}")

    @property
    def num_days(self) -> int:
        return (self.day_max - self.day_min).days + 1


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
        except (TypeError, ValueError) as exc:
            raise ParseError(line_no, f"count '{name}' is not an integer: {raw!r}") from exc
        if isinstance(raw, float) and raw != value:
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


def build_timelines(records: list[TweetRecord]) -> tuple[list[UserTimeline], DatasetManifest]:
    """Group records into per-user, time-sorted timelines.

    User order in the manifest is lexicographic by user id, which fixes
    the row order of every downstream tensor.
    """
    if not records:
        raise ValueError("build_timelines requires at least one record")
    by_user: dict[str, list[TweetRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    user_ids = sorted(by_user)
    timelines = []
    for uid in user_ids:
        tweets = sorted(by_user[uid], key=lambda r: r.timestamp)
        timelines.append(UserTimeline(user_id=uid, tweets=tweets))
    days = [rec.day() for rec in records]
    manifest = DatasetManifest(
        user_ids=user_ids,
        day_min=min(days),
        day_max=max(days),
        supports={uid: len(by_user[uid]) for uid in user_ids},
    )
    return timelines, manifest


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


def downsample_balanced(
    users: list[str],
    labels: LabelTable,
    keep_classes: set[int],
    seed: int,
) -> list[str]:
    """Balance classes by seeded downsampling to the minority support.

    All users of the smallest kept class are retained; every other kept
    class is sampled uniformly without replacement down to that support.
    Users outside ``keep_classes`` are dropped. The result is sorted by
    user id, so it is a pure function of (input, seed).
    """
    known = {labels.labels[u] for u in users if u in labels.labels}
    unknown = [u for u in users if u not in labels.labels]
    if unknown:
        raise ValueError(f"users without labels: {unknown[:5]}")
    if not keep_classes.issubset(known):
        raise ValueError(f"keep_classes {sorted(keep_classes - known)} absent from data")
    per_class: dict[int, list[str]] = {c: [] for c in sorted(keep_classes)}
    for uid in sorted(users):
        cid = labels.labels[uid]
        if cid in per_class:
            per_class[cid].append(uid)
    for cid, members in per_class.items():
        if not members:
            raise ValueError(f"class {cid} has no users to keep")
    minority = min(len(m) for m in per_class.values())
    rng = seeded_rng(seed)
    kept: list[str] = []
    for cid in sorted(per_class):
        members = per_class[cid]
        if len(members) == minority:
            kept.extend(members)
        else:
            picked = rng.choice(len(members), size=minority, replace=False)
            kept.extend(members[i] for i in sorted(picked))
    return sorted(kept)
