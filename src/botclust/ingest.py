"""Tweet-activity ingestion: tweet and label parsing, the tweet table,
and the one reader and one writer of each file format.

Input rows are pre-extracted per-tweet entity counts, not raw tweet text.
Timestamps are normalized to UTC; the day boundary sits at 00:00:00 UTC.

Each tweets or CSV file is read once, with ``errors="surrogateescape"``:
a byte that is not UTF-8 becomes a lone surrogate, which valid UTF-8
never decodes to, and raises ParseError when its line is reached in line
order, so a bad row before it is still the error reported. ``reading``
alone names a damaged file: every reader of an input or an artifact runs
its whole load under it, checks that build the result included, so each
error the load raises reads ``<path>: …``.

``parse_tweets`` reads a file straight into a ``TweetTable`` without a
per-tweet object. A JSONL file is read in blocks of about BLOCK_CHARS
characters, each ending at a line break, along two paths:

- the pattern path: a block whose lines all hold the keys, key order and
  value types ``write_tweets_jsonl`` writes, with or without a space
  after each ':' and ',' (``_CANONICAL_LINES``), is read into columns by
  one regular-expression scan, with no row decoded;
- the row validator: any other block, such as one holding an
  undecodable byte, and every CSV file, is checked line by line and row
  by row in line order, so errors, negative-row warnings and UTC days
  are those of a row-by-row parse.

Both paths strip a user id of surrounding blanks, as ``user_table``
strips table ids; the pattern path leaves a padded id to the validator.

``build_timelines`` indexes in-memory ``TweetRecord`` lists (from
``synth`` and the tests) into the same table.

Every CSV file (tweets, labels, ``clusters.csv``, ``global_features*.csv``)
is split into rows by ``csv_rows`` alone: blank rows are skipped, a row's
line number is its last physical line (blank lines and quoted line breaks
count), and a row whose width differs from the header's raises
ParseError. ``user_table`` reads every table keyed by user id (labels,
cluster assignments, global features): it strips each field of blanks,
checks the header and refuses a repeated id. ``write_csv`` writes those
three and ``confusion.csv`` as UTF-8, and ``write_json`` every JSON
report and the dendrogram.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
from collections import Counter
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import partial
from itertools import count, islice
from pathlib import Path
from typing import NamedTuple

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

# Rows the row validator checks, and records the writer formats, before
# they are turned into columns or text: large enough that the per-batch
# calls cost little per row, small enough that one batch stays a few MiB.
CHUNK_ROWS = 4096
# Characters of JSONL text scanned at once (then up to the next line
# break): large enough that one scan costs little per line, small enough
# that one block's text and matches stay a few MiB.
BLOCK_CHARS = 1 << 20
# A byte that is not UTF-8, as ``errors="surrogateescape"`` decodes it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _line_pattern(space: str) -> re.Pattern:
    r"""One line with the keys, key order and value types
    ``write_tweets_jsonl`` writes and ``space`` after each ':' and ','; a
    CRLF ending leaves a '\r' before the '\n'.

    Whatever it matches decodes to the same values as ``json.loads``: the
    id holds no quote, backslash, control character or undecodable byte
    (``_ESCAPED_BYTE``), so it is the text itself, and neither starts nor
    ends with a blank, which the row validator strips; digits are ASCII
    ([0-9], not \d, which also matches other scripts' digits); and a
    count has at most 15 digits, so ``float()`` of the text is exact. The
    time of day is limited to hours 00-23 and minutes and seconds 00-59,
    the times that exist; only the date is captured, for
    ``date.fromisoformat``, which rejects a date that does not exist
    (month 13, February 29 of a common year, year 0).
    """
    count = r"(0|[1-9][0-9]{0,14})"
    fields = (("user_id", r'"((?!\s)[^"\\\x00-\x1f\udc80-\udcff]+(?<!\s))"'),
              ("timestamp",
               r'"([0-9]{4}-[0-9]{2}-[0-9]{2})T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z"'),
              *((name, count) for name in FEATURE_NAMES))
    return re.compile(
        r"^\{" + f",{space}".join(f'"{name}":{space}{value}' for name, value in fields)
        + r"\}\r?$",
        re.M,
    )


# ``json.dumps``'s default separators, and the compact ones that pandas,
# JavaScript's JSON.stringify and ``jq -c`` write.
_CANONICAL_LINES = (_line_pattern(" "), _line_pattern(""))

# ``write_tweets_jsonl``'s only line: ``json.dumps``'s bytes for a row of an
# id as ``json.dumps`` encodes it, a UTC stamp and six plain ints.
_LINE = ('{"user_id": %s, "timestamp": "%s", '
         + ", ".join(f'"{name}": %d' for name in FEATURE_NAMES) + "}\n")
_INT_COUNTS = (int,) * len(FEATURE_NAMES)


class ParseError(ValueError):
    """Structurally malformed input row; carries the 1-based line number
    and the path of its file, which ``reading`` sets."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.path = line_no, None


class TweetRecord(NamedTuple):
    """One tweet's entity counts at a UTC timestamp (second precision);
    the counts are the last six fields, in FEATURE_NAMES order."""

    user_id: str
    timestamp: datetime
    num_urls: int
    num_hashtags: int
    num_mentions: int
    retweet_count: int
    reply_count: int
    favorite_count: int

    def counts(self) -> tuple[int, ...]:
        return self[2:]


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
        return dict(sorted(Counter(self.labels.values()).items()))


def _as_utc(ts: datetime) -> datetime:
    """``ts`` on the UTC clock; a naive timestamp is taken to be UTC already."""
    # UTC (synth's zone, tested first as it is cheap), naive and zero
    # offsets need no conversion.
    if ts.tzinfo is not timezone.utc and ts.utcoffset():
        return ts.astimezone(timezone.utc)
    return ts


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return _as_utc(datetime.fromisoformat(text))


def _row_from_fields(fields: dict, line_no: int, path: Path) -> tuple[str, int, list[float]] | None:
    """Validate one row into its blank-stripped user id, UTC day ordinal and six counts.
    Returns None for rows rejected with a diagnostic naming ``path``."""
    if isinstance(user_id := fields.get("user_id"), str):
        fields["user_id"] = user_id.strip()
    for key in ("user_id", "timestamp", *FEATURE_NAMES):
        if key not in fields or fields[key] is None or fields[key] == "":
            raise ParseError(line_no, f"missing field '{key}'")
    try:
        ts = _parse_timestamp(str(fields["timestamp"]))
    except (ValueError, OverflowError) as exc:  # an offset can move a stamp past year 1 or 9999
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
        log.warning("%s: line %d: rejected row for user %s, negative count in %s",
                    path, line_no, fields["user_id"], negatives)
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

    def add(self, user_ids: Sequence[str], ordinals: np.ndarray, counts: np.ndarray) -> None:
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


class _Memo(dict):
    """``fn``'s value per distinct argument, each computed once."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _date_ordinal(text: str) -> int:
    return date.fromisoformat(text).toordinal()


def _add_canonical_block(builder: _TableBuilder, text: str, ordinals: _Memo,
                         floats: _Memo) -> int | None:
    """Add a block of lines by one scan with the ``_CANONICAL_LINES``
    pattern its first line matches, if every line matches and every date
    exists, and return the number of lines; otherwise add nothing and
    return None, and the row validator takes the block. ``ordinals`` and
    ``floats`` convert a date's and a count's text, once per distinct text."""
    # The first line picks the pattern; a block in another layout is not
    # scanned at all.
    pattern = next((p for p in _CANONICAL_LINES if p.match(text)), None)
    if pattern is None:
        return None
    matches = pattern.findall(text)
    # A match cannot span a line break, nor end at a lone '\r', so this
    # many matches is every line of the block.
    n = len(matches)
    if n != text.count("\n") + (not text.endswith("\n")):
        return None
    user_ids, dates, *columns = zip(*matches)
    try:
        days = np.fromiter(map(ordinals.__getitem__, dates), dtype=np.int64, count=n)
    except ValueError:  # a date that does not exist, or year 0
        return None
    counts = np.empty((n, len(FEATURE_NAMES)))
    for j, column in enumerate(columns):
        counts[:, j] = np.fromiter(map(floats.__getitem__, column), dtype=np.float64, count=n)
    builder.add(user_ids, days, counts)
    return n


@contextmanager
def reading(path):
    """Run one load of ``path``; an error raised in it names the file.

    A ParseError keeps its type and line number. Any other ValueError, a
    KeyError (a key the file lacks) or a TypeError (a field of the wrong
    type) becomes a ValueError ``<path>: …``; an OSError passes as it is."""
    try:
        yield
    except ParseError as exc:
        exc.path, exc.args = path, (f"{path}: {exc}",)
        raise
    except KeyError as exc:
        raise ValueError(f"{path}: has no {exc} key") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# A file open for one read as UTF-8, each byte that is not UTF-8 kept as a
# lone surrogate for ``_check_utf8`` to report.
open_text = partial(open, encoding="utf-8", errors="surrogateescape", newline="")


def _check_utf8(line: str, line_no: int) -> str:
    """The line, if it holds no byte that is not UTF-8."""
    if bad := _ESCAPED_BYTE.search(line):
        raise ParseError(line_no, f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8")
    return line


def _blocks(fh) -> Iterator[str]:
    """The file's text about BLOCK_CHARS characters at a time, each block
    ending at a line break or at the end of the file."""
    while text := fh.read(BLOCK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        yield text


def _jsonl_rows(lines: list[str], first_line_no: int) -> Iterator[tuple[int, dict]]:
    for line_no, line in enumerate(lines, start=first_line_no):
        # The raw line, so the JSON escape "\udcff" still decodes as JSON does.
        _check_utf8(line, line_no)
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
            raise ParseError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise ParseError(line_no, "row is not a JSON object")
        yield line_no, fields


def csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row of an ``open_text`` CSV file with its line
    number, the header first. The number is the row's last physical line;
    each line is checked by ``_check_utf8`` as it is read, and a row whose
    width differs from the header's raises ParseError."""
    reader = csv.reader(map(_check_utf8, fh, count(1)))
    width = None
    for row in reader:
        if not row:
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(reader.line_num, f"expected {width} columns, got {len(row)}")
        yield reader.line_num, row


def _csv_records(fh) -> Iterator[tuple[int, dict]]:
    """The rows of a tweets CSV keyed by its header, which may hold extra
    columns in any order."""
    rows = csv_rows(fh)
    line_no, header = next(rows, (1, None))
    if header is None:
        return
    missing = {"user_id", "timestamp", *FEATURE_NAMES} - set(header)
    if missing:
        raise ParseError(line_no, f"CSV header missing columns {sorted(missing)}")
    for line_no, row in rows:
        yield line_no, dict(zip(header, row))


def _add_rows(builder: _TableBuilder, rows: Iterator[tuple[int, dict]], path: Path) -> None:
    """Check decoded (line number, row) pairs of ``path`` with the row
    validator in line order and add the kept rows, CHUNK_ROWS at a time."""
    kept = (row for row in (_row_from_fields(fields, line_no, path) for line_no, fields in rows)
            if row is not None)
    while chunk := list(islice(kept, CHUNK_ROWS)):
        user_ids, ordinals, counts = zip(*chunk)
        builder.add(user_ids, np.array(ordinals, dtype=np.int64),
                    np.array(counts, dtype=np.float64))


def parse_tweets(path: str | Path, format: str = "jsonl") -> TweetTable:
    """Parse tweet activity rows from a JSONL or CSV file into one TweetTable.

    No per-tweet object is built. A JSONL file is read in blocks of about
    BLOCK_CHARS characters, each ending at a line break; a block in
    ``write_tweets_jsonl``'s layout, compact or not, is read by one
    pattern scan, and any other block is split into lines as file
    iteration splits them and decoded row by row, with the same result.
    Structurally malformed rows (undecodable, missing fields, bad
    timestamps, counts that are not integers or do not fit a float64)
    raise ParseError with the file and the offending line number; the
    first such line in the file is the one reported.
    Rows with negative counts are dropped with a diagnostic naming the file
    and the line, and parsing continues. A file with no rows left raises ValueError.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}, expected 'jsonl' or 'csv'")
    builder = _TableBuilder()
    with reading(path), open_text(path) as fh:
        if format == "csv":
            _add_rows(builder, _csv_records(fh), path)
        else:
            ordinals, floats = _Memo(_date_ordinal), _Memo(float)
            line_no = 1
            for text in _blocks(fh):
                n = _add_canonical_block(builder, text, ordinals, floats)
                if n is None:
                    lines = list(io.StringIO(text, newline=""))
                    _add_rows(builder, _jsonl_rows(lines, line_no), path)
                    n = len(lines)
                line_no += n
        return builder.table()


def _utc_stamp(ts: datetime) -> str:
    """The interchange timestamp: UTC to the second, four-digit year, 'Z'."""
    ts = _as_utc(ts)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (ts.year, ts.month, ts.day,
                                               ts.hour, ts.minute, ts.second)


def _id_json(user_id) -> str:
    """``json.dumps`` of an id that ``parse_tweets`` reads back unchanged:
    not None, not blank, and without the surrounding blanks the readers strip."""
    if user_id is None or (isinstance(user_id, str) and (not user_id or user_id.strip() != user_id)):
        raise ValueError(f"user id {user_id!r} is missing, blank or has surrounding blanks")
    return json.dumps(user_id)


def write_tweets_jsonl(records: list[TweetRecord], path: str | Path) -> None:
    """Serialize records to the JSONL interchange format, one ``_LINE``
    per record, the timestamp in UTC with a four-digit year and a 'Z'.

    An aware timestamp is converted to UTC; a naive one is written as it
    stands. Each distinct id is checked and encoded once (``_id_json``).
    A record with a count that is not a plain int (a bool, a float, a
    numpy integer) raises ValueError naming its user id, as a refused id
    does. The lines go to ``<path>.partial``, renamed onto ``path``
    when complete and removed on any failure, so ``path`` keeps its bytes.
    """
    partial = Path(f"{path}.partial")
    ids = _Memo(_id_json)
    it = iter(records)
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            while chunk := list(islice(it, CHUNK_ROWS)):
                # Per chunk, so a file of distinct stamps holds few at a time.
                stamps = _Memo(_utc_stamp)
                lines = []
                for rec in chunk:
                    user_id, counts = rec.user_id, rec.counts()
                    id_json = ids[user_id]
                    if tuple(map(type, counts)) != _INT_COUNTS:
                        raise ValueError(f"user id {user_id!r}: counts {counts!r} are not all plain ints")
                    lines.append(_LINE % (id_json, stamps[rec.timestamp], *counts))
                fh.write("".join(lines))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def build_timelines(records: list[TweetRecord]) -> TweetTable:
    """Index in-memory records into one TweetTable, as ``parse_tweets``
    does for a file.

    Records may come in any order. Each is bucketed on its UTC date; a
    naive timestamp is read as UTC, as the interchange format reads it.
    """
    m = len(records)
    builder = _TableBuilder()
    builder.add(
        [rec.user_id for rec in records],
        np.fromiter((_as_utc(rec.timestamp).toordinal() for rec in records), dtype=np.int64, count=m),
        np.fromiter((c for rec in records for c in rec.counts()), dtype=np.float64,
                    count=m * len(FEATURE_NAMES)).reshape(m, len(FEATURE_NAMES)),
    )
    return builder.table()


def _csv_field(text: str) -> str:
    """text as csv.writer's default dialect writes a field of a row with
    others: quoted, quotes doubled, when it holds a comma, a quote or a
    line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """A CSV file as UTF-8, byte for byte as csv.writer writes it: the
    header through csv.writer, then each (key, text) row as the key's
    ``_csv_field``, a comma and the text, which must need no quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(f"{_csv_field(key)},{text}\r\n" for key, text in rows)


def user_table(fh, columns: Sequence[str] | None, parse) -> tuple[list[str], dict]:
    """An ``open_text`` table keyed by user id, as its column names after
    ``user_id`` and user id -> ``parse`` of the row's other fields, in file
    order, every field stripped of surrounding blanks. The header must be
    ``user_id`` and then ``columns`` (any names when None); a repeated id,
    or a ValueError from ``parse``, raises ParseError at its line."""
    rows = csv_rows(fh)
    line_no, header = next(rows, (1, None))
    key, *names = [h.strip() for h in header or ("",)]
    if key != "user_id" or columns is not None and names != list(columns):
        expected = ",".join(["user_id", *(columns or ["..."])])
        raise ParseError(line_no, f"expected header '{expected}', got {header}")
    values, lines = {}, {}   # user id -> its value, its line
    for line_no, row in rows:
        uid, *fields = [field.strip() for field in row]
        if uid in lines:
            raise ParseError(line_no, f"user id {uid!r} repeats line {lines[uid]}")
        try:
            lines[uid], values[uid] = line_no, parse(fields)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return names, values


def load_id_csv(path: str | Path, column: str) -> dict[str, int]:
    """A ``user_id,<column>`` CSV (labels, ``clusters.csv``) as user id ->
    non-negative int in file order (see ``user_table``); each failure is a
    ParseError with its line, named by the caller's ``reading(path)``."""
    name = column.replace("_", " ")

    def parse(fields: list[str]) -> int:
        try:
            value = int(fields[0])
        except ValueError:
            raise ValueError(f"{name} is not an integer: {fields[0]!r}") from None
        if value < 0:
            raise ValueError(f"{name} {value} is negative")
        return value

    with open_text(path) as fh:
        return user_table(fh, (column,), parse)[1]


def write_json(path: str | Path, doc: dict) -> None:
    """Write doc as every JSON report is laid out: keys sorted, indent 2, a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_labels(path: str | Path) -> LabelTable:
    """Read the ``user_id,class_id`` CSV (see ``load_id_csv``) into a
    LabelTable, whose class ids must be dense from 0."""
    with reading(path):
        return LabelTable(labels=load_id_csv(path, "class_id"))
