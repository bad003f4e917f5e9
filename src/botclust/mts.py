"""Daily multivariate time-series tensor: extraction, scaling, persistence.

The tensor is N x T x D. A day with no tweets is marked by the sentinel
value -1 across all D features, which keeps inactivity distinguishable
from an active day whose counts happen to be zero. Sentinels are excluded
from min-max statistics and pass through normalization unchanged.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from .ingest import FEATURE_NAMES, TweetTable, reading

SENTINEL = -1.0

_MAGIC = b"BCTENS01"


@dataclass
class MtsTensor:
    values: np.ndarray          # (N, T, D) float64
    user_ids: list[str]
    feature_names: tuple[str, ...]
    day_min: date
    normalized: bool = False
    kind: str = "mts"           # mts | latent_uts | latent_vec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"tensor must be 3-D, got shape {self.values.shape}")
        if self.values.shape[0] != len(self.user_ids):
            raise ValueError("user_ids length does not match tensor rows")
        if self.values.shape[2] != len(self.feature_names):
            raise ValueError("feature_names length does not match tensor depth")

    @property
    def n_users(self) -> int:
        return self.values.shape[0]

    @property
    def n_days(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]

    def sentinel_mask(self) -> np.ndarray:
        """Boolean (N, T) mask of inactive days (all features == -1)."""
        return np.all(self.values == SENTINEL, axis=2)

    def select_users(self, indices) -> "MtsTensor":
        """Row subset; fancy indexing copies, so the rows are held once."""
        idx = list(indices)
        return replace(self, values=self.values[idx], user_ids=[self.user_ids[i] for i in idx])

    def select_features(self, names: tuple[str, ...]) -> "MtsTensor":
        """Column subset preserving sentinel semantics (mask is per day);
        the tensor itself when names are its features in order. The copy
        is C-ordered, as extract_mts's tensor is, so a sum over it runs in
        the same order (a[:, :, cols] would put the feature axis first)."""
        if tuple(names) == self.feature_names:
            return self
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValueError(f"unknown features {missing}")
        cols = [self.feature_names.index(n) for n in names]
        return replace(self, values=self.values.take(cols, axis=2), feature_names=tuple(names),
                       user_ids=list(self.user_ids))


@dataclass
class NormalizationParams:
    """Per-feature min/max over the non-sentinel entries of a raw tensor."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins/maxs must be 1-D arrays of equal length")
        if len(self.feature_names) != self.mins.shape[0]:
            raise ValueError("feature_names length does not match statistics")
        if np.any(self.mins > self.maxs):
            raise ValueError("per-feature min exceeds max")

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(tuple(d["feature_names"]), d["mins"], d["maxs"])


def extract_mts(table: TweetTable) -> MtsTensor:
    """Aggregate per-tweet counts into the daily N x T x 6 tensor of the
    count features in FEATURE_NAMES order (select_features takes a subset).

    For each user and day, the tensor holds the sum of the counts over
    that day's tweets; days without tweets get the -1 sentinel in every
    feature. Rows follow the table's user order.
    """
    n, t = len(table.user_ids), table.num_days
    values = np.zeros((n, t, len(FEATURE_NAMES)))
    np.add.at(values, (table.rows, table.days), table.counts)
    active = np.zeros((n, t), dtype=bool)
    active[table.rows, table.days] = True
    values[~active] = SENTINEL
    return MtsTensor(values, list(table.user_ids), FEATURE_NAMES, table.day_min)


def minmax_normalize(mts: MtsTensor) -> tuple[MtsTensor, NormalizationParams]:
    """Min-max scale each feature to [0, 1] over its non-sentinel entries.

    Sentinel rows pass through unchanged; constant features map to 0. A
    feature that is sentinel everywhere gets min = max = 0 (it has no
    values to map).
    """
    if mts.normalized:
        raise ValueError("tensor is already normalized")
    active = ~mts.sentinel_mask()[:, :, np.newaxis]
    mins, maxs = np.zeros(mts.n_features), np.zeros(mts.n_features)
    if active.any():   # the mask is per day: every feature has values, or none has
        mins = mts.values.min(axis=(0, 1), where=active, initial=np.inf)
        maxs = mts.values.max(axis=(0, 1), where=active, initial=-np.inf)
    params = NormalizationParams(feature_names=mts.feature_names, mins=mins, maxs=maxs)
    return apply_normalization(mts, params), params


def apply_normalization(mts: MtsTensor, params: NormalizationParams) -> MtsTensor:
    """Scale a raw tensor with externally supplied statistics.

    Values outside the fitted range map outside [0, 1]; no clamping. This
    is how a held-out class gets encoded with training-set statistics.
    """
    if mts.normalized:
        raise ValueError("tensor is already normalized")
    if params.feature_names != mts.feature_names:
        raise ValueError(
            f"feature mismatch: tensor has {mts.feature_names}, params have {params.feature_names}"
        )
    inactive = mts.sentinel_mask()
    span = params.maxs - params.mins
    out = mts.values - params.mins
    np.divide(out, span, out=out, where=span != 0.0)
    out[:, :, span == 0.0] = 0.0
    out[inactive] = SENTINEL
    return replace(mts, values=out, user_ids=list(mts.user_ids), normalized=True)


def write_container(path: str | Path, magic: bytes, header: dict, arrays) -> None:
    """The binary container of tensors and checkpoints: magic, u32 header
    length, JSON header, then each array as little-endian float64."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(Path(path), "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))   # its buffer, not a bytes copy


def read_container(path: str | Path, magic: bytes, what: str, body_size) -> tuple[dict, np.ndarray]:
    """Read a write_container file as (header, flat float64 body);
    body_size(header) is the number of values the body must hold. A file
    that is not a `what`, is cut short anywhere, or whose header is not
    UTF-8 JSON raises ValueError; readers run it under ``ingest.reading``."""

    def take(fh, n: int, part: str) -> bytes:
        data = fh.read(n)
        if len(data) < n:
            raise ValueError(f"truncated {what}: {part} has {len(data)} of {n} bytes")
        return data

    with open(Path(path), "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise ValueError(f"not a {what} (bad magic {head!r})")
        (header_len,) = struct.unpack("<I", take(fh, 4, "header length"))
        header = json.loads(take(fh, header_len, "header").decode("utf-8"))
        # The body is read straight into its array; a short file is found
        # from its size first, so no array is made for a body that is not there.
        size = body_size(header) * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise ValueError(f"truncated {what}: body has {left} of {size} bytes")
        body = np.empty(size // 8, dtype="<f8")
        fh.readinto(body.data.cast("B"))
    return header, body


def header_count(key: str, value) -> int:
    """A container header's count field ``key``, if it is a non-negative
    int (a bool is not one)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"header field {key!r} must be a non-negative integer, got {value!r}")
    return value


def save_tensor(mts: MtsTensor, path: str | Path) -> None:
    header = {
        "kind": mts.kind,
        "n": mts.n_users,
        "t": mts.n_days,
        "d": mts.n_features,
        "feature_names": list(mts.feature_names),
        "user_ids": mts.user_ids,
        "day_min": mts.day_min.isoformat(),
        "normalized": mts.normalized,
    }
    write_container(path, _MAGIC, header, [mts.values])


def load_tensor(path: str | Path) -> MtsTensor:
    with reading(path):
        header, body = read_container(path, _MAGIC, "tensor file", lambda h: math.prod(
            header_count(key, h[key]) for key in ("n", "t", "d")))
        return MtsTensor(
            values=body.reshape(header["n"], header["t"], header["d"]),
            user_ids=list(header["user_ids"]),
            feature_names=tuple(header["feature_names"]),
            day_min=date.fromisoformat(header["day_min"]),
            normalized=header["normalized"],
            kind=header["kind"],
        )
