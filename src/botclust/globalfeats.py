"""Whole-series summary statistics over encoded univariate time series.

After the encoder squeezes each user's activity to one length-T latent
series, every statistic in the catalog collapses that series to a scalar,
giving a tabular N x G matrix that hierarchical clustering handles well.
Degenerate inputs (constant series where a statistic would divide by
zero) map to 0 rather than raising. The ``global_features*.csv`` tables
are written by ingest.write_csv, as UTF-8 whatever the locale, and read
by ingest.user_table, which strips ids of blanks as in every user table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import open_text, reading, user_table, write_csv


CATALOG = (
    "mean", "std", "variance", "skewness", "kurtosis", "min", "max", "median",
    "abs_energy", "mean_abs_change", "mean_change", "count_above_mean",
    "count_below_mean", "mean_crossings", "longest_strike_above_mean",
    "longest_strike_below_mean", "autocorr_lag1", "autocorr_lag7", "autocorr_lag30",
)


def _longest_strike(mask: np.ndarray) -> np.ndarray:
    """Longest run of True in each row of a 2-D boolean mask."""
    run_ends = np.cumsum(mask, axis=1)
    # A run's length is the running count minus its value at the last False.
    resets = np.maximum.accumulate(np.where(mask, 0, run_ends), axis=1)
    return (run_ends - resets).max(axis=1)


def _median(x: np.ndarray) -> np.ndarray:
    """np.median of each row of a finite x (N, T), bit for bit, without
    the numpy.ma import np.median pays on its first call."""
    lo, hi = (x.shape[1] - 1) // 2, x.shape[1] // 2   # equal for odd T
    return np.mean(np.partition(x, (lo, hi), axis=1)[:, lo:hi + 1], axis=1)


def _series_stats(x: np.ndarray) -> np.ndarray:
    """Every CATALOG statistic of each row of x (N, T), in CATALOG order.

    Skewness, kurtosis and autocorrelations of a constant row are 0; an
    autocorrelation whose lag reaches T is 0.
    """
    n, t = x.shape
    mu = x.mean(axis=1)
    var = x.var(axis=1)
    sigma = np.sqrt(var)
    centered = x - mu[:, None]
    flat = sigma == 0.0
    zeros = np.zeros(n)
    # float_power is the scalar pow(); ** on an array rounds differently.
    skew = np.divide(np.mean(centered**3, axis=1), np.float_power(sigma, 3),
                     out=zeros.copy(), where=~flat)
    kurt = np.divide(np.mean(centered**4, axis=1), np.float_power(sigma, 4),
                     out=np.full(n, 3.0), where=~flat) - 3.0
    steps = np.diff(x, axis=1)
    above, below = x > mu[:, None], x < mu[:, None]
    autocorr = [
        zeros if lag >= t else np.divide(
            np.sum(centered[:, : t - lag] * centered[:, lag:], axis=1),
            (t - lag) * var, out=zeros.copy(), where=~flat)
        for lag in (1, 7, 30)
    ]
    return np.column_stack([
        mu, sigma, var, skew, kurt, x.min(axis=1), x.max(axis=1),
        _median(x), np.sum(x * x, axis=1),
        np.mean(np.abs(steps), axis=1), np.mean(steps, axis=1),
        above.sum(axis=1), below.sum(axis=1),
        np.sum(centered[:, :-1] * centered[:, 1:] < 0.0, axis=1),
        _longest_strike(above), _longest_strike(below), *autocorr,
    ])


@dataclass
class GlobalFeatureVector:
    """Per-user summary matrix (N, len(column_names)) plus naming."""

    values: np.ndarray
    user_ids: tuple[str, ...]
    column_names: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if self.values.shape != (len(self.user_ids), len(self.column_names)):
            raise ValueError(
                f"values shape {self.values.shape} != "
                f"({len(self.user_ids)}, {len(self.column_names)})"
            )

    @property
    def n_users(self) -> int:
        return self.values.shape[0]


def extract_global_features(
    latent: np.ndarray,
    user_ids: tuple[str, ...] | None = None,
) -> GlobalFeatureVector:
    """Apply every catalog statistic to each user's latent series.

    latent is the uts encoder output, one series per user: (N, T). Needs
    T >= 2 so changes and autocorrelations are defined. Columns follow
    CATALOG order.
    """
    series = np.asarray(latent, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"latent must be (N, T), got shape {series.shape}")
    n, t = series.shape
    if t < 2:
        raise ValueError(f"global features need at least 2 time steps, got {t}")
    if user_ids is None:
        user_ids = tuple(str(i) for i in range(n))
    if len(user_ids) != n:
        raise ValueError(f"user_ids length {len(user_ids)} != {n} rows")
    return GlobalFeatureVector(values=_series_stats(series), user_ids=tuple(user_ids),
                               column_names=CATALOG)


def zscore_standardize(features: GlobalFeatureVector) -> GlobalFeatureVector:
    """Column-wise (x - mean) / std with population std; constant columns
    become all zero instead of dividing by zero."""
    vals = features.values
    mu = vals.mean(axis=0)
    sigma = vals.std(axis=0)
    out = np.zeros_like(vals)
    nonconst = sigma > 0.0
    out[:, nonconst] = (vals[:, nonconst] - mu[nonconst]) / sigma[nonconst]
    return GlobalFeatureVector(
        values=out, user_ids=features.user_ids, column_names=features.column_names
    )


def concat_features(globals_: GlobalFeatureVector, vec_latent: np.ndarray) -> GlobalFeatureVector:
    """Column-concatenate global statistics with a latent matrix (N, L),
    statistics first, the latent columns named latent.0 .. latent.L-1.
    Row counts must agree."""
    vec_latent = np.asarray(vec_latent, dtype=np.float64)
    if vec_latent.ndim != 2:
        raise ValueError(f"vec latent must be 2-D (N, L), got shape {vec_latent.shape}")
    if vec_latent.shape[0] != globals_.n_users:
        raise ValueError(
            f"row mismatch: {globals_.n_users} users vs {vec_latent.shape[0]} latent rows"
        )
    names = globals_.column_names + tuple(f"latent.{j}" for j in range(vec_latent.shape[1]))
    return GlobalFeatureVector(
        values=np.hstack([globals_.values, vec_latent]),
        user_ids=globals_.user_ids,
        column_names=names,
    )


def save_features_csv(features: GlobalFeatureVector, path) -> None:
    """Each row as the user id, then the repr of each value (which needs
    no quoting), through ingest.write_csv."""
    write_csv(path, ("user_id",) + features.column_names,
              ((uid, ",".join(map(repr, row)))
               for uid, row in zip(features.user_ids, features.values.tolist())))


def load_features_csv(path) -> GlobalFeatureVector:
    """save_features_csv's file, read by ingest.user_table: a damaged row,
    a repeated user id included, is a ParseError with its line."""
    with reading(path), open_text(path) as fh:
        columns, rows = user_table(fh, None, lambda fields: [float(v) for v in fields])
        values = np.asarray(list(rows.values()), dtype=np.float64).reshape(len(rows), len(columns))
        return GlobalFeatureVector(values, tuple(rows), tuple(columns))
