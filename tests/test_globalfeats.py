import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from botclust.globalfeats import (
    CATALOG,
    GlobalFeatureVector,
    concat_features,
    extract_global_features,
    load_features_csv,
    save_features_csv,
    zscore_standardize,
)
from botclust.numerics import seeded_rng

from oracles import oracle_series_stats


def test_catalog_has_19_unique_columns():
    assert len(CATALOG) == 19
    assert len(set(CATALOG)) == 19


def test_stats_match_direct_formulas():
    rng = seeded_rng(5)
    for t_len in (2, 7, 31, 64):
        series = rng.normal(size=t_len)
        feats = extract_global_features(series[np.newaxis])
        ref = oracle_series_stats(series)
        for j, name in enumerate(CATALOG):
            assert feats.values[0, j] == pytest.approx(ref[name], rel=1e-9, abs=1e-9), (
                name,
                t_len,
            )


def test_stats_over_many_rows_match_oracle_and_row_calls():
    rng = seeded_rng(8)
    for t_len in (2, 7, 31, 365):
        walks = np.tanh(np.cumsum(rng.normal(scale=0.3, size=(6, t_len)), axis=1))
        plateaus = walks[:3].copy()
        plateaus[:, t_len // 3 : 2 * t_len // 3 + 1] = -1.0
        constants = np.array([[0.0], [-1.0], [0.75]]) * np.ones(t_len)
        series = np.vstack([walks, constants, plateaus])
        feats = extract_global_features(series)
        for row, values in zip(series, feats.values):
            ref = oracle_series_stats(row)
            for name, value in zip(CATALOG, values):
                assert value == pytest.approx(ref[name], rel=1e-9, abs=1e-9), (name, t_len)
            assert np.array_equal(extract_global_features(row[np.newaxis]).values[0], values)


def test_constant_series_degenerate_stats_are_zero():
    feats = extract_global_features(np.full((1, 10), 2.5))
    by_name = dict(zip(feats.column_names, feats.values[0]))
    assert by_name["mean"] == 2.5
    assert by_name["std"] == 0.0
    assert by_name["variance"] == 0.0
    assert by_name["skewness"] == 0.0
    assert by_name["kurtosis"] == 0.0
    assert by_name["mean_crossings"] == 0.0
    assert by_name["autocorr_lag1"] == 0.0
    assert by_name["autocorr_lag7"] == 0.0
    assert by_name["longest_strike_above_mean"] == 0.0
    assert by_name["count_above_mean"] == 0.0


def test_autocorr_lag_beyond_length_is_zero():
    feats = extract_global_features(np.arange(5.0)[np.newaxis])
    by_name = dict(zip(feats.column_names, feats.values[0]))
    assert by_name["autocorr_lag7"] == 0.0
    assert by_name["autocorr_lag30"] == 0.0
    assert by_name["autocorr_lag1"] != 0.0


def test_alternating_series_counts():
    series = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    feats = extract_global_features(series[np.newaxis])
    by_name = dict(zip(feats.column_names, feats.values[0]))
    assert by_name["mean"] == 0.0
    assert by_name["mean_crossings"] == 5.0
    assert by_name["count_above_mean"] == 3.0
    assert by_name["count_below_mean"] == 3.0
    assert by_name["longest_strike_above_mean"] == 1.0
    assert by_name["autocorr_lag1"] == pytest.approx(-1.0)


def test_rejects_too_short_series():
    with pytest.raises(ValueError, match="at least 2 time steps"):
        extract_global_features(np.zeros((2, 1)))


@pytest.mark.parametrize("shape", [(12,), (4, 12, 1)])
def test_takes_one_series_per_row_only(shape):
    with pytest.raises(ValueError, match=r"latent must be \(N, T\)"):
        extract_global_features(np.zeros(shape))


def test_zscore_hand_values():
    vals = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    feats = GlobalFeatureVector(
        values=vals, user_ids=["a", "b", "c"], column_names=("x", "const")
    )
    z = zscore_standardize(feats)
    # column x: mean 1, population std sqrt(2/3)
    expected = (np.array([0.0, 1.0, 2.0]) - 1.0) / np.sqrt(2.0 / 3.0)
    assert np.allclose(z.values[:, 0], expected, rtol=1e-12)
    # constant column maps to zeros rather than dividing by zero
    assert np.all(z.values[:, 1] == 0.0)
    assert np.allclose(z.values[:, 0].mean(), 0.0, atol=1e-12)
    assert np.allclose(z.values[:, 0].std(), 1.0, rtol=1e-12)


def test_concat_appends_latent_columns():
    feats = GlobalFeatureVector(
        values=np.ones((3, 2)), user_ids=["a", "b", "c"], column_names=("m", "s")
    )
    lat = np.arange(12.0).reshape(3, 4)
    out = concat_features(feats, lat)
    assert out.values.shape == (3, 6)
    assert out.column_names == ("m", "s", "latent.0", "latent.1", "latent.2", "latent.3")
    assert np.array_equal(out.values[:, 2:], lat)
    assert out.user_ids == ["a", "b", "c"]


def test_concat_rejects_row_mismatch():
    feats = GlobalFeatureVector(
        values=np.ones((3, 2)), user_ids=["a", "b", "c"], column_names=("m", "s")
    )
    with pytest.raises(ValueError):
        concat_features(feats, np.ones((2, 4)))


def test_features_csv_roundtrip_exact(tmp_path):
    rng = seeded_rng(7)
    ids = ["u0", "a,b", 'a"b', "a\nb", "é"]   # the last four need quoting or UTF-8
    feats = extract_global_features(rng.normal(size=(5, 20)), user_ids=ids)
    z = zscore_standardize(feats)
    p = tmp_path / "f.csv"
    save_features_csv(z, p)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("user_id",) + z.column_names)
    writer.writerows([uid, *row] for uid, row in zip(ids, z.values.tolist()))
    assert p.read_bytes() == expected.getvalue().encode("utf-8")
    back = load_features_csv(p)
    assert back.user_ids == z.user_ids
    assert back.column_names == z.column_names
    assert np.array_equal(back.values, z.values)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 64, 365])
def test_median_is_np_median_bitwise(t):
    rng = seeded_rng(t)
    x = rng.normal(size=(40, t)) * 10.0 ** rng.integers(-50, 50, size=(40, 1))
    x[::3, ::2] = -0.0            # signed zeros: np.median's mean turns -0.0 into 0.0
    x[1::3] = np.round(x[1::3])   # ties
    got = extract_global_features(x).values[:, CATALOG.index("median")]
    assert np.array_equal(got.view(np.int64), np.median(x, axis=1).view(np.int64))


def test_extract_does_not_import_numpy_ma():
    script = ("import sys, numpy as np\n"
              "from botclust.globalfeats import extract_global_features\n"
              "extract_global_features(np.arange(12.0).reshape(3, 4))\n"
              "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_features_csv_bytes_follow_csv_rules(tmp_path):
    ids = ["plain", "with,comma", 'with"quote', "with\nnewline", "", " lead",
           "with\rreturn", "naïve 東京 ü", 'all, "of\r\nthem" é']
    values = np.array([[0.1, -0.0, 1e-300], [np.nan, np.inf, -np.inf],
                       [2.0, 1e22, -3.5], [5e-324, 0.0, 1 / 3], [7.0, 8.0, 9.0], [1.0, 2.0, 3.0],
                       [-1.5, 0.25, 1e-7], [3.0, -2.0, 1e100], [0.5, 0.5, 0.5]])
    feats = GlobalFeatureVector(values=values, user_ids=tuple(ids), column_names=("a", "b,c", "d"))
    path = tmp_path / "f.csv"
    save_features_csv(feats, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("user_id", "a", "b,c", "d"))
    for uid, row in zip(ids, values):
        writer.writerow([uid] + [repr(float(v)) for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    back = load_features_csv(path)
    # Ids are stripped of surrounding blanks on reading, as in every user table.
    assert back.user_ids == tuple(uid.strip() for uid in ids)
    assert np.array_equal(back.values, values, equal_nan=True)
