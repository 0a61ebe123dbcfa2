import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtdetect.data import (
    AnomalyInTrainWarning,
    CsvSchema,
    DegenerateRange,
    LabeledSeries,
    MissingSamples,
    NonMonotonicTimestamps,
    NormParams,
    SplitSpec,
    SplitTooSmall,
    denormalize,
    fit_norm_params,
    load_series,
    make_windows,
    normalize,
    prepare,
    split_series,
)


def series(values, labels=None):
    return LabeledSeries(np.arange(len(values), dtype=float), np.asarray(values, float), labels)


class TestLoadSeries:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,1.0\n2,2.0\n3,3.0\n")
        s = load_series(p, CsvSchema(timestamp_column="t", value_column="v"))
        assert len(s) == 3
        assert s.labels is None
        np.testing.assert_allclose(s.values, [1.0, 2.0, 3.0])

    def test_label_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v,is_anomaly\n1,1.0,0\n2,2.0,0\n3,9.0,1\n")
        s = load_series(p, CsvSchema("t", "v", "is_anomaly"))
        assert s.labels.tolist() == [False, False, True]

    def test_non_monotonic_timestamps(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n2,1.0\n1,2.0\n")
        with pytest.raises(NonMonotonicTimestamps):
            load_series(p, CsvSchema("t", "v"))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_series("/nonexistent/file.csv")

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,abc\n")
        with pytest.raises(ValueError, match="non-numeric value"):
            load_series(p, CsvSchema("t", "v"))

    def test_iso_timestamps(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("timestamp,value\n2015-09-08 00:00:00,3.5\n2015-09-08 00:05:00,4.5\n")
        s = load_series(p)
        assert s.timestamps[1] - s.timestamps[0] == 300.0

    def test_sampling_period_gap(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n0,1.0\n1,1.0\n3,1.0\n")
        with pytest.raises(MissingSamples):
            load_series(p, CsvSchema("t", "v", sampling_period=1.0))

    def test_bad_label_encoding(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v,l\n1,1.0,yes\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_series(p, CsvSchema("t", "v", "l"))


class TestNormalize:
    def test_endpoints(self):
        s = series([0.0, 5.0, 10.0])
        out = normalize(s, NormParams(0.0, 10.0))
        np.testing.assert_allclose(out.values, [0.0, 0.5, 1.0])

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            NormParams(3.0, 3.0)

    def test_labels_unchanged(self):
        s = series([1.0, 2.0], np.array([True, False]))
        out = normalize(s, NormParams(0.0, 4.0))
        assert out.labels.tolist() == [True, False]

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, values, lo, width):
        params = NormParams(lo, lo + width)
        s = series(values)
        back = denormalize(normalize(s, params), params)
        # 1e-12 relative to the largest magnitude the arithmetic touches;
        # an absolute 1e-12 is unattainable once offsets exceed ~2^12
        scale = max(1.0, abs(lo) + width, float(np.max(np.abs(s.values), initial=0.0)))
        np.testing.assert_allclose(back.values, s.values, atol=1e-12 * scale)

    def test_round_trip_with_fitted_params(self):
        rng = np.random.default_rng(4)
        s = series(rng.uniform(-3.0, 7.0, 50))
        params = fit_norm_params(s)
        back = denormalize(normalize(s, params), params)
        np.testing.assert_allclose(back.values, s.values, atol=1e-12 * 7.0)

    def test_fit_on_train(self):
        s = series([2.0, 4.0, 6.0])
        params = fit_norm_params(s)
        assert (params.min, params.max) == (2.0, 6.0)


class TestSplit:
    def test_lengths(self):
        s = series(np.arange(100.0))
        train, val, test = split_series(s, SplitSpec(0.6, 0.2, 0.2))
        assert (len(train), len(val), len(test)) == (60, 20, 20)

    def test_anomaly_in_train_warns(self):
        labels = np.zeros(100, dtype=bool)
        labels[5] = True
        s = series(np.arange(100.0), labels)
        with pytest.warns(AnomalyInTrainWarning):
            split_series(s, SplitSpec(0.6, 0.2, 0.2))

    def test_split_too_small(self):
        s = series(np.arange(10.0))
        with pytest.raises(SplitTooSmall):
            split_series(s, SplitSpec(0.6, 0.2, 0.2), look_back=8, look_ahead=1)

    def test_concatenation_reproduces_input(self):
        rng = np.random.default_rng(0)
        s = series(rng.normal(size=83), rng.uniform(size=83) < 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AnomalyInTrainWarning)
            train, val, test = split_series(s, SplitSpec(0.5, 0.25, 0.25))
        np.testing.assert_array_equal(
            np.concatenate([train.values, val.values, test.values]), s.values
        )
        np.testing.assert_array_equal(
            np.concatenate([train.labels, val.labels, test.labels]), s.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([train.timestamps, val.timestamps, test.timestamps]), s.timestamps
        )

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.2, -0.2)


class TestWindow:
    def test_enumerated(self):
        ds = make_windows(series([1.0, 2.0, 3.0, 4.0]), look_back=2, look_ahead=1)
        np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3]])
        np.testing.assert_array_equal(ds.targets, [[3], [4]])
        np.testing.assert_array_equal(ds.target_indices, [2, 3])

    def test_count_formula(self):
        ds = make_windows(series(np.arange(1.0, 11.0)), look_back=3, look_ahead=2)
        assert len(ds) == 6

    def test_minimal(self):
        ds = make_windows(series([1.0, 2.0]), look_back=1, look_ahead=1)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.inputs, [[1.0]])
        np.testing.assert_array_equal(ds.targets, [[2.0]])

    def test_too_short(self):
        with pytest.raises(SplitTooSmall):
            make_windows(series([1.0, 2.0]), look_back=2, look_ahead=1)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_count_property(self, look_back, look_ahead, extra):
        n = look_back + look_ahead + extra
        ds = make_windows(series(np.arange(float(n))), look_back, look_ahead)
        assert len(ds) == n - look_back - look_ahead + 1

    def test_target_indices_map_to_timestamps(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=40)
        s = series(values)
        ds = make_windows(s, look_back=5, look_ahead=3)
        for i in range(len(ds)):
            t = ds.target_indices[i]
            np.testing.assert_array_equal(ds.targets[i], values[t : t + 3])
            np.testing.assert_array_equal(ds.inputs[i], values[t - 5 : t])


def test_prepare_normalizes_with_train_range_and_offsets_each_part():
    labels = np.zeros(20, dtype=bool)
    labels[15] = True
    s = series(np.arange(20.0) ** 2, labels)
    (train, val, test), windows, offsets = prepare(s, SplitSpec(0.5, 0.25, 0.25), 3, 1)
    assert offsets == (0, 10, 15)
    assert (train.values.min(), train.values.max()) == (0.0, 1.0)
    np.testing.assert_allclose(test.values, (np.arange(15.0, 20.0) ** 2) / 81.0)
    assert test.labels.tolist() == [True, False, False, False, False]
    assert [len(w) for w in windows] == [7, 2, 2]
    np.testing.assert_array_equal(windows[2].inputs[0], test.values[:3])
