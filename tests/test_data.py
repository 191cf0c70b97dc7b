import csv

import numpy as np
import pytest

from qnnbench.data import (
    COLUMNS,
    DataRangeWarning,
    RowError,
    SamplePoint,
    SchemaError,
    feature_matrix,
    gen_synthetic,
    load_dataset,
    minmax_apply,
    minmax_fit,
    minmax_invert_target,
    power_curve,
    subset_and_split,
    target_vector,
    write_dataset,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


GOOD_ROWS = [
    [3.5, 1015.2, 210.0, 5.6, 350.1],
    [-1.0, 1001.0, 180.5, 12.1, 1800.0],
    [8.2, 1030.7, 300.0, 0.9, 4.0],
]


class TestLoadDataset:
    # noisy synthetic power can exceed the real dataset's maximum, which
    # load_dataset flags (intentionally) as a range warning
    @pytest.mark.filterwarnings("ignore::qnnbench.data.DataRangeWarning")
    def test_round_trip_through_csv(self, tmp_path):
        rows = gen_synthetic(50, seed=3)
        path = tmp_path / "synth.csv"
        write_dataset(path, rows)
        loaded = load_dataset(path)
        assert loaded == rows

    def test_named_columns_in_any_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        write_csv(
            path,
            ["Power", "Velocity", "Temperature", "Pressure", "Direction"],
            [[row[4], row[3], row[0], row[1], row[2]] for row in GOOD_ROWS],
        )
        loaded = load_dataset(path)
        assert loaded[0] == SamplePoint(3.5, 1015.2, 210.0, 5.6, 350.1)

    def test_column_aliases(self, tmp_path):
        path = tmp_path / "aliased.csv"
        write_csv(path, ["Temp", "Pressure", "Direction", "WindSpeed", "Power"], GOOD_ROWS)
        loaded = load_dataset(
            path, column_map={"Temperature": "Temp", "Velocity": "WindSpeed"}
        )
        assert len(loaded) == 3

    def test_missing_column_names_the_column(self, tmp_path):
        path = tmp_path / "missing.csv"
        write_csv(path, ["Temperature", "Pressure", "Direction", "Power"],
                  [[r[0], r[1], r[2], r[4]] for r in GOOD_ROWS])
        with pytest.raises(SchemaError, match="Velocity"):
            load_dataset(path)

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_header_only_is_schema_error(self, tmp_path):
        path = tmp_path / "header_only.csv"
        write_csv(path, COLUMNS, [])
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad_row.csv"
        write_csv(path, COLUMNS, [GOOD_ROWS[0], ["oops", 1, 2, 3, 4], GOOD_ROWS[1]])
        with pytest.raises(RowError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line == 3  # header is line 1

    def test_out_of_range_values_warn_not_error(self, tmp_path):
        path = tmp_path / "odd_range.csv"
        write_csv(path, COLUMNS, [[25.0, 1015.0, 210.0, 5.0, 350.0]])  # hot day
        with pytest.warns(DataRangeWarning):
            rows = load_dataset(path)
        assert len(rows) == 1

    def test_negative_velocity_is_row_error(self, tmp_path):
        path = tmp_path / "bad_velocity.csv"
        write_csv(path, COLUMNS, [[3.0, 1015.0, 210.0, -1.0, 350.0]])
        with pytest.raises(RowError):
            load_dataset(path)


class TestMinMaxScaler:
    def test_endpoints_map_to_zero_and_one(self, rng):
        X = rng.normal(size=(30, 4)) * 10
        y = rng.uniform(0, 2000, 30)
        scaler = minmax_fit(X, y)
        Xs, ys = minmax_apply(scaler, X, y)
        np.testing.assert_allclose(Xs.min(axis=0), np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(Xs.max(axis=0), np.ones(4), atol=1e-15)
        assert ys.min() == 0.0 and ys.max() == 1.0

    def test_round_trip_identity(self, rng):
        X = rng.normal(size=(20, 4))
        y = rng.uniform(0, 2000, 20)
        scaler = minmax_fit(X, y)
        _, ys = minmax_apply(scaler, X, y)
        np.testing.assert_allclose(minmax_invert_target(scaler, ys), y, atol=1e-12)

    def test_unseen_rows_may_leave_unit_interval(self, rng):
        X = rng.uniform(0, 1, (20, 4))
        y = rng.uniform(100, 200, 20)
        scaler = minmax_fit(X, y)
        outside, _ = minmax_apply(scaler, X + 5.0, y)
        assert outside.max() > 1.0  # no clamping

    def test_constant_column_scales_to_zero_with_warning(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.arange(5.0)
        with pytest.warns(DataRangeWarning):
            scaler = minmax_fit(X, y)
        Xs = minmax_apply(scaler, X)
        np.testing.assert_array_equal(Xs[:, 0], np.zeros(5))

    def test_fit_on_empty_rejected(self):
        with pytest.raises(ValueError):
            minmax_fit(np.empty((0, 4)), np.empty(0))

    def test_apply_checks_the_fitted_width(self, rng):
        X = rng.uniform(0, 1, (20, 4))
        scaler = minmax_fit(X, rng.uniform(100, 200, 20))
        # a one-column request would broadcast into four scaled columns
        for request in (X[:, :1], X[:, :3], X[0, :1], X[:, :, None]):
            with pytest.raises(ValueError, match="4 features"):
                minmax_apply(scaler, request)
        np.testing.assert_array_equal(minmax_apply(scaler, X[0]), minmax_apply(scaler, X)[0])


class TestSubsetAndSplit:
    def test_eighty_twenty_partition(self):
        rows = gen_synthetic(1000, seed=0)
        split = subset_and_split(rows, 1000, seed=1)
        assert len(split.train_idx) == 800
        assert len(split.test_idx) == 200

    def test_same_seed_reproduces_indices(self):
        rows = gen_synthetic(500, seed=0)
        a = subset_and_split(rows, 400, seed=9)
        b = subset_and_split(rows, 400, seed=9)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_train_and_test_are_disjoint(self):
        rows = gen_synthetic(500, seed=0)
        split = subset_and_split(rows, 300, seed=2)
        assert not set(split.train_idx.tolist()) & set(split.test_idx.tolist())
        assert len(set(split.train_idx.tolist())) == len(split.train_idx)

    def test_different_seeds_differ(self):
        rows = gen_synthetic(500, seed=0)
        a = subset_and_split(rows, 400, seed=1)
        b = subset_and_split(rows, 400, seed=2)
        assert not np.array_equal(a.train_idx, b.train_idx)

    def test_oversized_subset_rejected(self):
        rows = gen_synthetic(100, seed=0)
        with pytest.raises(ValueError):
            subset_and_split(rows, 101, seed=0)


class TestScalerLeakGuard:
    def test_scaler_ignores_test_rows(self):
        rows = gen_synthetic(500, seed=7)
        split = subset_and_split(rows, 400, seed=7)
        X, y = feature_matrix(rows), target_vector(rows)
        fitted = minmax_fit(X[split.train_idx], y[split.train_idx])
        # recompute from the training rows alone; must be identical
        recomputed = minmax_fit(X[split.train_idx], y[split.train_idx])
        np.testing.assert_array_equal(fitted.mins, recomputed.mins)
        np.testing.assert_array_equal(fitted.maxs, recomputed.maxs)
        train_table = np.column_stack([X[split.train_idx], y[split.train_idx]])
        np.testing.assert_array_equal(fitted.mins, train_table.min(axis=0))
        np.testing.assert_array_equal(fitted.maxs, train_table.max(axis=0))


class TestSyntheticGenerator:
    def test_same_seed_reproduces_rows(self):
        assert gen_synthetic(100, seed=5) == gen_synthetic(100, seed=5)

    def test_low_velocity_means_low_power(self):
        rows = gen_synthetic(2000, seed=1)
        slow = [r.power for r in rows if r.velocity < 1.0]
        assert slow and max(slow) < 200.0

    def test_power_curve_nondecreasing(self):
        velocity = np.linspace(0.0, 25.0, 500)
        power = power_curve(velocity)
        assert np.all(np.diff(power) >= 0.0)

    def test_zero_noise_corpus_monotone_in_velocity(self):
        rows = gen_synthetic(300, seed=2, noise_kw=0.0)
        ordered = sorted(rows, key=lambda r: r.velocity)
        powers = np.array([r.power for r in ordered])
        assert np.all(np.diff(powers) >= 0.0)

    def test_features_within_plausible_ranges(self):
        rows = gen_synthetic(500, seed=3)
        X = feature_matrix(rows)
        assert X[:, 0].min() >= -5.29 and X[:, 0].max() <= 10.0
        assert X[:, 1].min() >= 979.79 and X[:, 1].max() <= 1035.72
        assert X[:, 2].min() >= 100.67 and X[:, 2].max() <= 359.78
        assert X[:, 3].min() >= 0.32 and X[:, 3].max() <= 21.07

    def test_power_clipped_at_zero(self):
        rows = gen_synthetic(2000, seed=4)
        assert min(r.power for r in rows) >= 0.0
