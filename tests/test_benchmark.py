import json

import numpy as np
import pytest

from qnnbench.benchmark import (
    BenchmarkError,
    ConfigError,
    StabilityMetrics,
    compute_metrics,
    derive_seed,
    experiment_config_from_dict,
    fit_time_model,
    kfold_plan,
    load_experiment_config,
    loss_stats,
    measure_cv_training_time,
    rank_time_models,
    residual_histogram,
    residual_stats,
    run_benchmark,
    stability_scores,
    stability_scores_from_stats,
)
from qnnbench.data import gen_synthetic
from qnnbench.lbfgs import OptimizeOptions
from qnnbench.qnn import QNN_CONFIGS


class TestKfoldPlan:
    def test_five_folds_of_160(self):
        plan = kfold_plan(800, 5, seed=0)
        for fold in range(5):
            assert len(plan.val_indices(fold)) == 160

    def test_folds_partition_all_indices(self):
        plan = kfold_plan(103, 5, seed=1)
        seen = np.concatenate([plan.val_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(103))

    def test_fold_sizes_differ_by_at_most_one(self):
        plan = kfold_plan(103, 5, seed=1)
        sizes = [len(plan.val_indices(f)) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1

    def test_same_seed_same_plan(self):
        a = kfold_plan(50, 5, seed=9)
        b = kfold_plan(50, 5, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_train_and_val_disjoint(self):
        plan = kfold_plan(40, 4, seed=2)
        for fold in range(4):
            assert not set(plan.train_indices(fold)) & set(plan.val_indices(fold))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            kfold_plan(3, 5, seed=0)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        metrics = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert metrics.r2 == 1.0
        assert metrics.rmse == 0.0

    def test_mean_predictor_scores_zero(self, rng):
        y = rng.uniform(0, 100, 50)
        metrics = compute_metrics(y, np.full(50, y.mean()))
        assert metrics.r2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_targets_flagged(self):
        metrics = compute_metrics([5.0, 5.0], [4.0, 6.0])
        assert not metrics.r2_defined
        assert np.isnan(metrics.r2)
        assert metrics.rmse == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([1.0], [1.0, 2.0])


class TestResiduals:
    def test_zero_residuals(self):
        stats = residual_stats([1.0, 2.0], [1.0, 2.0])
        assert stats.mean == 0.0 and stats.std == 0.0

    def test_constant_offset(self):
        stats = residual_stats([1.0, 2.0, 3.0], [2.5, 3.5, 4.5])
        assert stats.mean == pytest.approx(1.5)
        assert stats.std == pytest.approx(0.0)

    def test_population_standard_deviation(self):
        stats = residual_stats([0.0, 0.0], [1.0, -1.0])
        assert stats.std == pytest.approx(1.0)  # ddof=0

    def test_histogram_covers_all_residuals(self, rng):
        y_true = rng.uniform(0, 100, 200)
        y_pred = y_true + rng.normal(0, 5, 200)
        edges, counts = residual_histogram(y_true, y_pred, bins=15)
        assert len(edges) == 16
        assert counts.sum() == 200

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            residual_stats([], [])


class TestLossStats:
    def test_monotone_history_has_zero_spike(self):
        history = np.linspace(1.0, 0.1, 25)
        sd, ms, fl = loss_stats(history)
        assert ms == 0.0
        assert fl == pytest.approx(0.1)
        assert sd == pytest.approx(np.std(history[10:]))

    def test_spike_detected_after_window(self):
        history = np.full(25, 0.5)
        history[17] = 0.9  # jump of 0.4 upward at iteration 18
        _, ms, _ = loss_stats(history)
        assert ms == pytest.approx(0.4)

    def test_spike_before_window_ignored(self):
        history = np.full(25, 0.5)
        history[5] = 2.0
        history[:5] = 3.0
        _, ms, _ = loss_stats(history)
        assert ms == 0.0

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            loss_stats(np.ones(5))


class TestStabilityScores:
    def test_columnwise_maximum_scores_three(self):
        stats = {
            "A": (0.001, 0.002, 0.010),
            "B": (0.009, 0.030, 0.013),
            "C": (0.002, 0.010, 0.011),
        }
        scores = stability_scores_from_stats(stats)
        assert scores["B"].sc == pytest.approx(3.0)
        assert scores["A"].rank == 1
        assert scores["B"].rank == 3

    def test_identical_stats_guarded_to_zero_with_input_order_ties(self):
        stats = {name: (0.5, 0.5, 0.5) for name in ("A", "B", "C")}
        scores = stability_scores_from_stats(stats)
        assert all(m.sc == 0.0 for m in scores.values())
        assert [scores[n].rank for n in ("A", "B", "C")] == [1, 2, 3]

    def test_scores_bounded_zero_to_three(self, rng):
        stats = {f"M{i}": tuple(rng.uniform(0, 1, 3)) for i in range(6)}
        scores = stability_scores_from_stats(stats)
        for metrics in scores.values():
            assert 0.0 <= metrics.sc <= 3.0
        assert sorted(m.rank for m in scores.values()) == [1, 2, 3, 4, 5, 6]

    def test_from_histories_averages_over_sizes(self):
        flat = np.full(25, 0.2)
        noisy = np.full(25, 0.2)
        noisy[12] = 0.5  # one spike
        histories = {"A": [flat, flat], "B": [noisy, flat]}
        scores = stability_scores(histories)
        assert scores["A"].rank == 1
        assert scores["B"].rank == 2
        assert scores["B"].ms == pytest.approx(np.mean([0.3, 0.0]))

    def test_mismatched_history_counts_rejected(self):
        with pytest.raises(ValueError):
            stability_scores({"A": [np.ones(25)], "B": []})


class TestTimeModel:
    def test_exact_line_recovered(self):
        model = fit_time_model([100, 200, 300], [1.0, 2.0, 3.0])
        assert model.slope == pytest.approx(0.01)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.fit_r2 == pytest.approx(1.0)

    def test_two_points_interpolated(self):
        model = fit_time_model([100, 300], [2.0, 4.0])
        assert model.slope == pytest.approx(0.01)
        assert model.fit_r2 == pytest.approx(1.0)

    def test_single_size_rejected(self):
        with pytest.raises(ValueError):
            fit_time_model([100, 100], [1.0, 1.1])

    def test_ranks_ascend_by_slope(self):
        models = {
            "fast": fit_time_model([1, 2], [1.0, 1.5]),
            "slow": fit_time_model([1, 2], [1.0, 3.0]),
            "mid": fit_time_model([1, 2], [1.0, 2.0]),
        }
        assert rank_time_models(models) == {"fast": 1, "mid": 2, "slow": 3}


class TestTimingMeasurement:
    def test_measures_positive_minutes_per_repeat(self):
        rows = gen_synthetic(80, seed=0)
        from qnnbench.data import feature_matrix, minmax_apply, minmax_fit, target_vector

        X, y = feature_matrix(rows), target_vector(rows)
        scaler = minmax_fit(X, y)
        Xs, ys = minmax_apply(scaler, X, y)
        plan = kfold_plan(len(ys), 5, seed=0)
        options = OptimizeOptions(max_iter=3, grad_tol=1e-8, memory=10)
        measurement = measure_cv_training_time(
            QNN_CONFIGS["QNN-6"], Xs, ys, plan, options, fold_seed=lambda f: f, repeats=2
        )
        assert len(measurement.runs) == 2
        assert measurement.minutes > 0.0
        assert measurement.spread >= 0.0


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        config = experiment_config_from_dict({"seed": 5, "sizes": [100]})
        assert config.k_folds == 5
        assert config.synthetic
        assert set(config.models) == set(QNN_CONFIGS) | {"kNN", "DTR", "LR"}
        assert config.optimizer == OptimizeOptions()
        assert config.echo()["optimizer"] == {"max_iter": 25, "grad_tol": 1e-8, "memory": 10}

    def test_optimizer_section_overrides_defaults(self):
        config = experiment_config_from_dict(
            {"seed": 5, "sizes": [100], "optimizer": {"max_iter": 12, "grad_tol": 1e-6}}
        )
        assert config.optimizer == OptimizeOptions(max_iter=12, grad_tol=1e-6, memory=10)

    @pytest.mark.parametrize("entry", [
        {"optimizer": 5},
        {"optimizer": {"max_iter": 0}},
        {"optimizer": {"grad_tol": "tight"}},
        {"timing": [1]},
        {"timing": {"repeats": None}},
        {"k_folds": None},
        {"k_folds": float("inf")},
        {"sizes": [float("inf")]},
        {"data": 5},
        {"data": {"corpus_size": None}},
        {"data": {"csv": 5}},
        {"data": {"csv": "wind.csv", "column_map": ["a"]}},
        {"models": 5},
        {"models": []},
        {"seed": None},
        {"output_dir": 5},
        {"timing": {"repeats": 0}},
        {"timing": {"repeats": -3}},
        {"timing": {"enabled": "false"}},
        {"data": {"synthetic": "false"}},
        {"data": {"csv": "wind.csv", "synthetic": True}},
    ])
    def test_malformed_entry_rejected(self, entry):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"seed": 1, "sizes": [100], **entry})

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"sizes": [100]})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"seed": 1, "sizes": [100], "models": ["SVM"]})

    def test_missing_sizes_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"seed": 1})

    def test_corpus_smaller_than_size_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict(
                {"seed": 1, "sizes": [100], "data": {"synthetic": True, "corpus_size": 50}}
            )

    def test_low_k_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"seed": 1, "sizes": [100], "k_folds": 1})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 2, "sizes": [50], "models": ["kNN"]}))
        config = load_experiment_config(path)
        assert config.seed == 2
        assert config.models == ("kNN",)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "nope.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_experiment_config(path)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 800, "QNN-3", 2) == derive_seed(7, 800, "QNN-3", 2)

    def test_distinct_across_dimensions(self):
        seeds = {
            derive_seed(7, size, model, fold)
            for size in (100, 200)
            for model in ("QNN-1", "QNN-2")
            for fold in (0, 1, 5)
        }
        assert len(seeds) == 12


SMALL_RUN = {
    "seed": 13,
    "sizes": [60, 80],
    "models": ["QNN-6", "kNN", "DTR", "LR"],
    "data": {"synthetic": True, "corpus_size": 200},
    "optimizer": {"max_iter": 25},
}


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    config = experiment_config_from_dict({**SMALL_RUN, "output_dir": str(out)})
    return run_benchmark(config), out


class TestRunBenchmark:
    def test_every_model_size_pair_present(self, small_report):
        report, _ = small_report
        assert len(report.results) == 8
        for model in SMALL_RUN["models"]:
            for size in SMALL_RUN["sizes"]:
                result = report.result_for(model, size)
                assert len(result.fold_metrics) == 5
                assert result.train_size == (4 * size) // 5
                assert result.test_size == size - result.train_size

    def test_loss_histories_only_for_quantum_models(self, small_report):
        report, _ = small_report
        assert report.result_for("QNN-6", 60).loss_histories is not None
        assert len(report.result_for("QNN-6", 60).loss_histories) == 5
        assert report.result_for("kNN", 60).loss_histories is None

    def test_stability_absent_without_all_six_configs(self, small_report):
        report, _ = small_report
        assert report.stability is None

    def test_gate_counts_recorded(self, small_report):
        report, _ = small_report
        assert report.gate_counts["QNN-6"].as_tuple() == (28, 6, 34)

    def test_report_tree_layout(self, small_report):
        _, out = small_report
        assert (out / "summary.json").exists()
        for model in SMALL_RUN["models"]:
            for size in SMALL_RUN["sizes"]:
                directory = out / model / str(size)
                assert (directory / "metrics.json").exists()
                assert (directory / "predictions.csv").exists()
                assert (directory / "residuals.csv").exists()
        assert (out / "QNN-6" / "60" / "loss_history.csv").exists()
        assert not (out / "kNN" / "60" / "loss_history.csv").exists()
        assert (out / "plots" / "cv_metrics_bar.csv").exists()
        assert (out / "plots" / "holdout_comparison.csv").exists()
        assert (out / "plots" / "loss_curves.csv").exists()
        assert (out / "plots" / "error_histograms.csv").exists()

    def test_metrics_json_is_valid(self, small_report):
        _, out = small_report
        payload = json.loads((out / "QNN-6" / "80" / "metrics.json").read_text())
        assert payload["model"] == "QNN-6"
        assert len(payload["cv"]["fold_r2"]) == 5
        assert "rapid_convergence" in payload["loss"]

    def test_predictions_csv_row_count(self, small_report):
        report, out = small_report
        lines = (out / "kNN" / "60" / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + report.result_for("kNN", 60).test_size

    def test_oversized_subset_raises_structured_error(self):
        rows = gen_synthetic(50, seed=0)
        config = experiment_config_from_dict(
            {"seed": 1, "sizes": [100], "models": ["kNN"]}
        )
        with pytest.raises(BenchmarkError) as excinfo:
            run_benchmark(config, rows=rows)
        assert excinfo.value.stage == "data_preparation"
        assert excinfo.value.size == 100


class TestDeterminism:
    def test_same_seed_gives_byte_identical_metrics(self, tmp_path):
        config_dict = {
            "seed": 21,
            "sizes": [60],
            "models": ["QNN-2", "LR"],
            "data": {"synthetic": True, "corpus_size": 150},
        }
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_benchmark(experiment_config_from_dict({**config_dict, "output_dir": str(out_a)}))
        run_benchmark(experiment_config_from_dict({**config_dict, "output_dir": str(out_b)}))
        for rel in (
            "summary.json",
            "QNN-2/60/metrics.json",
            "LR/60/metrics.json",
            "QNN-2/60/loss_history.csv",
            "plots/holdout_comparison.csv",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
