"""End-to-end benchmark protocol.

For every requested (model, subset size) pair the harness draws a seeded
subset, splits it 80/20, fits the min-max scaler on the training split
only (:func:`scaled_subset`), runs seeded k-fold cross-validation, then
trains once more on the full training split and scores the untouched 20%
hold-out.  Every fit goes through :func:`fit_and_predict`, which
``qnnbench bench train`` shares, so that command reproduces the hold-out
of a ``bench run`` with default folds and optimiser.  Quantum models
additionally record per-iteration loss histories, which feed a stability
score (sum of min-max-normalised loss standard deviation, maximum
post-convergence spike, and final loss).  An optional, strictly serial
timing phase re-runs the cross-validation trainings under a wall clock and
fits minutes = a * train_size + b per configuration.

Everything except wall-clock timings is a pure function of (data, seed,
configuration), so two runs with the same seed produce byte-identical
metric files.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import DecisionTreeRegressor, KnnRegressor, ols_fit
from .circuits import GateCensus, gate_census
from .data import (
    DataError,
    SamplePoint,
    feature_matrix,
    gen_synthetic,
    load_dataset,
    minmax_apply,
    minmax_fit,
    minmax_invert_target,
    subset_and_split,
    target_vector,
)
from .lbfgs import OptimizeOptions
from .qnn import QNN_CONFIGS, predict, train

BASELINE_MODELS = ("kNN", "DTR", "LR")
ALL_MODELS = tuple(QNN_CONFIGS) + BASELINE_MODELS

K_FOLDS = 5  # default cross-validation folds
CORPUS_SIZE = 5000  # rows of the synthetic corpus when no dataset is given
_OPTIMIZER_KEYS = {"max_iter": int, "grad_tol": float, "memory": int}  # config "optimizer"

# Loss-history windows for the stability statistics: the convergence phase
# is over after ~10 iterations, so spread and spikes are measured from there.
STABILITY_WINDOW_START = 10
RAPID_CONVERGENCE_RATIO = 1.10  # loss at iteration 15 within 10% of iteration 25


class ConfigError(Exception):
    """The experiment description itself is invalid."""


class BenchmarkError(Exception):
    """A benchmark stage failed; records where."""

    def __init__(self, stage: str, message: str, model: str | None = None,
                 size: int | None = None, fold: int | None = None):
        parts = [f"stage={stage}"]
        if model is not None:
            parts.append(f"model={model}")
        if size is not None:
            parts.append(f"size={size}")
        if fold is not None:
            parts.append(f"fold={fold}")
        super().__init__(f"[{' '.join(parts)}] {message}")
        self.stage = stage
        self.model = model
        self.size = size
        self.fold = fold


# ---------------------------------------------------------------------------
# cross-validation folds


@dataclass(frozen=True)
class FoldPlan:
    """Seeded shuffle-then-chunk assignment of sample indices to k folds."""

    k: int
    assignments: np.ndarray  # fold id per sample index

    def val_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def kfold_plan(n: int, k: int, seed: int) -> FoldPlan:
    """Partition ``n`` indices into ``k`` folds whose sizes differ by at
    most one: seeded shuffle followed by contiguous chunking."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=int)
    for fold, chunk in enumerate(np.array_split(perm, k)):
        assignments[chunk] = fold
    return FoldPlan(k=k, assignments=assignments)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricPair:
    """Coefficient of determination plus RMSE in kW.  ``r2_defined`` is
    False when the true targets have zero variance (r2 is NaN then)."""

    r2: float
    rmse: float
    r2_defined: bool = True


def compute_metrics(y_true_kw, y_pred_kw) -> MetricPair:
    y_true = np.asarray(y_true_kw, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred_kw, dtype=float).reshape(-1)
    if len(y_true) == 0 or len(y_true) != len(y_pred):
        raise ValueError("need equal, non-zero numbers of targets and predictions")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    rmse = float(np.sqrt(np.mean((y_true - y_pred) ** 2)))
    if ss_tot == 0.0:
        return MetricPair(r2=float("nan"), rmse=rmse, r2_defined=False)
    return MetricPair(r2=1.0 - ss_res / ss_tot, rmse=rmse)


@dataclass(frozen=True)
class ResidualStats:
    mean: float  # bias, kW
    std: float  # population standard deviation, kW


def residual_stats(y_true_kw, y_pred_kw) -> ResidualStats:
    y_true = np.asarray(y_true_kw, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred_kw, dtype=float).reshape(-1)
    if len(y_true) == 0 or len(y_true) != len(y_pred):
        raise ValueError("need equal, non-zero numbers of targets and predictions")
    residuals = y_pred - y_true
    return ResidualStats(mean=float(np.mean(residuals)), std=float(np.std(residuals)))


def residual_histogram(y_true_kw, y_pred_kw, bins: int = 20):
    """Plot-ready histogram of prediction errors: (bin_edges, counts)."""
    residuals = np.asarray(y_pred_kw, dtype=float) - np.asarray(y_true_kw, dtype=float)
    counts, edges = np.histogram(residuals, bins=bins)
    return edges, counts


# ---------------------------------------------------------------------------
# loss-history stability analysis


def loss_stats(history) -> tuple[float, float, float]:
    """(spread, max spike, final loss) of one per-iteration loss history.

    Spread is the standard deviation over iterations 11..end, the spike is
    the largest positive iteration-over-iteration increase after iteration
    10 (0 when the tail is monotone), and the final loss is the last entry.
    """
    values = np.asarray(history, dtype=float).reshape(-1)
    if len(values) <= STABILITY_WINDOW_START + 1:
        raise ValueError(
            f"history too short ({len(values)}) for stability statistics"
        )
    tail = values[STABILITY_WINDOW_START:]
    diffs = np.diff(values[STABILITY_WINDOW_START - 1:])
    max_spike = float(max(0.0, diffs.max()))
    return float(np.std(tail)), max_spike, float(values[-1])


@dataclass(frozen=True)
class StabilityMetrics:
    sd: float
    ms: float
    fl: float
    sc: float
    rank: int


def _minmax_normalize(column: np.ndarray) -> np.ndarray:
    lo, hi = column.min(), column.max()
    if hi == lo:  # degenerate column: everything equally stable
        return np.zeros_like(column)
    return (column - lo) / (hi - lo)


def stability_scores_from_stats(stats: dict[str, tuple[float, float, float]]
                                ) -> dict[str, StabilityMetrics]:
    """Scores and ranks from per-configuration (spread, spike, final-loss)
    triples.  Each column is min-max normalised across configurations, the
    score is their sum (0 = most stable, 3 = least), and ranks ascend by
    score with ties broken by input order."""
    if not stats:
        raise ValueError("no configurations supplied")
    names = list(stats)
    table = np.array([stats[name] for name in names], dtype=float)
    normalized = np.column_stack([_minmax_normalize(table[:, j]) for j in range(3)])
    scores = normalized.sum(axis=1)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(names), dtype=int)
    ranks[order] = np.arange(1, len(names) + 1)
    return {
        name: StabilityMetrics(
            sd=float(table[i, 0]),
            ms=float(table[i, 1]),
            fl=float(table[i, 2]),
            sc=float(scores[i]),
            rank=int(ranks[i]),
        )
        for i, name in enumerate(names)
    }


def stability_scores(histories_by_config: dict[str, list]) -> dict[str, StabilityMetrics]:
    """Stability metrics from per-configuration loss histories, one history
    per dataset size, each averaged over folds upstream.  Statistics are
    averaged across sizes before normalisation."""
    if not histories_by_config:
        raise ValueError("no configurations supplied")
    counts = {name: len(histories) for name, histories in histories_by_config.items()}
    if min(counts.values()) == 0 or len(set(counts.values())) != 1:
        raise ValueError(f"every configuration needs the same number of histories: {counts}")
    stats = {
        name: tuple(np.mean([loss_stats(h) for h in histories], axis=0))
        for name, histories in histories_by_config.items()
    }
    return stability_scores_from_stats(stats)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True)
class TimeModel:
    """Least-squares line minutes = slope * size + intercept."""

    slope: float
    intercept: float
    fit_r2: float


def fit_time_model(sizes, minutes) -> TimeModel:
    sizes = np.asarray(sizes, dtype=float).reshape(-1)
    minutes = np.asarray(minutes, dtype=float).reshape(-1)
    if len(sizes) != len(minutes):
        raise ValueError("sizes and minutes lengths differ")
    if len(np.unique(sizes)) < 2:
        raise ValueError("need at least two distinct sizes to fit a line")
    design = np.column_stack([sizes, np.ones(len(sizes))])
    (slope, intercept), _, _, _ = np.linalg.lstsq(design, minutes, rcond=None)
    fitted = slope * sizes + intercept
    ss_tot = float(np.sum((minutes - minutes.mean()) ** 2))
    ss_res = float(np.sum((minutes - fitted) ** 2))
    fit_r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TimeModel(slope=float(slope), intercept=float(intercept), fit_r2=float(fit_r2))


def rank_time_models(models: dict[str, TimeModel]) -> dict[str, int]:
    """Rank configurations by ascending slope (1 = most time-efficient)."""
    names = list(models)
    order = np.argsort([models[n].slope for n in names], kind="stable")
    ranks = {}
    for position, idx in enumerate(order, start=1):
        ranks[names[idx]] = position
    return ranks


@dataclass(frozen=True)
class TimingMeasurement:
    minutes: float  # mean over repeats
    runs: tuple[float, ...]  # individual repeat measurements

    @property
    def spread(self) -> float:
        return float(max(self.runs) - min(self.runs))

    @property
    def best(self) -> float:
        """Fastest repeat; scheduler interference only ever adds time, so
        the minimum is the cleanest estimate of the intrinsic runtime."""
        return float(min(self.runs))


def measure_cv_training_time(config, X, y, plan: FoldPlan,
                             options: OptimizeOptions, fold_seed,
                             repeats: int = 1) -> TimingMeasurement:
    """Wall-clock minutes for the full k-fold training of one configuration.

    Must run serially with no concurrent benchmark work; ``fold_seed``
    maps a fold index to the training seed so the measured work matches
    the metric phase exactly.  Each repeat starts from a collected heap so
    garbage-collection pauses do not land inside the timed section.
    """
    runs = []
    for _ in range(max(1, repeats)):
        gc.collect()
        start = time.perf_counter()
        for fold in range(plan.k):
            idx = plan.train_indices(fold)
            train(config, X[idx], y[idx], seed=fold_seed(fold), options=options)
        runs.append((time.perf_counter() - start) / 60.0)
    return TimingMeasurement(minutes=float(np.mean(runs)), runs=tuple(runs))


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    models: tuple[str, ...]
    sizes: tuple[int, ...]
    k_folds: int = K_FOLDS
    csv_path: str | None = None
    column_map: dict | None = None
    corpus_size: int = CORPUS_SIZE
    optimizer: OptimizeOptions = field(default_factory=OptimizeOptions)
    timing_enabled: bool = False
    timing_repeats: int = 1
    output_dir: str | None = None

    @property
    def synthetic(self) -> bool:
        """Whether rows come from the seeded synthetic corpus (no CSV given)."""
        return self.csv_path is None

    def echo(self) -> dict:
        """Config summary embedded in reports (paths excluded so reports
        stay byte-identical across output locations)."""
        return {
            "seed": self.seed,
            "models": list(self.models),
            "sizes": list(self.sizes),
            "k_folds": self.k_folds,
            "synthetic": self.synthetic,
            "corpus_size": self.corpus_size if self.synthetic else None,
            "optimizer": {key: getattr(self.optimizer, key) for key in _OPTIMIZER_KEYS},
        }


def _section(payload: dict, key: str) -> dict:
    value = payload.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object, got {value!r}")
    return value


def _number(kind, value, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from None


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _optional_path(value, what: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {value!r}")
    return value


def experiment_config_from_dict(payload: dict) -> ExperimentConfig:
    """Validate a parsed experiment description; every malformed or
    out-of-range entry raises :class:`ConfigError`."""
    if not isinstance(payload, dict):
        raise ConfigError("experiment config must be a JSON object")
    if "seed" not in payload:
        raise ConfigError("missing required key 'seed'")
    seed = _number(int, payload["seed"], "seed")

    models = payload.get("models", ALL_MODELS)
    if not isinstance(models, (list, tuple)) or not models:
        raise ConfigError(f"'models' must be a non-empty list, got {models!r}")
    for model in models:
        if model not in ALL_MODELS:
            raise ConfigError(f"unknown model {model!r}; expected one of {ALL_MODELS}")

    sizes_raw = payload.get("sizes")
    if not sizes_raw:
        raise ConfigError("missing required key 'sizes'")
    try:
        sizes = tuple(int(s) for s in sizes_raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"sizes must be integers, got {sizes_raw!r}") from None
    if any(s < 5 for s in sizes):
        raise ConfigError("every size must be >= 5")

    data = _section(payload, "data")
    csv_path = _optional_path(data.get("csv"), "data.csv")
    synthetic = _flag(data.get("synthetic", csv_path is None), "data.synthetic")
    if csv_path is None and not synthetic:
        raise ConfigError("'data' must supply a csv path or set synthetic=true")
    if csv_path is not None and synthetic:
        raise ConfigError("'data' gives a csv path and sets synthetic=true; choose one")
    column_map = data.get("column_map")
    if column_map is not None and not isinstance(column_map, dict):
        raise ConfigError(f"data.column_map must be an object, got {column_map!r}")
    corpus_size = _number(int, data.get("corpus_size", max(CORPUS_SIZE, max(sizes))),
                          "data.corpus_size")
    if synthetic and corpus_size < max(sizes):
        raise ConfigError(
            f"synthetic corpus_size {corpus_size} is smaller than the largest size {max(sizes)}"
        )

    k_folds = _number(int, payload.get("k_folds", K_FOLDS), "k_folds")
    if k_folds < 2:
        raise ConfigError("k_folds must be >= 2")

    section = _section(payload, "optimizer")
    optimizer = OptimizeOptions(**{
        key: _number(kind, section[key], f"optimizer.{key}")
        for key, kind in _OPTIMIZER_KEYS.items() if key in section
    })
    try:
        optimizer.validate()
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None

    timing = _section(payload, "timing")
    timing_repeats = _number(int, timing.get("repeats", 1), "timing.repeats")
    if timing_repeats < 1:
        raise ConfigError(f"timing.repeats must be >= 1, got {timing_repeats}")
    return ExperimentConfig(
        seed=seed,
        models=tuple(models),
        sizes=sizes,
        k_folds=k_folds,
        csv_path=csv_path,
        column_map=column_map,
        corpus_size=corpus_size,
        optimizer=optimizer,
        timing_enabled=_flag(timing.get("enabled", False), "timing.enabled"),
        timing_repeats=timing_repeats,
        output_dir=_optional_path(payload.get("output_dir"), "output_dir"),
    )


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return experiment_config_from_dict(payload)


# ---------------------------------------------------------------------------
# orchestration


def derive_seed(base_seed: int, size: int, model: str, fold: int) -> int:
    """Stable per-(size, model, fold) training seed; the hold-out training
    uses ``fold = k``."""
    if model not in ALL_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {ALL_MODELS}")
    sequence = np.random.SeedSequence((base_seed, size, ALL_MODELS.index(model), fold))
    return int(sequence.generate_state(1)[0])


def scaled_subset(rows, X_all, y_all, size: int, seed: int):
    """Seeded ``size``-row subset split 80/20, with the min-max scaler
    fitted on the training rows only: ``(scaler, Xtr, ytr, Xte, yte)``."""
    split = subset_and_split(rows, size, seed)
    scaler = minmax_fit(X_all[split.train_idx], y_all[split.train_idx])
    Xtr, ytr = minmax_apply(scaler, X_all[split.train_idx], y_all[split.train_idx])
    Xte, yte = minmax_apply(scaler, X_all[split.test_idx], y_all[split.test_idx])
    return scaler, Xtr, ytr, Xte, yte


@dataclass
class ModelSizeResult:
    model: str
    size: int
    train_size: int
    test_size: int
    fold_metrics: list[MetricPair]
    holdout: MetricPair
    residuals: ResidualStats
    y_true_kw: np.ndarray = field(repr=False)
    y_pred_kw: np.ndarray = field(repr=False)
    loss_histories: list[np.ndarray] | None = None  # per fold, quantum models only
    holdout_history: np.ndarray | None = None
    convergence_ratios: list[float] | None = None  # loss@15 / loss@25 per fold

    @property
    def cv_mean_r2(self) -> float:
        return float(np.mean([m.r2 for m in self.fold_metrics]))

    @property
    def cv_std_r2(self) -> float:
        return float(np.std([m.r2 for m in self.fold_metrics], ddof=1))

    @property
    def cv_mean_rmse(self) -> float:
        return float(np.mean([m.rmse for m in self.fold_metrics]))

    @property
    def cv_std_rmse(self) -> float:
        return float(np.std([m.rmse for m in self.fold_metrics], ddof=1))

    @property
    def mean_loss_history(self) -> np.ndarray | None:
        if self.loss_histories is None:
            return None
        return np.mean(self.loss_histories, axis=0)

    @property
    def rapid_convergence(self) -> bool | None:
        if self.convergence_ratios is None:
            return None
        return all(r <= RAPID_CONVERGENCE_RATIO for r in self.convergence_ratios)


@dataclass
class TimingReport:
    train_sizes: dict[int, int]  # subset size -> training-split size
    measurements: dict[str, dict[int, TimingMeasurement]]
    models: dict[str, TimeModel]
    ranks: dict[str, int]


@dataclass
class BenchmarkReport:
    config: ExperimentConfig
    results: list[ModelSizeResult]
    gate_counts: dict[str, GateCensus]
    stability: dict[str, StabilityMetrics] | None = None
    timing: TimingReport | None = None

    def result_for(self, model: str, size: int) -> ModelSizeResult:
        for result in self.results:
            if result.model == model and result.size == size:
                return result
        raise KeyError(f"no result for ({model}, {size})")


def _convergence_ratio(history: np.ndarray) -> float:
    fifteenth, final = float(history[14]), float(history[24])
    if final == 0.0:
        return 1.0 if fifteenth == 0.0 else float("inf")
    return fifteenth / final


def fit_predict_baseline(model_name: str, X_train, y_train, X_eval) -> np.ndarray:
    if model_name == "kNN":
        return KnnRegressor(k=5, p=2.0).fit(X_train, y_train).predict(X_eval)
    if model_name == "DTR":
        return DecisionTreeRegressor().fit(X_train, y_train).predict(X_eval)
    if model_name == "LR":
        return ols_fit(X_train, y_train).predict(X_eval)
    raise ValueError(f"unknown baseline {model_name!r}")


def fit_and_predict(model_name: str, X_fit, y_fit, X_eval, seed: int,
                    options: OptimizeOptions | None = None):
    """Fit one model on scaled rows and predict ``X_eval`` in scaled units.

    Returns ``(predictions, model, loss_history)``; the last two are None
    for the baselines, which ignore ``seed`` and ``options``.
    """
    if model_name in QNN_CONFIGS:
        model, history = train(QNN_CONFIGS[model_name], X_fit, y_fit, seed=seed,
                               options=options)
        return predict(model, X_eval), model, history
    return fit_predict_baseline(model_name, X_fit, y_fit, X_eval), None, None


def _evaluate_model(model_name: str, size: int, scaler, Xtr, ytr, Xte, yte,
                    plan: FoldPlan, config: ExperimentConfig) -> ModelSizeResult:
    fold_metrics = []
    histories = []
    for fold in range(plan.k):
        tr, va = plan.train_indices(fold), plan.val_indices(fold)
        try:
            pred_scaled, _, history = fit_and_predict(
                model_name, Xtr[tr], ytr[tr], Xtr[va],
                derive_seed(config.seed, size, model_name, fold), config.optimizer)
            y_true_kw = minmax_invert_target(scaler, ytr[va])
            y_pred_kw = minmax_invert_target(scaler, pred_scaled)
            fold_metrics.append(compute_metrics(y_true_kw, y_pred_kw))
        except Exception as exc:
            raise BenchmarkError("cross_validation", str(exc), model=model_name,
                                 size=size, fold=fold) from exc
        histories.append(history)

    try:
        pred_scaled, _, holdout_history = fit_and_predict(
            model_name, Xtr, ytr, Xte,
            derive_seed(config.seed, size, model_name, plan.k), config.optimizer)
        y_true_kw = minmax_invert_target(scaler, yte)
        y_pred_kw = minmax_invert_target(scaler, pred_scaled)
        holdout = compute_metrics(y_true_kw, y_pred_kw)
        residuals = residual_stats(y_true_kw, y_pred_kw)
    except Exception as exc:
        raise BenchmarkError("holdout", str(exc), model=model_name, size=size) from exc

    quantum = holdout_history is not None
    return ModelSizeResult(
        model=model_name,
        size=size,
        train_size=len(ytr),
        test_size=len(yte),
        fold_metrics=fold_metrics,
        holdout=holdout,
        residuals=residuals,
        y_true_kw=y_true_kw,
        y_pred_kw=np.asarray(y_pred_kw, dtype=float),
        loss_histories=histories if quantum else None,
        holdout_history=holdout_history,
        convergence_ratios=[_convergence_ratio(h) for h in histories] if quantum else None,
    )


def _load_rows(config: ExperimentConfig) -> list[SamplePoint]:
    if config.csv_path is not None:
        return load_dataset(config.csv_path, config.column_map)
    return gen_synthetic(config.corpus_size, config.seed)


def run_benchmark(config: ExperimentConfig,
                  rows: list[SamplePoint] | None = None) -> BenchmarkReport:
    """Execute the full protocol and, when the config names an output
    directory, write the report tree there."""
    if rows is None:
        try:
            rows = _load_rows(config)
        except DataError:
            raise
        except OSError as exc:
            raise DataError(str(exc)) from exc

    X_all, y_all = feature_matrix(rows), target_vector(rows)
    results: list[ModelSizeResult] = []
    prepared = {}
    for size in config.sizes:
        try:
            scaler, Xtr, ytr, Xte, yte = scaled_subset(rows, X_all, y_all, size, config.seed)
            plan = kfold_plan(len(ytr), config.k_folds, config.seed)
        except Exception as exc:
            raise BenchmarkError("data_preparation", str(exc), size=size) from exc
        prepared[size] = (scaler, Xtr, ytr, Xte, yte, plan)
        for model_name in config.models:
            results.append(
                _evaluate_model(model_name, size, scaler, Xtr, ytr, Xte, yte, plan, config)
            )

    report = BenchmarkReport(
        config=config,
        results=results,
        gate_counts={
            name: gate_census(QNN_CONFIGS[name].circuit())
            for name in config.models
            if name in QNN_CONFIGS
        },
    )

    qnn_models = [m for m in config.models if m in QNN_CONFIGS]
    if set(qnn_models) == set(QNN_CONFIGS):
        histories = {
            name: [report.result_for(name, size).mean_loss_history for size in config.sizes]
            for name in QNN_CONFIGS
        }
        try:
            report.stability = stability_scores(histories)
        except Exception as exc:
            raise BenchmarkError("stability", str(exc)) from exc

    if config.timing_enabled and qnn_models:
        measurements: dict[str, dict[int, TimingMeasurement]] = {}
        train_sizes: dict[int, int] = {}
        for name in qnn_models:
            measurements[name] = {}
            for size in config.sizes:
                _, Xtr, ytr, _, _, plan = prepared[size]
                train_sizes[size] = len(ytr)
                try:
                    measurements[name][size] = measure_cv_training_time(
                        QNN_CONFIGS[name], Xtr, ytr, plan, config.optimizer,
                        fold_seed=lambda fold, n=name, s=size: derive_seed(config.seed, s, n, fold),
                        repeats=config.timing_repeats,
                    )
                except Exception as exc:
                    raise BenchmarkError("timing", str(exc), model=name, size=size) from exc
        # the line is fitted on each point's fastest repeat (see
        # TimingMeasurement.best); means and spreads are still reported
        time_models = {
            name: fit_time_model(
                [train_sizes[size] for size in config.sizes],
                [measurements[name][size].best for size in config.sizes],
            )
            for name in qnn_models
        } if len(set(config.sizes)) >= 2 else {}
        report.timing = TimingReport(
            train_sizes=train_sizes,
            measurements=measurements,
            models=time_models,
            ranks=rank_time_models(time_models) if time_models else {},
        )

    if config.output_dir is not None:
        write_report(report, config.output_dir)
    return report


# ---------------------------------------------------------------------------
# report files


def _json_dump(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=True)
        handle.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _metric_payload(result: ModelSizeResult) -> dict:
    payload = {
        "model": result.model,
        "size": result.size,
        "train_size": result.train_size,
        "test_size": result.test_size,
        "cv": {
            "fold_r2": [m.r2 for m in result.fold_metrics],
            "fold_rmse_kw": [m.rmse for m in result.fold_metrics],
            "mean_r2": result.cv_mean_r2,
            "std_r2": result.cv_std_r2,
            "mean_rmse_kw": result.cv_mean_rmse,
            "std_rmse_kw": result.cv_std_rmse,
        },
        "holdout": {
            "r2": result.holdout.r2,
            "rmse_kw": result.holdout.rmse,
            "residual_mean_kw": result.residuals.mean,
            "residual_std_kw": result.residuals.std,
        },
    }
    if result.loss_histories is not None:
        payload["loss"] = {
            "final_mean": float(np.mean([h[-1] for h in result.loss_histories])),
            "convergence_ratio_15_25": result.convergence_ratios,
            "rapid_convergence": result.rapid_convergence,
        }
    return payload


def write_report(report: BenchmarkReport, out_dir) -> Path:
    out = Path(out_dir)
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)

    for result in report.results:
        directory = out / result.model / str(result.size)
        directory.mkdir(parents=True, exist_ok=True)
        _json_dump(directory / "metrics.json", _metric_payload(result))
        _write_csv(
            directory / "predictions.csv",
            ["index", "y_true_kw", "y_pred_kw"],
            (
                (i, float(t), float(p))
                for i, (t, p) in enumerate(zip(result.y_true_kw, result.y_pred_kw))
            ),
        )
        _write_csv(
            directory / "residuals.csv",
            ["index", "residual_kw"],
            (
                (i, float(p - t))
                for i, (t, p) in enumerate(zip(result.y_true_kw, result.y_pred_kw))
            ),
        )
        if result.loss_histories is not None:
            header = ["iteration"] + [f"fold{f}" for f in range(len(result.loss_histories))] + ["mean"]
            mean_history = result.mean_loss_history
            rows = (
                [i + 1] + [float(h[i]) for h in result.loss_histories] + [float(mean_history[i])]
                for i in range(len(mean_history))
            )
            _write_csv(directory / "loss_history.csv", header, rows)

    _write_csv(
        plots / "cv_metrics_bar.csv",
        ["model", "size", "mean_r2", "std_r2", "mean_rmse_kw", "std_rmse_kw"],
        (
            (r.model, r.size, r.cv_mean_r2, r.cv_std_r2, r.cv_mean_rmse, r.cv_std_rmse)
            for r in report.results
        ),
    )
    _write_csv(
        plots / "holdout_comparison.csv",
        ["model", "size", "r2", "rmse_kw"],
        ((r.model, r.size, r.holdout.r2, r.holdout.rmse) for r in report.results),
    )

    loss_rows = []
    for result in report.results:
        if result.loss_histories is None:
            continue
        for i, value in enumerate(result.mean_loss_history):
            loss_rows.append((result.model, result.size, i + 1, float(value)))
    _write_csv(plots / "loss_curves.csv", ["model", "size", "iteration", "mean_loss"], loss_rows)

    hist_rows = []
    for result in report.results:
        edges, counts = residual_histogram(result.y_true_kw, result.y_pred_kw)
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            hist_rows.append((result.model, result.size, float(left), float(right), int(count)))
    _write_csv(
        plots / "error_histograms.csv",
        ["model", "size", "bin_left_kw", "bin_right_kw", "count"],
        hist_rows,
    )

    summary = {
        "config": report.config.echo(),
        "gate_counts": {
            name: {"single_qubit": c.single_qubit, "two_qubit": c.two_qubit, "total": c.total}
            for name, c in report.gate_counts.items()
        },
        "results": [_metric_payload(r) for r in report.results],
    }
    if report.stability is not None:
        summary["stability"] = {
            name: {"sd": m.sd, "ms": m.ms, "fl": m.fl, "sc": m.sc, "rank": m.rank}
            for name, m in report.stability.items()
        }
    _json_dump(out / "summary.json", summary)

    if report.timing is not None:
        timing_dir = out / "timing"
        timing_dir.mkdir(exist_ok=True)
        timing_payload = {
            "train_sizes": {str(k): v for k, v in report.timing.train_sizes.items()},
            "measurements": {
                name: {
                    str(size): {"minutes": m.minutes, "best": m.best,
                                "runs": list(m.runs), "spread": m.spread}
                    for size, m in by_size.items()
                }
                for name, by_size in report.timing.measurements.items()
            },
            "models": {
                name: {"slope": tm.slope, "intercept": tm.intercept, "fit_r2": tm.fit_r2}
                for name, tm in report.timing.models.items()
            },
            "ranks": report.timing.ranks,
        }
        _json_dump(timing_dir / "timing.json", timing_payload)
        _write_csv(
            plots / "time_vs_size.csv",
            ["model", "size", "train_size", "minutes_mean", "minutes_best"],
            (
                (name, size, report.timing.train_sizes[size], m.minutes, m.best)
                for name, by_size in report.timing.measurements.items()
                for size, m in by_size.items()
            ),
        )
    return out
