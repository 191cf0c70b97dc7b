"""Wind-turbine dataset handling: CSV ingestion, min-max scaling fitted on
training rows only, seeded subset/split generation, and a synthetic
power-curve generator for dataset-free runs.

Rows carry four features (temperature, pressure, wind direction, wind
velocity) and the generated power in kW as the regression target.  All
sampling is driven by explicit seeds through ``numpy.random.default_rng``,
so every split is a pure function of (rows, size, seed).
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

COLUMNS = ("Temperature", "Pressure", "Direction", "Velocity", "Power")

# Plausible per-column (min, max) used for ingestion sanity warnings.
PLAUSIBLE_RANGES = {
    "Temperature": (-5.29, 10.00),
    "Pressure": (979.79, 1035.72),
    "Direction": (100.67, 359.78),
    "Velocity": (0.32, 21.07),
    "Power": (2.24, 2033.12),
}

RATED_POWER_KW = 2030.0
CUT_IN_MS = 3.0
RATED_SPEED_MS = 13.0


class DataError(Exception):
    """Base class for dataset ingestion problems."""


class SchemaError(DataError):
    """The file is missing required structure (columns, header, any rows)."""


class RowError(DataError):
    """A single row failed to parse; carries its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DataRangeWarning(UserWarning):
    """Values fall outside the plausible ranges for this kind of data."""


@dataclass(frozen=True)
class SamplePoint:
    temperature: float  # degrees C
    pressure: float  # hPa
    direction: float  # degrees, [0, 360)
    velocity: float  # m/s, >= 0
    power: float  # kW (regression target)


def _parse_row(line: int, raw: dict[str, str], names: dict[str, str]) -> SamplePoint:
    values = {}
    for canonical in COLUMNS:
        text = raw.get(names[canonical])
        if text is None or text.strip() == "":
            raise RowError(line, f"missing value for column {names[canonical]!r}")
        try:
            value = float(text)
        except ValueError:
            raise RowError(line, f"cannot parse {text!r} in column {names[canonical]!r}") from None
        if not np.isfinite(value):
            raise RowError(line, f"non-finite value in column {names[canonical]!r}")
        values[canonical] = value
    if not 0.0 <= values["Direction"] < 360.0:
        raise RowError(line, f"direction {values['Direction']} outside [0, 360)")
    if values["Velocity"] < 0.0:
        raise RowError(line, f"negative velocity {values['Velocity']}")
    return SamplePoint(
        temperature=values["Temperature"],
        pressure=values["Pressure"],
        direction=values["Direction"],
        velocity=values["Velocity"],
        power=values["Power"],
    )


def load_dataset(path, column_map: dict[str, str] | None = None) -> list[SamplePoint]:
    """Parse a headered CSV into sample points.

    ``column_map`` maps canonical column names to the actual headers in the
    file when they differ.  A missing column raises :class:`SchemaError`;
    an unparseable row raises :class:`RowError` with its line number.
    Values outside the plausible ranges only trigger
    :class:`DataRangeWarning`.
    """
    names = {c: c for c in COLUMNS}
    if column_map:
        names.update({k: v for k, v in column_map.items() if k in COLUMNS})
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        for canonical in COLUMNS:
            if names[canonical] not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column {names[canonical]!r}")
        rows = [_parse_row(reader.line_num, raw, names) for raw in reader]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    logger.info("loaded %d rows from %s", len(rows), path)

    table = np.array([[getattr(r, c.lower()) for c in COLUMNS] for r in rows])
    for j, canonical in enumerate(COLUMNS):
        lo, hi = PLAUSIBLE_RANGES[canonical]
        col_lo, col_hi = table[:, j].min(), table[:, j].max()
        if col_lo < lo or col_hi > hi:
            warnings.warn(
                f"{canonical} spans [{col_lo:g}, {col_hi:g}], outside the "
                f"plausible range [{lo:g}, {hi:g}]",
                DataRangeWarning,
                stacklevel=2,
            )
    return rows


def write_dataset(path, rows: list[SamplePoint]) -> None:
    """Write rows as a canonical-header CSV (full float precision)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for r in rows:
            writer.writerow(
                [repr(r.temperature), repr(r.pressure), repr(r.direction), repr(r.velocity), repr(r.power)]
            )


def feature_matrix(rows: list[SamplePoint]) -> np.ndarray:
    """(n, 4) feature array in column order temperature, pressure,
    direction, velocity."""
    return np.array([[r.temperature, r.pressure, r.direction, r.velocity] for r in rows])


def target_vector(rows: list[SamplePoint]) -> np.ndarray:
    return np.array([r.power for r in rows])


@dataclass(frozen=True)
class ScalerParams:
    """Per-column minima/maxima over the five columns (features + power),
    taken from training rows only."""

    mins: np.ndarray
    maxs: np.ndarray

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScalerParams":
        return cls(
            mins=np.asarray(payload["mins"], dtype=float),
            maxs=np.asarray(payload["maxs"], dtype=float),
        )


def check_features(X, width: int) -> np.ndarray:
    """The query contract of every model: one row of ``width`` finite
    features, or a ``(rows, width)`` array of them.  Returns ``X`` as a
    float array of its own shape; anything else raises ``ValueError``
    before any arithmetic."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != width:
        raise ValueError(f"expected rows of {width} features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X


def check_training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """The training contract of every model: a ``(rows, features)`` array
    and one target per row, non-empty and finite, as float arrays."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(
            f"expected (rows, features) and (rows,) arrays, got shapes {X.shape} and {y.shape}"
        )
    if len(y) == 0:
        raise ValueError("the training set is empty")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training features and targets must be finite")
    return X, y


def minmax_fit(X: np.ndarray, y: np.ndarray) -> ScalerParams:
    """Fit column extrema on training data.  Constant columns are allowed
    (they later scale to 0) but emit a warning."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(y) == 0 or len(X) == 0:
        raise ValueError("cannot fit a scaler on empty training data")
    table = np.column_stack([X, y])
    mins = table.min(axis=0)
    maxs = table.max(axis=0)
    constant = np.nonzero(maxs == mins)[0]
    if constant.size:
        warnings.warn(
            f"constant column(s) {constant.tolist()} scale to 0",
            DataRangeWarning,
            stacklevel=2,
        )
    return ScalerParams(mins=mins, maxs=maxs)


def _scale_columns(values: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (values - mins) / safe
    return np.where(span > 0, scaled, 0.0)


def minmax_apply(params: ScalerParams, X: np.ndarray, y: np.ndarray | None = None):
    """Scale features (and optionally targets) with training extrema.

    Training values land in [0, 1]; values outside the fitted range (e.g.
    test rows) scale outside [0, 1] without clamping.
    """
    X = check_features(X, len(params.mins) - 1)
    Xs = _scale_columns(X, params.mins[:-1], params.maxs[:-1])
    if y is None:
        return Xs
    y = np.asarray(y, dtype=float).reshape(-1)
    ys = _scale_columns(y, params.mins[-1], params.maxs[-1])
    return Xs, ys


def minmax_invert_target(params: ScalerParams, scaled: np.ndarray) -> np.ndarray:
    """Map scaled target values back to kW."""
    lo, hi = params.mins[-1], params.maxs[-1]
    return np.asarray(scaled, dtype=float) * (hi - lo) + lo


@dataclass(frozen=True)
class SplitBundle:
    """Seed-reproducible subset of row indices, partitioned 80/20."""

    train_idx: np.ndarray
    test_idx: np.ndarray


def subset_and_split(rows, size: int, seed: int) -> SplitBundle:
    """Sample ``size`` rows without replacement (seeded shuffle prefix) and
    partition them into 80% train / 20% test."""
    n = len(rows)
    if size < 5:
        raise ValueError("subset size must be >= 5")
    if size > n:
        raise ValueError(f"subset size {size} exceeds {n} available rows")
    chosen = np.random.default_rng(seed).permutation(n)[:size]
    n_train = (4 * size) // 5
    return SplitBundle(train_idx=chosen[:n_train], test_idx=chosen[n_train:])


def power_curve(velocity) -> np.ndarray:
    """Noise-free logistic power curve: near zero below the 3 m/s cut-in,
    saturating at ~2030 kW around the 13 m/s rated speed."""
    v = np.asarray(velocity, dtype=float)
    mid = 0.5 * (CUT_IN_MS + RATED_SPEED_MS)
    return RATED_POWER_KW / (1.0 + np.exp(-0.9 * (v - mid)))


def gen_synthetic(size: int, seed: int, noise_kw: float = 35.0) -> list[SamplePoint]:
    """Synthetic corpus: features drawn uniformly over plausible ranges,
    power = logistic curve of velocity plus seeded Gaussian noise, clipped
    at zero."""
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)
    temperature = rng.uniform(*PLAUSIBLE_RANGES["Temperature"], size)
    pressure = rng.uniform(*PLAUSIBLE_RANGES["Pressure"], size)
    direction = rng.uniform(*PLAUSIBLE_RANGES["Direction"], size)
    velocity = rng.uniform(*PLAUSIBLE_RANGES["Velocity"], size)
    power = power_curve(velocity) + rng.normal(0.0, noise_kw, size)
    power = np.clip(power, 0.0, None)
    return [
        SamplePoint(float(t), float(p), float(d), float(v), float(w))
        for t, p, d, v, w in zip(temperature, pressure, direction, velocity, power)
    ]
