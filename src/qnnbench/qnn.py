"""Trainable quantum-circuit regressors.

A model is a phase-encoding feature map composed with an RY/CNOT ansatz on
four qubits; its scalar output is the all-qubit parity-Z expectation of the
prepared state, regressed directly against min-max-scaled targets (no
output head, so predictions live in [-1, 1] and can fall below zero even
for non-negative targets).  Gradients use the exact parameter-shift rule
for RY angles, and training runs the quasi-Newton minimiser for at most 25
iterations from a seeded uniform initialisation.

The six registered configurations share the feature map and the circuit
shape and differ only in the ansatz entanglement pattern, so a
configuration is just a name and a strategy, and a fitted model is its
configuration plus its parameters.  :class:`QnnModel` compiles the
configuration's ansatz at those parameters into one unitary when it is
built.  The feature map has no two-qubit gates, so :func:`predict` runs its
one-qubit version once per (row, feature) pair and folds the per-qubit
states into the register state with Kronecker products
(:func:`circuits.product_state`), then applies the compiled ansatz as one
matrix product.  Training still encodes with the four-qubit feature map
(once per fit) and runs the ansatz gate by gate, because every loss and
gradient call binds new parameters.  A custom circuit runs through
:func:`circuits.evaluate_circuit`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import circuits, engine
from .circuits import Circuit, build_real_amplitudes, build_z_feature_map, compose
from .data import ScalerParams, check_features, check_training_set
from .lbfgs import OptimizeOptions, minimize

HISTORY_LENGTH = 25

# Samples per gradient chunk: keeps the 25-setting shifted batch
# cache-resident, so the per-sample cost stays flat as datasets grow.
GRADIENT_BLOCK = 128


@dataclass(frozen=True)
class QnnConfig:
    """One benchmark configuration: a name and an ansatz entanglement
    strategy.  The circuit shape is shared by every configuration."""

    name: str
    strategy: str
    n_qubits: ClassVar[int] = 4
    feature_reps: ClassVar[int] = 2
    ansatz_reps: ClassVar[int] = 2

    def feature_map(self) -> Circuit:
        return build_z_feature_map(self.n_qubits, self.feature_reps)

    def ansatz(self) -> Circuit:
        return build_real_amplitudes(self.n_qubits, self.ansatz_reps, self.strategy)

    def circuit(self) -> Circuit:
        return compose(self.feature_map(), self.ansatz())


QNN_CONFIGS: dict[str, QnnConfig] = {
    "QNN-1": QnnConfig("QNN-1", "full"),
    "QNN-2": QnnConfig("QNN-2", "linear"),
    "QNN-3": QnnConfig("QNN-3", "circular"),
    "QNN-4": QnnConfig("QNN-4", "sca"),
    "QNN-5": QnnConfig("QNN-5", "reverse_linear"),
    "QNN-6": QnnConfig("QNN-6", "pairwise"),
}


def config_by_name(name: str) -> QnnConfig:
    try:
        return QNN_CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; expected one of {list(QNN_CONFIGS)}"
        ) from None


@dataclass(frozen=True)
class QnnModel:
    """A configuration with its fitted parameters, frozen so that the
    compiled ansatz below can never go stale.

    ``circuit`` must be ``config.circuit()``: the model is its configuration
    plus its parameters, and training, loss and serialisation all read the
    configuration.  On construction the one-qubit version of the
    configuration's feature map is kept to run per request, and its ansatz
    is compiled into its unitary once.
    """

    config: QnnConfig
    circuit: Circuit
    params: np.ndarray
    # the feature map on one qubit, run per (row, feature) by product_state
    _encoding: Circuit = field(init=False, compare=False, repr=False)
    # transpose of the ansatz unitary: dim-last states map as ``state @ _ansatz_t``
    _ansatz_t: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ansatz = self.config.ansatz()
        if self.circuit != compose(self.config.feature_map(), ansatz):
            raise ValueError(f"circuit is not the circuit of {self.config.name}")
        params = np.array(self.params, dtype=float).reshape(-1)
        if len(params) != self.circuit.n_trainable_slots:
            raise ValueError(
                f"expected {self.circuit.n_trainable_slots} parameters, "
                f"got {len(params)}"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)
        object.__setattr__(
            self, "_encoding", build_z_feature_map(1, self.config.feature_reps)
        )
        object.__setattr__(self, "_ansatz_t", circuits.circuit_unitary(ansatz, params).T)


def predict(model: QnnModel, features) -> float | np.ndarray:
    """Observable expectation of the model's circuit at its parameters,
    always in [-1, 1]: ``(rows,)`` for a ``(rows, 4)`` array, a float for
    one 1-D row.  Any other shape or a non-finite feature raises
    ``ValueError`` (:func:`data.check_features`) before the circuit runs.

    Per call only the one-qubit feature map runs, once per (row, feature)
    pair, and :func:`circuits.product_state` folds the per-qubit states
    into the register state; the ansatz is applied as the model's compiled
    unitary, one matrix product for the whole batch.
    """
    features = check_features(features, model.config.n_qubits)
    state = circuits.product_state(model._encoding, features)
    return engine.expectation(state @ model._ansatz_t)


class CircuitObjective:
    """MSE objective over a fixed dataset with the data-encoding states
    computed once up front; every loss/gradient call then only applies the
    variational part of the circuit, batched over all samples.  ``X`` and
    ``y`` are a training set that has passed :func:`data.check_training_set`."""

    def __init__(self, feature_map: Circuit, ansatz: Circuit, X: np.ndarray, y: np.ndarray):
        encoded = engine.zero_state_t(ansatz.n_qubits, batch=(len(y),))
        circuits.run_circuit(feature_map, encoded.T, features=X)
        self.encoded = encoded  # shape (2**n, n_samples)
        self.ansatz = ansatz
        self.y = y

    def predictions(self, params) -> np.ndarray:
        state = self.encoded.copy()
        circuits.run_circuit(self.ansatz, state.T, params=params)
        return engine.parity_z_expectation_t(state)

    def loss(self, params) -> float:
        residual = self.predictions(params) - self.y
        return float(np.mean(residual**2))

    def gradient(self, params) -> np.ndarray:
        """Exact MSE gradient via the parameter-shift rule:
        d<O>/d(theta_k) = (f(theta_k + pi/2) - f(theta_k - pi/2)) / 2.

        All 2k+1 parameter settings (centre plus both shifts of every
        parameter) run through the circuit together, in fixed-size sample
        chunks with a fixed accumulation order (bit-reproducible).
        """
        params = np.asarray(params, dtype=float)
        k = len(params)
        settings = np.tile(params, (2 * k + 1, 1))
        shift = np.arange(k)
        settings[1 + shift, shift] += math.pi / 2
        settings[1 + k + shift, shift] -= math.pi / 2
        # settings gain a singleton sample axis so angles broadcast as (S, 1)
        settings = settings[:, None, :]
        dim, n_samples = self.encoded.shape
        total = np.zeros(k)
        for start in range(0, n_samples, GRADIENT_BLOCK):
            block = self.encoded[:, start : start + GRADIENT_BLOCK]
            stacked = np.broadcast_to(
                block[:, None, :], (dim, 2 * k + 1, block.shape[1])
            ).copy()
            circuits.run_circuit(self.ansatz, np.moveaxis(stacked, 0, -1), params=settings)
            preds = engine.parity_z_expectation_t(stacked)
            residual = preds[0] - self.y[start : start + GRADIENT_BLOCK]
            dpred = 0.5 * (preds[1 : k + 1] - preds[k + 1 :])
            total += np.sum(2.0 * residual * dpred, axis=1)
        return total / n_samples


def _objective_for(config: QnnConfig, X, y) -> CircuitObjective:
    return CircuitObjective(config.feature_map(), config.ansatz(), *check_training_set(X, y))


def mse_loss(model: QnnModel, params, X, y) -> float:
    """Mean squared error of the model at the given parameters."""
    return _objective_for(model.config, X, y).loss(np.asarray(params, dtype=float))


def param_shift_gradient(model: QnnModel, params, X, y) -> np.ndarray:
    """Parameter-shift gradient of :func:`mse_loss`; exact for this gate set."""
    return _objective_for(model.config, X, y).gradient(np.asarray(params, dtype=float))


def pad_history(values, length: int = HISTORY_LENGTH) -> np.ndarray:
    """Right-pad a loss history with its final value to a fixed length."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(values) == 0:
        raise ValueError("cannot pad an empty history")
    if len(values) >= length:
        return values[:length].copy()
    return np.concatenate([values, np.full(length - len(values), values[-1])])


def train(config: QnnConfig, X, y, seed: int,
          options: OptimizeOptions | None = None) -> tuple[QnnModel, np.ndarray]:
    """Fit the 12 circuit parameters on scaled data.

    Initial parameters are drawn uniformly from [0, 2*pi) with the given
    seed, so (seed, data, config) fully determine the result.  Returns the
    trained model and the per-iteration loss history, right-padded with the
    final value to 25 entries when the optimiser converges early.
    """
    X, y = check_training_set(X, y)
    ansatz = config.ansatz()
    if len(y) < ansatz.n_trainable_slots:
        raise ValueError(
            f"need at least {ansatz.n_trainable_slots} samples, got {len(y)}"
        )
    objective = CircuitObjective(config.feature_map(), ansatz, X, y)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2.0 * math.pi, ansatz.n_trainable_slots)
    opts = options if options is not None else OptimizeOptions()
    result = minimize(objective.loss, objective.gradient, x0, opts)
    history = result.f_history if result.n_iters > 0 else np.array([result.f_final])
    model = QnnModel(config, config.circuit(), result.x_final)
    return model, pad_history(history, max(HISTORY_LENGTH, opts.max_iter))


def save_trained_model(path, model: QnnModel, scaler: ScalerParams, seed: int,
                       loss_history) -> None:
    """Serialise a trained model (with its scaler and provenance seed) to JSON."""
    payload = {
        "config": model.config.name,
        "strategy": model.config.strategy,
        "params": model.params.tolist(),
        "scaler": scaler.to_dict(),
        "seed": seed,
        "loss_history": np.asarray(loss_history, dtype=float).tolist(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_trained_model(path) -> tuple[QnnModel, ScalerParams, int, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    config = config_by_name(payload["config"])
    model = QnnModel(config, config.circuit(), np.asarray(payload["params"], dtype=float))
    scaler = ScalerParams.from_dict(payload["scaler"])
    return model, scaler, int(payload["seed"]), np.asarray(payload["loss_history"], dtype=float)
