import dataclasses

import numpy as np
import pytest

import _oracles
from qnnbench import engine
from qnnbench.circuits import (
    Circuit,
    Instruction,
    Slot,
    build_z_feature_map,
    evaluate_circuit,
)
from qnnbench.data import ScalerParams
from qnnbench.lbfgs import OptimizeOptions
from qnnbench.qnn import (
    QNN_CONFIGS,
    CircuitObjective,
    QnnModel,
    _shift_plan,
    config_by_name,
    load_trained_model,
    mse_loss,
    pad_history,
    param_shift_gradient,
    predict,
    save_trained_model,
    train,
)

STRATEGY_BY_NAME = {
    "QNN-1": "full",
    "QNN-2": "linear",
    "QNN-3": "circular",
    "QNN-4": "sca",
    "QNN-5": "reverse_linear",
    "QNN-6": "pairwise",
}


# H.P(0).H.P(0) on each qubit is the identity, so at zero features this
# two-qubit feature map leaves every objective state at |00>
IDENTITY_MAP = build_z_feature_map(2, 2)


def toy_dataset(rng, n=16):
    X = rng.uniform(0, 1, (n, 4))
    y = rng.uniform(0, 1, n)
    return X, y


def fd_gradient(model, params, X, y, h=1e-6):
    grad = np.empty(len(params))
    for k in range(len(params)):
        up = params.copy()
        down = params.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (mse_loss(model, up, X, y) - mse_loss(model, down, X, y)) / (2 * h)
    return grad


def model_for(name, params=None):
    config = QNN_CONFIGS[name]
    if params is None:
        params = np.zeros(12)
    return QnnModel(config, config.circuit(), params)


class TestConfigs:
    def test_name_strategy_mapping(self):
        for name, strategy in STRATEGY_BY_NAME.items():
            assert QNN_CONFIGS[name].strategy == strategy

    def test_all_configs_have_twelve_parameters(self):
        for config in QNN_CONFIGS.values():
            assert config.circuit().n_trainable_slots == 12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            config_by_name("QNN-7")

    def test_wrong_parameter_length_rejected(self):
        config = QNN_CONFIGS["QNN-1"]
        with pytest.raises(ValueError):
            QnnModel(config, config.circuit(), np.zeros(11))

    def test_non_finite_parameters_rejected(self):
        config = QNN_CONFIGS["QNN-1"]
        params = np.zeros(12)
        params[3] = np.nan
        with pytest.raises(ValueError):
            QnnModel(config, config.circuit(), params)

    def test_circuit_other_than_the_configs_rejected(self):
        """A model is its config plus its parameters; a custom circuit runs
        through ``evaluate_circuit`` instead."""
        reuploading = Circuit(
            2,
            (
                Instruction("ry", (0,), Slot("trainable", 0)),
                Instruction("h", (1,)),
                Instruction("p", (1,), Slot("feature", 0, 2.0)),
                Instruction("cnot", (1, 0)),
                Instruction("ry", (1,), Slot("trainable", 1)),
                Instruction("p", (0,), Slot("feature", 1)),
                Instruction("ry", (0,), Slot("trainable", 2)),
                Instruction("cnot", (0, 1)),
            ),
            n_feature_slots=2,
            n_trainable_slots=3,
        )
        config = QNN_CONFIGS["QNN-1"]
        for circuit, n_params in ((QNN_CONFIGS["QNN-2"].circuit(), 12), (reuploading, 3)):
            with pytest.raises(ValueError):
                QnnModel(config, circuit, np.zeros(n_params))


class TestPredict:
    def test_zero_everything_gives_plus_one(self):
        assert predict(model_for("QNN-1"), np.zeros(4)) == pytest.approx(1.0, abs=1e-12)

    def test_output_bounded(self, rng):
        for name in QNN_CONFIGS:
            model = model_for(name, rng.uniform(0, 2 * np.pi, 12))
            values = predict(model, rng.uniform(-0.5, 1.5, (20, 4)))
            assert np.all(np.abs(values) <= 1.0 + 1e-12)

    def test_matches_dense_oracle(self, rng):
        for name in QNN_CONFIGS:
            model = model_for(name, rng.uniform(0, 2 * np.pi, 12))
            for _ in range(5):
                x = rng.uniform(0, 1, 4)
                state = _oracles.circuit_state(model.circuit, x, model.params)
                expected = _oracles.parity_expectation(state)
                assert predict(model, x) == pytest.approx(expected, abs=1e-10)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            predict(model_for("QNN-2"), np.zeros(3))

    @pytest.mark.parametrize("shape", [(), (2, 2, 4), (2, 5)])
    def test_feature_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            predict(model_for("QNN-2"), np.zeros(shape))

    # 1e308 is finite, but the feature map doubles it into an infinite angle
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (16, 4)])
    def test_non_finite_angle_rejected(self, rng, bad, shape):
        model = model_for("QNN-4", rng.uniform(0, 2 * np.pi, 12))
        features = rng.uniform(0, 1, shape)
        features.reshape(-1, 4)[-1, 2] = bad
        with pytest.raises(ValueError):
            predict(model, features)
        with pytest.raises(ValueError):
            evaluate_circuit(model.circuit, features, model.params)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (16, 4), (256, 4), (0, 4)])
    def test_compiled_ansatz_matches_gate_loop(self, rng, shape):
        for name in QNN_CONFIGS:
            model = model_for(name, rng.uniform(0, 2 * np.pi, 12))
            features = rng.uniform(-0.2, 1.2, shape)
            expected = engine.expectation(evaluate_circuit(model.circuit, features, model.params))
            values = predict(model, features)
            assert np.shape(values) == np.shape(expected)
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_model_is_frozen(self, rng):
        model = model_for("QNN-2", rng.uniform(0, 2 * np.pi, 12))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.params = np.zeros(12)
        with pytest.raises(ValueError):
            model.params[0] = 0.0


class TestMseLoss:
    def test_zero_when_predictions_equal_targets(self, rng):
        model = model_for("QNN-3", rng.uniform(0, 2 * np.pi, 12))
        X, _ = toy_dataset(rng)
        y = predict(model, X)
        assert mse_loss(model, model.params, X, y) == pytest.approx(0.0, abs=1e-15)

    def test_constant_prediction_closed_form(self, rng):
        model = model_for("QNN-1")  # zero parameters, zero features -> predicts 1
        X = np.zeros((5, 4))
        y = rng.uniform(0, 1, 5)
        assert mse_loss(model, model.params, X, y) == pytest.approx(
            float(np.mean((1.0 - y) ** 2)), abs=1e-12
        )

    def test_empty_data_rejected(self):
        model = model_for("QNN-1")
        with pytest.raises(ValueError):
            mse_loss(model, model.params, np.empty((0, 4)), np.empty(0))


class TestParameterShiftGradient:
    def test_matches_finite_differences_all_configs(self, rng):
        for name in QNN_CONFIGS:
            model = model_for(name)
            for _ in range(5):
                params = rng.uniform(0, 2 * np.pi, 12)
                X, y = toy_dataset(rng, n=6)
                ps = param_shift_gradient(model, params, X, y)
                fd = fd_gradient(model, params, X, y)
                scale = max(float(np.max(np.abs(fd))), 1e-8)
                assert float(np.max(np.abs(ps - fd))) / scale < 1e-5

    def test_zero_at_stationary_point(self, rng):
        """One RY rotating |0> toward a target expectation: at the optimum
        the single-parameter gradient vanishes."""
        ansatz = Circuit(2, (Instruction("ry", (0,), Slot("trainable", 0)),), 0, 1)
        y = np.array([0.0])  # parity cos(theta) = 0 at theta = pi/2
        objective = CircuitObjective(IDENTITY_MAP, ansatz, np.zeros((1, 2)), y)
        grad = objective.gradient(np.array([np.pi / 2]))
        assert abs(grad[0]) < 1e-8

    def test_dead_parameter_has_zero_component(self):
        """An RY whose rotation is copied onto a second qubit by a CNOT
        leaves the overall parity invariant, so its gradient is zero."""
        ansatz = Circuit(
            2,
            (
                Instruction("ry", (0,), Slot("trainable", 0)),
                Instruction("cnot", (0, 1)),
            ),
            0,
            1,
        )
        y = np.array([0.25])
        objective = CircuitObjective(IDENTITY_MAP, ansatz, np.zeros((1, 2)), y)
        for theta in (0.3, 1.1, 2.9):
            grad = objective.gradient(np.array([theta]))
            assert abs(grad[0]) < 1e-12

    @pytest.mark.parametrize("name", list(QNN_CONFIGS))
    def test_matches_unshared_oracle_bit_for_bit(self, rng, name):
        """Sharing the unshifted prefix between settings changes no bit:
        at block edges (127-129 rows), a partial last block (300) and a
        single row."""
        config = QNN_CONFIGS[name]
        model = model_for(name)
        for rows in (1, 127, 128, 129, 300):
            X, y = toy_dataset(rng, n=rows)
            objective = CircuitObjective(config.feature_map(), config.ansatz(), X, y)
            for _ in range(2):
                params = rng.uniform(0, 2 * np.pi, 12)
                assert np.array_equal(
                    param_shift_gradient(model, params, X, y),
                    _oracles.param_shift_gradient(objective, params),
                )

    def test_configs_share_three_prefixes(self):
        """One segment per rotation layer, each introducing four slots."""
        for config in QNN_CONFIGS.values():
            segments, plus, minus = _shift_plan(config.ansatz())
            assert [(first, live) for _, first, live in segments] == [
                (1, 9), (9, 17), (17, 25)
            ]
            assert plus.tolist() == [1, 2, 3, 4, 9, 10, 11, 12, 17, 18, 19, 20]
            assert minus.tolist() == (plus + 4).tolist()

    def test_custom_ansatz_matches_unshared_oracle_bit_for_bit(self, rng):
        """A leading CNOT, slots first used out of index order, and a
        declared slot no gate uses."""
        ansatz = Circuit(
            2,
            (
                Instruction("cnot", (1, 0)),
                Instruction("ry", (1,), Slot("trainable", 2)),
                Instruction("ry", (0,), Slot("trainable", 0)),
                Instruction("cnot", (0, 1)),
                Instruction("ry", (0,), Slot("trainable", 4)),
                Instruction("ry", (1,), Slot("trainable", 1)),
                Instruction("cnot", (1, 0)),
                Instruction("ry", (1,), Slot("trainable", 5)),
            ),
            0,
            6,
        )
        segments, plus, minus = _shift_plan(ansatz)
        assert [(len(seg.instructions), first, live) for seg, first, live in segments] == [
            (1, 1, 1), (3, 1, 5), (3, 5, 9), (1, 9, 13)
        ]
        assert plus.tolist() == [2, 6, 1, 10, 5, 9]
        assert minus.tolist() == [4, 8, 3, 12, 7, 11]
        for rows in (1, 127, 128, 129, 300):
            X = rng.uniform(0, 1, (rows, 2))
            y = rng.uniform(0, 1, rows)
            objective = CircuitObjective(build_z_feature_map(2, 2), ansatz, X, y)
            for _ in range(2):
                params = rng.uniform(0, 2 * np.pi, 6)
                grad = objective.gradient(params)
                assert np.array_equal(grad, _oracles.param_shift_gradient(objective, params))
                assert grad[3] == 0.0

    def test_slotless_first_segment_with_partial_last_block(self, rng):
        """Leading CNOTs form a first segment that introduces no setting
        (one live column), then a full block is followed by a partial one."""
        config = QNN_CONFIGS["QNN-2"]
        lead = (Instruction("cnot", (0, 1)), Instruction("cnot", (2, 3)))
        ansatz = dataclasses.replace(
            config.ansatz(), instructions=lead + config.ansatz().instructions
        )
        segments, _, _ = _shift_plan(ansatz)
        assert [(first, live) for _, first, live in segments] == [
            (1, 1), (1, 9), (9, 17), (17, 25)
        ]
        assert segments[0][0].instructions == lead
        for rows in (200, 257):
            X, y = toy_dataset(rng, n=rows)
            objective = CircuitObjective(config.feature_map(), ansatz, X, y)
            params = rng.uniform(0, 2 * np.pi, 12)
            assert np.array_equal(
                objective.gradient(params), _oracles.param_shift_gradient(objective, params)
            )

    def test_reused_stack_buffer_carries_no_state(self, rng):
        """Alternating parameter vectors on one objective, and two live
        objectives of different row counts interleaved, each match the
        unshared oracle and leave the encoded states untouched."""
        config = QNN_CONFIGS["QNN-3"]
        objectives = []
        for rows in (1, 127, 128, 129, 300):
            X, y = toy_dataset(rng, n=rows)
            objective = CircuitObjective(config.feature_map(), config.ansatz(), X, y)
            encoded = objective.encoded.copy()
            pair = rng.uniform(0, 2 * np.pi, (2, 12))
            expected = [_oracles.param_shift_gradient(objective, p) for p in pair]
            for params, want in list(zip(pair, expected)) * 2:
                assert np.array_equal(objective.gradient(params), want)
            assert np.array_equal(objective.encoded, encoded)
            objectives.append((objective, pair, expected))
        small, _, _ = objectives[1]
        large, _, _ = objectives[4]
        assert not np.shares_memory(small._buffer, large._buffer)
        for objective, pair, expected in [objectives[4], objectives[1]] * 2 + [objectives[0]]:
            for params, want in zip(pair, expected):
                assert np.array_equal(objective.gradient(params), want)

    @pytest.mark.parametrize(
        "ansatz",
        [
            Circuit(
                2,
                (
                    Instruction("ry", (0,), Slot("trainable", 0)),
                    Instruction("cnot", (0, 1)),
                    Instruction("ry", (1,), Slot("trainable", 0)),
                ),
                0,
                1,
            ),
            Circuit(2, (Instruction("ry", (0,), Slot("trainable", 0, 2.0)),), 0, 1),
        ],
        ids=["reused-slot", "multiplier-2"],
    )
    def test_slot_the_shift_rule_cannot_differentiate_rejected(self, ansatz):
        """The +/-pi/2 rule is exact only for one multiplier-1 gate per slot;
        anything else would return a wrong gradient silently."""
        with pytest.raises(ValueError, match="trainable slot 0"):
            CircuitObjective(IDENTITY_MAP, ansatz, np.zeros((3, 2)), np.zeros(3))

    def test_fast_objective_matches_public_loss(self, rng):
        config = QNN_CONFIGS["QNN-4"]
        X, y = toy_dataset(rng)
        objective = CircuitObjective(config.feature_map(), config.ansatz(), X, y)
        model = model_for("QNN-4")
        for _ in range(5):
            params = rng.uniform(0, 2 * np.pi, 12)
            assert objective.loss(params) == pytest.approx(
                mse_loss(model, params, X, y), abs=1e-13
            )


class TestTrain:
    def test_loss_decreases(self, rng):
        X, y = toy_dataset(rng, n=40)
        model, history = train(QNN_CONFIGS["QNN-2"], X, y, seed=3)
        assert history[-1] < history[0]

    def test_histories_are_padded_to_25(self, rng):
        X, y = toy_dataset(rng, n=20)
        _, history = train(QNN_CONFIGS["QNN-6"], X, y, seed=1)
        assert len(history) == 25
        assert np.all(history >= 0.0)

    def test_histories_non_increasing(self, rng):
        X, y = toy_dataset(rng, n=30)
        for name in ("QNN-1", "QNN-5"):
            _, history = train(QNN_CONFIGS[name], X, y, seed=7)
            assert np.all(np.diff(history) <= 1e-14)

    def test_deterministic_given_seed(self, rng):
        X, y = toy_dataset(rng, n=20)
        model_a, hist_a = train(QNN_CONFIGS["QNN-3"], X, y, seed=11)
        model_b, hist_b = train(QNN_CONFIGS["QNN-3"], X, y, seed=11)
        np.testing.assert_array_equal(model_a.params, model_b.params)
        np.testing.assert_array_equal(hist_a, hist_b)

    def test_different_seeds_differ(self, rng):
        X, y = toy_dataset(rng, n=20)
        model_a, _ = train(QNN_CONFIGS["QNN-3"], X, y, seed=1)
        model_b, _ = train(QNN_CONFIGS["QNN-3"], X, y, seed=2)
        assert not np.array_equal(model_a.params, model_b.params)

    def test_too_few_samples_rejected(self, rng):
        X, y = toy_dataset(rng, n=11)
        with pytest.raises(ValueError):
            train(QNN_CONFIGS["QNN-1"], X, y, seed=0)

    def test_custom_iteration_budget(self, rng):
        X, y = toy_dataset(rng, n=20)
        options = OptimizeOptions(max_iter=5, grad_tol=1e-8, memory=10)
        _, history = train(QNN_CONFIGS["QNN-2"], X, y, seed=3, options=options)
        assert len(history) == 25  # padded to the standard record length


class TestPadHistory:
    def test_pads_with_final_value(self):
        padded = pad_history([3.0, 2.0, 1.0], 6)
        np.testing.assert_array_equal(padded, [3.0, 2.0, 1.0, 1.0, 1.0, 1.0])

    def test_truncates_overlong(self):
        padded = pad_history(np.arange(30.0), 25)
        assert len(padded) == 25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_history([], 25)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        X, y = toy_dataset(rng, n=20)
        model, history = train(QNN_CONFIGS["QNN-5"], X, y, seed=4)
        scaler = ScalerParams(mins=np.zeros(5), maxs=np.ones(5))
        path = tmp_path / "model.json"
        save_trained_model(path, model, scaler, seed=4, loss_history=history)
        loaded, loaded_scaler, seed, loaded_history = load_trained_model(path)
        assert loaded.config.name == "QNN-5"
        assert seed == 4
        np.testing.assert_array_equal(loaded.params, model.params)
        np.testing.assert_array_equal(loaded_history, history)
        np.testing.assert_array_equal(loaded_scaler.mins, scaler.mins)
        test_points = rng.uniform(0, 1, (5, 4))
        np.testing.assert_array_equal(predict(loaded, test_points), predict(model, test_points))
