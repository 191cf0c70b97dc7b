import numpy as np
import pytest

import _oracles
from qnnbench import engine
from qnnbench.circuits import (
    Circuit,
    Instruction,
    Slot,
    build_real_amplitudes,
    build_z_feature_map,
    circuit_unitary,
    compose,
    entangler_pairs,
    evaluate_circuit,
    format_circuit,
    gate_census,
    product_state,
    run_circuit,
)

STRATEGIES = ("full", "linear", "circular", "sca", "reverse_linear", "pairwise")

# per-layer two-qubit gate counts on four qubits
PAIRS_PER_LAYER = {
    "full": 6,
    "linear": 3,
    "circular": 4,
    "sca": 4,
    "reverse_linear": 3,
    "pairwise": 3,
}


class TestEntanglerPairs:
    def test_linear_four_qubits(self):
        assert entangler_pairs("linear", 4) == [(0, 1), (1, 2), (2, 3)]

    def test_full_four_qubits(self):
        pairs = entangler_pairs("full", 4)
        assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_circular_four_qubits(self):
        assert entangler_pairs("circular", 4) == [(3, 0), (0, 1), (1, 2), (2, 3)]

    def test_reverse_linear_is_linear_reversed(self):
        for n in (2, 3, 4, 6):
            assert entangler_pairs("reverse_linear", n) == entangler_pairs("linear", n)[::-1]

    def test_pairwise_four_qubits(self):
        assert entangler_pairs("pairwise", 4) == [(0, 1), (2, 3), (1, 2)]

    def test_sca_rotates_and_alternates(self):
        layer0 = entangler_pairs("sca", 4, 0)
        layer1 = entangler_pairs("sca", 4, 1)
        assert layer0 == [(3, 0), (0, 1), (1, 2), (2, 3)]
        # rotated by one position, with control/target swapped on the odd layer
        assert layer1 == [(1, 0), (2, 1), (3, 2), (0, 3)]
        assert len(layer0) == len(layer1) == 4

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_per_layer_counts_on_four_qubits(self, strategy):
        for layer in range(3):
            assert len(entangler_pairs(strategy, 4, layer)) == PAIRS_PER_LAYER[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, strategy):
        assert entangler_pairs(strategy, 4, 1) == entangler_pairs(strategy, 4, 1)

    def test_full_independent_of_layer(self):
        assert entangler_pairs("full", 4, 0) == entangler_pairs("full", 4, 5)

    def test_pairs_reference_valid_qubits(self):
        for strategy in STRATEGIES:
            for n in (2, 3, 4, 5):
                for layer in range(4):
                    for control, target in entangler_pairs(strategy, n, layer):
                        assert 0 <= control < n
                        assert 0 <= target < n
                        assert control != target

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ValueError):
            entangler_pairs("linear", 1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            entangler_pairs("star", 4)


class TestFeatureMap:
    def test_gate_counts_for_two_reps(self):
        census = gate_census(build_z_feature_map(4, 2))
        assert census.as_tuple() == (16, 0, 16)

    def test_no_two_qubit_gates_ever(self):
        for n in (1, 2, 4, 6):
            for reps in (1, 2, 3):
                assert gate_census(build_z_feature_map(n, reps)).two_qubit == 0

    def test_single_qubit_closed_form(self, rng):
        circuit = build_z_feature_map(1, 1)
        for x in rng.uniform(-2, 2, 50):
            state = evaluate_circuit(circuit, np.array([x]))
            expected = np.array([1.0, np.exp(2j * x)]) / np.sqrt(2.0)
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_zero_features_give_identity(self):
        state = evaluate_circuit(build_z_feature_map(4, 2), np.zeros(4))
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_feature_slot_count(self):
        circuit = build_z_feature_map(4, 2)
        assert circuit.n_feature_slots == 4
        assert circuit.n_trainable_slots == 0

    def test_rz_variant_matches_p_variant_up_to_phase(self, rng):
        p_map = build_z_feature_map(4, 2, phase_gate="p")
        rz_map = build_z_feature_map(4, 2, phase_gate="rz")
        x = rng.uniform(0, 1, 4)
        s_p = evaluate_circuit(p_map, x)
        s_rz = evaluate_circuit(rz_map, x)
        assert abs(engine.expectation(s_p) - engine.expectation(s_rz)) < 1e-12
        overlap = abs(np.vdot(s_p, s_rz))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            build_z_feature_map(4, 0)


class TestRealAmplitudes:
    def test_trainable_count_is_qubits_times_layers(self):
        for strategy in STRATEGIES:
            circuit = build_real_amplitudes(4, 2, strategy)
            assert circuit.n_trainable_slots == 12

    def test_full_strategy_gate_counts(self):
        census = gate_census(build_real_amplitudes(4, 2, "full"))
        assert census.as_tuple() == (12, 12, 24)

    def test_pairwise_has_six_cnots(self):
        assert gate_census(build_real_amplitudes(4, 2, "pairwise")).two_qubit == 6

    def test_zero_parameters_fix_the_zero_state(self):
        for strategy in STRATEGIES:
            circuit = build_real_amplitudes(4, 2, strategy)
            state = evaluate_circuit(circuit, params=np.zeros(12))
            expected = np.zeros(16)
            expected[0] = 1.0
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_real_amplitudes_are_real(self, rng):
        # RY and CNOT have real entries, so the prepared state stays real
        circuit = build_real_amplitudes(4, 2, "circular")
        state = evaluate_circuit(circuit, params=rng.uniform(0, 2 * np.pi, 12))
        np.testing.assert_allclose(state.imag, 0.0, atol=1e-12)

    def test_single_qubit_register_rejected(self):
        with pytest.raises(ValueError):
            build_real_amplitudes(1, 2, "linear")


class TestCompose:
    def test_census_of_composed_circuits(self):
        fm = build_z_feature_map(4, 2)
        assert gate_census(compose(fm, build_real_amplitudes(4, 2, "full"))).as_tuple() == (28, 12, 40)
        assert gate_census(compose(fm, build_real_amplitudes(4, 2, "linear"))).as_tuple() == (28, 6, 34)

    def test_compose_with_empty_is_identity(self):
        fm = build_z_feature_map(4, 2)
        empty = Circuit(4, (), 0, 0)
        assert gate_census(compose(fm, empty)) == gate_census(fm)

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(build_z_feature_map(2, 1), build_real_amplitudes(4, 1, "linear"))

    def test_slot_counts_are_union(self):
        combined = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "sca"))
        assert combined.n_feature_slots == 4
        assert combined.n_trainable_slots == 12


class TestEvaluateCircuit:
    def test_unit_norm_for_random_bindings(self, rng):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "full"))
        for _ in range(10):
            state = evaluate_circuit(
                circuit, rng.uniform(0, 1, 4), rng.uniform(0, 2 * np.pi, 12)
            )
            assert abs(np.vdot(state, state).real - 1.0) < 1e-10

    def test_zero_bindings_give_plus_one_parity(self):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "full"))
        state = evaluate_circuit(circuit, np.zeros(4), np.zeros(12))
        assert abs(engine.expectation(state) - 1.0) < 1e-12

    def test_matches_dense_oracle_on_toy_circuit(self, rng):
        fm = build_z_feature_map(3, 2)
        ansatz = build_real_amplitudes(3, 1, "circular")
        circuit = compose(fm, ansatz)
        for _ in range(10):
            features = rng.uniform(-1, 1, 3)
            params = rng.uniform(0, 2 * np.pi, circuit.n_trainable_slots)
            state = evaluate_circuit(circuit, features, params)
            expected = _oracles.circuit_state(circuit, features, params)
            np.testing.assert_allclose(state, expected, atol=1e-10)

    def test_batched_evaluation_matches_loop(self, rng):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "sca"))
        X = rng.uniform(0, 1, (6, 4))
        params = rng.uniform(0, 2 * np.pi, 12)
        batched = evaluate_circuit(circuit, X, params)
        for i in range(len(X)):
            np.testing.assert_allclose(
                batched[i], evaluate_circuit(circuit, X[i], params), atol=1e-13
            )

    def test_wrong_feature_arity_rejected(self):
        circuit = build_z_feature_map(4, 2)
        with pytest.raises(ValueError):
            evaluate_circuit(circuit, np.zeros(3))

    def test_wrong_parameter_count_rejected(self):
        circuit = build_real_amplitudes(4, 2, "linear")
        with pytest.raises(ValueError):
            evaluate_circuit(circuit, params=np.zeros(11))


class TestRunCircuit:
    def test_stacked_bindings_meet_batch_axes_from_the_left(self, rng):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "linear"))
        X = rng.uniform(0, 1, (2, 4))  # one row per leading batch index
        settings = rng.uniform(0, 2 * np.pi, (1, 3, 12))  # one per trailing index
        state = np.repeat(engine.zero_state(4, batch=2)[:, None, :], 3, axis=1)
        run_circuit(circuit, state, X, settings)
        for s in range(2):
            for i in range(3):
                np.testing.assert_array_equal(
                    state[s, i], evaluate_circuit(circuit, X[s], settings[0, i])
                )

    def test_mismatched_bindings_rejected(self):
        circuit = build_z_feature_map(4, 1)
        with pytest.raises(ValueError):
            run_circuit(circuit, engine.zero_state(4), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            run_circuit(circuit, engine.zero_state(4, batch=3), np.zeros((2, 4)))


class TestCircuitUnitary:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_dense_oracle_and_is_unitary(self, rng, strategy):
        ansatz = build_real_amplitudes(4, 2, strategy)
        params = rng.uniform(0, 2 * np.pi, 12)
        unitary = circuit_unitary(ansatz, params)
        np.testing.assert_allclose(
            unitary, _oracles.circuit_unitary(ansatz, params=params), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            unitary.conj().T @ unitary, np.eye(16), rtol=0, atol=1e-12
        )

    def test_feature_slots_rejected(self):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "full"))
        with pytest.raises(ValueError):
            circuit_unitary(circuit, np.zeros(12))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, bad):
        params = np.zeros(12)
        params[5] = bad
        with pytest.raises(ValueError):
            circuit_unitary(build_real_amplitudes(4, 2, "sca"), params)


class TestProductState:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    @pytest.mark.parametrize("reps", (1, 2, 3))
    def test_matches_full_feature_map(self, rng, n_qubits, reps):
        for phase_gate in ("p", "rz"):
            one = build_z_feature_map(1, reps, phase_gate)
            full = build_z_feature_map(n_qubits, reps, phase_gate)
            for features in (rng.uniform(-2, 2, n_qubits), rng.uniform(-2, 2, (5, n_qubits))):
                state = product_state(one, features)
                expected = evaluate_circuit(full, features)
                assert state.shape == expected.shape
                np.testing.assert_allclose(state, expected, rtol=0, atol=1e-14)

    def test_empty_batch(self):
        state = product_state(build_z_feature_map(1, 2), np.zeros((0, 4)))
        assert state.shape == (0, 16)

    @pytest.mark.parametrize("circuit", [
        build_z_feature_map(2, 1),
        Circuit(1, (Instruction("ry", (0,), Slot("trainable", 0)),), 0, 1),
        Circuit(1, (Instruction("p", (0,), Slot("feature", 0)),
                    Instruction("ry", (0,), Slot("trainable", 0))), 1, 1),
        Circuit(1, (Instruction("h", (0,)),), 0, 0),
    ])
    def test_other_circuits_rejected(self, circuit):
        with pytest.raises(ValueError):
            product_state(circuit, np.zeros(4))

    @pytest.mark.parametrize("shape", [(), (0,), (2, 2, 4)])
    def test_feature_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            product_state(build_z_feature_map(1, 2), np.zeros(shape))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_non_finite_angle_rejected(self, bad):
        features = np.zeros((3, 4))
        features[1, 2] = bad
        with pytest.raises(ValueError):
            product_state(build_z_feature_map(1, 2), features)


class TestCircuitValidation:
    @pytest.mark.parametrize("inst", [
        Instruction("rx", (0,), Slot("trainable", 0)),  # unknown gate
        Instruction("swap", (0, 1)),
        Instruction("ry", (0, 1), Slot("trainable", 0)),  # wrong arity
        Instruction("h", ()),
        Instruction("cnot", (1,)),
        Instruction("cnot", (1, 1)),
        Instruction("h", (2,)),  # qubit outside the register
        Instruction("cnot", (0, -1)),
        Instruction("h", (0,), Slot("feature", 0)),  # slot on a fixed gate
        Instruction("cnot", (0, 1), Slot("trainable", 0)),
        Instruction("p", (0,)),  # angle gate without a slot
        Instruction("rz", (0,)),
        Instruction("ry", (0,)),
        Instruction("ry", (0,), Slot("Trainable", 0)),  # unknown role
        Instruction("p", (0,), Slot("feature", 1)),  # index past the declared count
        Instruction("ry", (1,), Slot("trainable", 2)),
        Instruction("ry", (1,), Slot("trainable", -1)),
    ])
    def test_invalid_instruction_rejected(self, inst):
        valid = (Instruction("h", (0,)), Instruction("p", (0,), Slot("feature", 0)))
        with pytest.raises(ValueError):
            Circuit(2, valid + (inst,), n_feature_slots=1, n_trainable_slots=2)


class TestFormatCircuit:
    def test_instruction_lines(self):
        circuit = Circuit(
            2,
            (
                Instruction("h", (0,)),
                Instruction("p", (0,), Slot("feature", 0, 2.0)),
                Instruction("ry", (1,), Slot("trainable", 3)),
                Instruction("cnot", (1, 0)),
            ),
            n_feature_slots=1,
            n_trainable_slots=4,
        )
        assert format_circuit(circuit).splitlines() == [
            "h q0",
            "p q0 2*x[0]",
            "ry q1 theta[3]",
            "cnot q1,q0",
        ]

    def test_round_trip_row_count(self):
        circuit = compose(build_z_feature_map(4, 2), build_real_amplitudes(4, 2, "full"))
        assert len(format_circuit(circuit).splitlines()) == 40
