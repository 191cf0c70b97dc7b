import numpy as np
import pytest

import _oracles
from qnnbench import engine


SQ2 = 1.0 / np.sqrt(2.0)


def random_state(rng, n, batch=None):
    shape = (1 << n,) if batch is None else (batch, 1 << n)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


class TestSingleQubit:
    def test_h_on_zero(self):
        state = engine.apply_h(engine.zero_state(1), 0)
        np.testing.assert_allclose(state, [SQ2, SQ2])

    def test_ry_zero_keeps_state(self, rng):
        state = random_state(rng, 3)
        before = state.copy()
        engine.apply_ry(state, 1, 0.0)
        np.testing.assert_allclose(state, before, atol=1e-15)

    def test_h_qubit1_matches_dense_kron(self):
        state = engine.apply_h(engine.zero_state(2), 1)
        expected = _oracles.embed_single(2, _oracles.dense_gate("h"), 1) @ np.array(
            [1, 0, 0, 0], dtype=complex
        )
        np.testing.assert_allclose(state, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["h", "p", "rz", "ry"])
    def test_matches_dense_embedding(self, rng, kind):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(0, n))
            angle = float(rng.uniform(-np.pi, np.pi))
            state = random_state(rng, n)
            expected = _oracles.embed_single(n, _oracles.dense_gate(kind, angle), q) @ state
            if kind == "h":
                engine.apply_h(state, q)
            elif kind == "p":
                engine.apply_p(state, q, angle)
            elif kind == "rz":
                engine.apply_rz(state, q, angle)
            else:
                engine.apply_ry(state, q, angle)
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            engine.apply_h(engine.zero_state(2), 2)

    def test_batched_states_and_angles(self, rng):
        states = random_state(rng, 2, batch=5)
        angles = rng.uniform(-np.pi, np.pi, 5)
        expected = np.stack(
            [
                _oracles.embed_single(2, _oracles.dense_gate("p", a), 1) @ s
                for s, a in zip(states.copy(), angles)
            ]
        )
        engine.apply_p(states, 1, angles)
        np.testing.assert_allclose(states, expected, atol=1e-12)

    def test_angle_batch_shape_mismatch(self, rng):
        states = random_state(rng, 2, batch=5)
        with pytest.raises(ValueError):
            engine.apply_ry(states, 0, np.ones(4))


class TestCnot:
    def test_control_unset_is_identity(self):
        state = engine.apply_cnot(engine.zero_state(2), 0, 1)
        np.testing.assert_allclose(state, [1, 0, 0, 0])

    def test_control_set_flips_target(self):
        # qubit 0 set (basis index 1) -> both bits set (basis index 3)
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        engine.apply_cnot(state, 0, 1)
        expected = np.zeros(4)
        expected[3] = 1.0
        np.testing.assert_allclose(state, expected)

    def test_bell_state(self):
        state = engine.zero_state(2)
        engine.apply_h(state, 0)
        engine.apply_cnot(state, 0, 1)
        np.testing.assert_allclose(state, [SQ2, 0, 0, SQ2])

    def test_matches_permutation_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            control, target = rng.choice(n, size=2, replace=False)
            state = random_state(rng, n)
            expected = _oracles.cnot_permutation(n, control, target) @ state
            engine.apply_cnot(state, int(control), int(target))
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_norm_preserved_exactly(self, rng):
        state = random_state(rng, 3)
        norm_before = np.linalg.norm(state)
        engine.apply_cnot(state, 2, 0)
        assert np.linalg.norm(state) == norm_before

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            engine.apply_cnot(engine.zero_state(2), 1, 1)


# Strided basis-first views as the gradient and run_circuit pass them: a
# live prefix of a state stack, a dim-last stack's transpose, and both.
STRIDED_VIEWS = {
    "prefix": ((16, 5, 3), lambda owner: owner[:, :3]),
    "transposed": ((5, 3, 16), lambda owner: owner.transpose(2, 0, 1)),
    "transposed_prefix": ((5, 3, 16), lambda owner: owner[:3].transpose(2, 0, 1)),
}


class TestStridedViews:
    """Kernels reshape the basis axis of the state they are given; on a
    strided view that reshape must stay a view, or the update would land
    in a copy and the caller's array would silently keep its old amplitudes."""

    @staticmethod
    def owner_and_view(rng, layout):
        shape, view_of = STRIDED_VIEWS[layout]
        owner = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        view = view_of(owner)
        assert not view.flags.c_contiguous
        return owner, view, view_of

    @pytest.mark.parametrize("layout", list(STRIDED_VIEWS))
    def test_ry_updates_the_callers_array(self, rng, layout):
        for q in range(4):
            owner, view, view_of = self.owner_and_view(rng, layout)
            angles = rng.uniform(-np.pi, np.pi, view.shape[1])
            expected = owner.copy()
            columns = view_of(expected)
            for j, angle in enumerate(angles):
                gate = _oracles.embed_single(4, _oracles.dense_gate("ry", angle), q)
                columns[:, j] = gate @ columns[:, j]
            engine.apply_ry_t(view, q, angles[:, None])
            np.testing.assert_allclose(owner, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", list(STRIDED_VIEWS))
    def test_cnot_updates_the_callers_array(self, rng, layout):
        for control in range(4):
            for target in range(4):
                if control == target:
                    continue
                owner, view, view_of = self.owner_and_view(rng, layout)
                expected = owner.copy()
                columns = view_of(expected)
                columns[...] = np.tensordot(
                    _oracles.cnot_permutation(4, control, target), columns, axes=(1, 0)
                )
                engine.apply_cnot_t(view, control, target)
                np.testing.assert_array_equal(owner, expected)


class TestExpectation:
    def test_all_zeros_has_even_parity(self):
        assert engine.expectation(engine.zero_state(4)) == 1.0

    def test_single_excitation_has_odd_parity(self):
        state = np.zeros(16, dtype=complex)
        state[1] = 1.0  # |0001> in qubit-index order
        assert engine.expectation(state) == -1.0

    def test_uniform_superposition_cancels(self):
        state = np.full(16, 0.25, dtype=complex)
        assert abs(engine.expectation(state)) < 1e-12

    def test_bounded_on_random_states(self, rng):
        for _ in range(50):
            state = random_state(rng, int(rng.integers(1, 5)))
            value = engine.expectation(state)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_matches_signed_sum_oracle(self, rng):
        state = random_state(rng, 4)
        np.testing.assert_allclose(
            engine.expectation(state), _oracles.parity_expectation(state), atol=1e-12
        )


class TestInvariants:
    def test_norm_preserved_over_random_sequences(self, rng):
        state = random_state(rng, 3)
        for _ in range(60):
            kind = rng.choice(["h", "p", "rz", "ry", "cnot"])
            if kind == "cnot":
                c, t = rng.choice(3, size=2, replace=False)
                engine.apply_cnot(state, int(c), int(t))
            else:
                q = int(rng.integers(0, 3))
                angle = float(rng.uniform(-np.pi, np.pi))
                getattr(engine, f"apply_{kind}")(state, q, angle) if kind != "h" \
                    else engine.apply_h(state, q)
            assert abs(np.vdot(state, state).real - 1.0) <= 1e-10

    def test_hadamard_involution(self, rng):
        state = random_state(rng, 2)
        before = state.copy()
        engine.apply_h(state, 1)
        engine.apply_h(state, 1)
        np.testing.assert_allclose(state, before, atol=1e-12)

    def test_rz_and_p_give_equal_expectations(self, rng):
        for _ in range(20):
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            base = random_state(rng, 3)
            via_rz = engine.apply_rz(base.copy(), 1, angle)
            via_p = engine.apply_p(base.copy(), 1, angle)
            assert abs(
                engine.expectation(via_rz) - engine.expectation(via_p)
            ) <= 1e-12

    def test_random_circuits_match_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            state = engine.zero_state(n)
            unitary = np.eye(1 << n, dtype=complex)
            for _ in range(int(rng.integers(1, 13))):
                if n >= 2 and rng.random() < 0.3:
                    c, t = rng.choice(n, size=2, replace=False)
                    engine.apply_cnot(state, int(c), int(t))
                    unitary = _oracles.cnot_permutation(n, int(c), int(t)) @ unitary
                else:
                    kind = str(rng.choice(["h", "p", "rz", "ry"]))
                    q = int(rng.integers(0, n))
                    angle = float(rng.uniform(-np.pi, np.pi))
                    if kind == "h":
                        engine.apply_h(state, q)
                    else:
                        getattr(engine, f"apply_{kind}")(state, q, angle)
                    unitary = _oracles.embed_single(
                        n, _oracles.dense_gate(kind, angle), q
                    ) @ unitary
            expected = unitary[:, 0]
            np.testing.assert_allclose(state, expected, atol=1e-10)


class TestTransposedLayout:
    """The basis-axis-first fast path must agree with the dim-last path."""

    def test_all_gates_agree_across_layouts(self, rng):
        batch = 7
        states = random_state(rng, 3, batch=batch)
        states_t = np.ascontiguousarray(states.T)
        angles = rng.uniform(-np.pi, np.pi, batch)

        engine.apply_h(states, 1)
        engine.apply_h_t(states_t, 1)
        engine.apply_p(states, 0, angles)
        engine.apply_p_t(states_t, 0, angles)
        engine.apply_rz(states, 2, angles)
        engine.apply_rz_t(states_t, 2, angles)
        engine.apply_ry(states, 1, angles)
        engine.apply_ry_t(states_t, 1, angles)
        engine.apply_cnot(states, 0, 2)
        engine.apply_cnot_t(states_t, 0, 2)

        np.testing.assert_allclose(states_t.T, states, atol=1e-12)
        np.testing.assert_allclose(
            engine.parity_z_expectation_t(states_t),
            engine.expectation(states),
            atol=1e-12,
        )

    def test_zero_state_t_shape(self):
        state = engine.zero_state_t(3, batch=(4, 5))
        assert state.shape == (8, 4, 5)
        assert state[0, 2, 3] == 1.0
        assert np.sum(np.abs(state) ** 2) == 20.0


class TestGuards:
    def test_zero_state_needs_positive_qubits(self):
        with pytest.raises(ValueError):
            engine.zero_state(0)

    def test_dense_guard_on_width(self):
        with pytest.raises(ValueError):
            engine.zero_state(engine.MAX_QUBITS + 1)

    def test_non_power_of_two_state_rejected(self):
        with pytest.raises(ValueError):
            engine.apply_h(np.ones(3, dtype=complex), 0)
