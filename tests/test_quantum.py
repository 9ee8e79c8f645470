"""Simulator tests against independent density-matrix oracles."""

import re

import numpy as np
import pytest

from conftest import (
    GATE_2X2,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    cnot_full,
    embed,
    kraus_depolarize,
    physicality,
    random_density_matrix,
)
from qasrl.env import enumerate_actions
from qasrl.quantum import (
    GateAction,
    GateKind,
    NoiseSpec,
    TargetState,
    apply_gate,
    bell_state,
    density_matrix,
    fidelity,
    initial_state,
    pauli_coordinates,
    pauli_expectations,
)

ALL_KINDS = list(GateKind)
ERROR_PROBS = (0.0, 0.005, 0.01, 0.5, 1.0)


def make_action(kind: GateKind, n: int = 2) -> GateAction:
    if kind is GateKind.CNOT:
        return GateAction(kind, target=1, control=0)
    return GateAction(kind, target=0)


class TestInitialState:
    def test_one_qubit(self):
        state = initial_state(1)
        np.testing.assert_allclose(density_matrix(state), [[1, 0], [0, 0]], atol=1e-15)

    def test_two_qubits_single_entry(self):
        state = initial_state(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(density_matrix(state), expected, atol=1e-15)

    def test_three_qubits_valid(self):
        mat = density_matrix(initial_state(3))
        assert mat.shape == (8, 8)
        trace_err, herm_err, min_eig = physicality(mat)
        assert trace_err <= 1e-9 and herm_err <= 1e-9 and min_eig >= -1e-9

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestGateActions:
    def test_cnot_needs_control(self):
        with pytest.raises(ValueError):
            GateAction(GateKind.CNOT, target=1)

    def test_cnot_control_equals_target(self):
        with pytest.raises(ValueError):
            GateAction(GateKind.CNOT, target=1, control=1)

    def test_single_qubit_gate_rejects_control(self):
        with pytest.raises(ValueError):
            GateAction(GateKind.HADAMARD, target=0, control=1)

    @pytest.mark.parametrize("qubits, message", [(dict(target=-1), "negative target qubit -1"),
                                                 (dict(target=0, control=-2), "negative control qubit -2")],
                             ids=["target", "control"])
    def test_negative_qubit_is_refused(self, qubits, message):
        kind = GateKind.CNOT if "control" in qubits else GateKind.HADAMARD
        with pytest.raises(ValueError, match=f"^{message}$"):
            GateAction(kind, **qubits)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=2))


class TestApplyGateNoiseless:
    def test_x_flips_msb_qubit(self):
        # qubit 0 is the leftmost tensor factor: X on it sends |00> to |10>
        state = apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=0))
        assert abs(density_matrix(state)[2, 2] - 1.0) < 1e-12

    def test_x_flips_lsb_qubit(self):
        state = apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=1))
        assert abs(density_matrix(state)[1, 1] - 1.0) < 1e-12

    def test_bell_circuit(self):
        state = initial_state(2)
        state = apply_gate(state, GateAction(GateKind.HADAMARD, target=0))
        state = apply_gate(state, GateAction(GateKind.CNOT, target=1, control=0))
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(density_matrix(state), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not GateKind.ROT_PI4])
    def test_involutions_undo_themselves(self, kind):
        rng = np.random.default_rng(11)
        mat = random_density_matrix(rng, 2)
        state = pauli_coordinates(mat)
        action = make_action(kind)
        twice = apply_gate(apply_gate(state, action), action)
        np.testing.assert_allclose(density_matrix(twice), mat, atol=1e-12)

    def test_rotation_has_period_eight(self):
        # Rz(pi/4)^8 = -identity; the global phase cancels on the state
        rng = np.random.default_rng(12)
        mat = random_density_matrix(rng, 2)
        state = pauli_coordinates(mat)
        action = GateAction(GateKind.ROT_PI4, target=1)
        for _ in range(8):
            state = apply_gate(state, action)
        np.testing.assert_allclose(density_matrix(state), mat, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_unitary_conjugation_oracle(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(5):
            mat = random_density_matrix(rng, 2)
            action = make_action(kind)
            got = density_matrix(apply_gate(pauli_coordinates(mat), action))
            if kind is GateKind.CNOT:
                full = cnot_full(0, 1, 2)
            else:
                full = embed({0: GATE_2X2[kind]}, 2)
            np.testing.assert_allclose(got, full @ mat @ full.conj().T, atol=1e-12)

    def test_cnot_reversed_orientation(self):
        # control on qubit 1: |01> -> |11>
        state = apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=1))
        state = apply_gate(state, GateAction(GateKind.CNOT, target=0, control=1))
        assert abs(density_matrix(state)[3, 3] - 1.0) < 1e-12


class TestDepolarizingChannel:
    def test_x_at_one_percent_on_ground_state(self):
        # by-hand Kraus route: rho' = diag(p/2, 1 - p/2), <Z> = -(1 - p)
        noise = NoiseSpec(gate_error={GateKind.PAULI_X: 0.01})
        state = apply_gate(initial_state(1), GateAction(GateKind.PAULI_X, target=0), noise)
        np.testing.assert_allclose(density_matrix(state), np.diag([0.005, 0.995]), atol=1e-12)
        z = pauli_expectations(state)[2]
        np.testing.assert_allclose(z, -0.99, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", ERROR_PROBS)
    def test_matches_kraus_oracle(self, kind, p):
        rng = np.random.default_rng(101)
        noise = NoiseSpec(gate_error={kind: p})
        for _ in range(3):
            mat = random_density_matrix(rng, 2)
            action = make_action(kind)
            got = density_matrix(apply_gate(pauli_coordinates(mat), action, noise))
            if kind is GateKind.CNOT:
                full = cnot_full(0, 1, 2)
                qubits = (0, 1)
            else:
                full = embed({0: GATE_2X2[kind]}, 2)
                qubits = (0,)
            rotated = full @ mat @ full.conj().T
            np.testing.assert_allclose(got, kraus_depolarize(rotated, qubits, p, 2), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", ERROR_PROBS)
    def test_preserves_state_invariants(self, kind, p):
        rng = np.random.default_rng(7)
        noise = NoiseSpec(gate_error={kind: p})
        for _ in range(3):
            state = pauli_coordinates(random_density_matrix(rng, 2))
            out = apply_gate(state, make_action(kind), noise)
            trace_err, herm_err, min_eig = physicality(density_matrix(out))
            assert trace_err < 1e-12 and herm_err <= 1e-12 and min_eig >= -1e-9

    def test_full_depolarizing_on_cnot_gives_maximally_mixed(self):
        noise = NoiseSpec(gate_error={GateKind.CNOT: 1.0})
        state = apply_gate(
            initial_state(2), GateAction(GateKind.CNOT, target=1, control=0), noise
        )
        np.testing.assert_allclose(density_matrix(state), np.eye(4) / 4, atol=1e-12)

    def test_single_qubit_full_depolarizing_keeps_other_qubit(self):
        # X with p=1 on qubit 0 of |01>: qubit 0 mixed, qubit 1 stays |1>
        state = apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=1))
        noise = NoiseSpec(gate_error={GateKind.PAULI_X: 1.0})
        state = apply_gate(state, GateAction(GateKind.PAULI_X, target=0), noise)
        expected = np.kron(np.eye(2) / 2, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(density_matrix(state), expected, atol=1e-12)

    def test_three_qubit_embedding(self):
        # noise on the middle qubit must not leak onto its neighbours
        rng = np.random.default_rng(23)
        mat = random_density_matrix(rng, 3)
        noise = NoiseSpec(gate_error={GateKind.HADAMARD: 0.3})
        got = apply_gate(pauli_coordinates(mat), GateAction(GateKind.HADAMARD, target=1), noise)
        full = embed({1: HADAMARD}, 3)
        rotated = full @ mat @ full.conj().T
        np.testing.assert_allclose(density_matrix(got), kraus_depolarize(rotated, (1,), 0.3, 3), atol=1e-12)


class TestPauliExpectations:
    def test_ground_state(self):
        np.testing.assert_allclose(
            pauli_expectations(initial_state(2)), [0, 0, 1, 0, 0, 1], atol=1e-12
        )

    def test_readout_error_scales_expectations(self):
        noise = NoiseSpec(meas_error=0.01)
        np.testing.assert_allclose(
            pauli_expectations(initial_state(2), noise),
            [0, 0, 0.98, 0, 0, 0.98],
            atol=1e-12,
        )

    def test_readout_error_leaves_state_untouched(self):
        state = initial_state(2)
        before = state.copy()
        pauli_expectations(state, NoiseSpec(meas_error=0.25))
        np.testing.assert_array_equal(state, before)

    def test_bell_state_has_zero_locals(self):
        state = initial_state(2)
        state = apply_gate(state, GateAction(GateKind.HADAMARD, target=0))
        state = apply_gate(state, GateAction(GateKind.CNOT, target=1, control=0))
        np.testing.assert_allclose(pauli_expectations(state), np.zeros(6), atol=1e-12)

    def test_against_operator_trace_oracle(self):
        rng = np.random.default_rng(31)
        paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
        for _ in range(100):
            mat = random_density_matrix(rng, 2)
            got = pauli_expectations(pauli_coordinates(mat))
            expected = [
                np.trace(mat @ embed({q: paulis[name]}, 2)).real
                for q in range(2)
                for name in ("X", "Y", "Z")
            ]
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_bounded_under_any_noise(self):
        rng = np.random.default_rng(37)
        noise = NoiseSpec(meas_error=0.4)
        for _ in range(50):
            values = pauli_expectations(pauli_coordinates(random_density_matrix(rng, 2)), noise)
            assert np.all(values <= 1.0) and np.all(values >= -1.0)

    @pytest.mark.parametrize("meas_error", [0.0, 0.01, 0.4])
    def test_clamp_gives_the_bits_of_clip(self, meas_error):
        """Scaled and clamped in place, each entry equals (scale * x).clip(-1, 1),
        out-of-range values, signed zeros, infinities and NaN included."""
        rng = np.random.default_rng(41)
        special = np.array([1.5, -1.5, -0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1.0 + 2**-52])
        noise = NoiseSpec(meas_error=meas_error)
        for values in (special[:6], special[4:], rng.uniform(-1.2, 1.2, 6)):
            state = np.zeros(16)
            state[[4, 8, 12, 1, 2, 3]] = values  # X, Y, Z of qubit 0, then of qubit 1
            expected = ((1.0 - 2.0 * meas_error) * values).clip(-1.0, 1.0)
            assert pauli_expectations(state, noise).tobytes() == expected.tobytes()

    def test_ordering_is_per_qubit_xyz(self):
        # |1> on qubit 1 only: Z1 = -1, Z0 = +1
        state = apply_gate(initial_state(2), GateAction(GateKind.PAULI_X, target=1))
        np.testing.assert_allclose(pauli_expectations(state), [0, 0, 1, 0, 0, -1], atol=1e-12)


class TestFidelity:
    def test_ground_state_against_bell(self):
        np.testing.assert_allclose(fidelity(initial_state(2), bell_state()), 0.5, atol=1e-12)

    def test_bell_against_bell(self):
        state = initial_state(2)
        state = apply_gate(state, GateAction(GateKind.HADAMARD, target=0))
        state = apply_gate(state, GateAction(GateKind.CNOT, target=1, control=0))
        np.testing.assert_allclose(fidelity(state, bell_state()), 1.0, atol=1e-9)

    def test_maximally_mixed(self):
        state = pauli_coordinates(np.eye(4) / 4)
        np.testing.assert_allclose(fidelity(state, bell_state()), 0.25, atol=1e-12)

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(41)
        target = bell_state()
        for _ in range(20):
            a = rng.uniform(0, 1)
            m1 = random_density_matrix(rng, 2)
            m2 = random_density_matrix(rng, 2)
            mix = fidelity(pauli_coordinates(a * m1 + (1 - a) * m2), target)
            parts = a * fidelity(pauli_coordinates(m1), target) + (1 - a) * fidelity(
                pauli_coordinates(m2), target
            )
            np.testing.assert_allclose(mix, parts, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(initial_state(1), bell_state())


class TestTargetStateEquality:
    def test_equal_amplitudes_compare_equal(self):
        assert bell_state() == bell_state()
        assert TargetState([1.0, 0.0]) == TargetState(np.array([1.0, 0.0], dtype=complex))

    def test_different_amplitudes_or_sizes_differ(self):
        assert bell_state() != TargetState(np.array([1, 0, 0, -1]) / np.sqrt(2))
        assert bell_state() != TargetState([1.0, 0.0])
        assert bell_state() != "bell"


class TestValidation:
    def test_density_matrix_shape_check(self):
        for shape in [(3, 3), (1, 1), (2, 4), (4,), (2, 2, 2)]:
            with pytest.raises(ValueError, match=re.escape(f"2^n x 2^n matrix with n >= 1, got shape {shape}")):
                pauli_coordinates(np.zeros(shape))

    def test_target_state_must_be_normalized(self):
        with pytest.raises(ValueError):
            TargetState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_target_state_needs_at_least_one_qubit(self, length):
        with pytest.raises(ValueError, match=f"amplitude length {length} is not a power of two of at least 2"):
            TargetState(np.eye(max(length, 1))[0][:length])

    def test_target_state_stores_its_qubit_count(self):
        assert bell_state().n_qubits == 2
        assert TargetState(np.eye(8)[0]).n_qubits == 3

    def test_noise_spec_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseSpec(gate_error={GateKind.PAULI_X: 1.5})
        with pytest.raises(ValueError):
            NoiseSpec(meas_error=-0.1)

    def test_noise_spec_keys_are_gate_kinds(self):
        with pytest.raises(TypeError, match="^gate_error key 'x' is not a GateKind$"):
            NoiseSpec(gate_error={"x": 0.01})


class TestStateVector:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coordinates_and_matrix_round_trip(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(10):
            mat = random_density_matrix(rng, n)
            coords = pauli_coordinates(mat)
            np.testing.assert_allclose(density_matrix(coords), mat, atol=1e-12)
            np.testing.assert_allclose(pauli_coordinates(density_matrix(coords)), coords, atol=1e-12)

    @pytest.mark.parametrize("length", [0, 1, 8, 15, 17])
    def test_matrix_of_a_vector_not_of_4_to_the_n_entries_is_refused(self, length):
        with pytest.raises(ValueError, match=f"expected 4\\^n coordinates with n >= 1, got length {length}$"):
            density_matrix(np.zeros(length))

    def test_non_hermitian_matrix_is_refused(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            pauli_coordinates(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            pauli_coordinates(np.diag([0.5, 0.5 + 1e-8j]))
        pauli_coordinates(np.diag([0.5, 0.5 + 1e-10j]))

    def test_states_are_read_only_float64_vectors(self):
        noise = NoiseSpec(gate_error={kind: 0.1 for kind in GateKind})
        for n in (1, 2, 3):
            start = initial_state(n)
            for state in [start] + [apply_gate(start, action, noise) for action in enumerate_actions(n)]:
                assert state.dtype == np.float64 and state.shape == (4**n,)
                with pytest.raises(ValueError):
                    state[0] = 5.0
