"""The Pauli-transfer simulator against an explicit density-matrix evolution.

The reference here conjugates 2^n x 2^n matrices by full unitaries and
applies depolarizing noise as the Kraus sum of ``conftest``; it shares
no code with the transfer matrices of ``qasrl.quantum``.
"""

import itertools

import numpy as np
import pytest

from conftest import GATE_2X2, I2, PAULI_X, PAULI_Y, PAULI_Z, cnot_full, embed, kraus_depolarize, kron_chain
from qasrl.env import CircuitEnv
from qasrl.experiments import ENVIRONMENT_NOISE, build_environment
from qasrl.quantum import GateAction, GateKind, transfer_matrix

TOL = 1e-12


def gate_full(action: GateAction, n: int) -> np.ndarray:
    if action.kind is GateKind.CNOT:
        return cnot_full(action.control, action.target, n)
    return embed({action.target: GATE_2X2[action.kind]}, n)


def reference_channel(mat: np.ndarray, action: GateAction, p: float, n: int) -> np.ndarray:
    full = gate_full(action, n)
    return kraus_depolarize(full @ mat @ full.conj().T, action.qubits(), p, n)


def reference_observation(mat: np.ndarray, meas_error: float, n: int) -> np.ndarray:
    values = [
        (1 - 2 * meas_error) * np.trace(mat @ embed({q: op}, n)).real
        for q in range(n)
        for op in (PAULI_X, PAULI_Y, PAULI_Z)
    ]
    return np.clip(values, -1.0, 1.0)


@pytest.mark.parametrize("env_id", sorted(ENVIRONMENT_NOISE))
def test_random_circuits_match_density_matrix_evolution(env_id):
    # threshold 1.0: circuits run their drawn length unless they make the exact target
    config = build_environment(env_id, fidelity_threshold=1.0)
    env = CircuitEnv(config)
    noise, psi = config.noise, config.target.amplitudes
    rng = np.random.default_rng(1000 + env_id)
    worst, steps = 0.0, 0
    for _ in range(60):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        obs = env.reset()
        worst = max(worst, np.abs(obs - reference_observation(mat, noise.meas_error, 2)).max())
        for _ in range(int(rng.integers(1, 21))):
            index = int(rng.integers(env.n_actions))
            result = env.step(index)
            action = env.actions[index]
            mat = reference_channel(mat, action, noise.gate_p(action.kind), 2)
            worst = max(
                worst,
                np.abs(result.observation - reference_observation(mat, noise.meas_error, 2)).max(),
                abs(result.fidelity - np.vdot(psi, mat @ psi).real),
            )
            steps += 1
            if result.done:
                break
    assert steps > 500
    assert worst <= TOL, f"env {env_id}: largest deviation {worst:.2e} over {steps} steps"


def test_three_qubit_transfer_matrix_matches_kraus_channel():
    # CNOT from qubit 2 onto qubit 0 with noise: the touched qubits are not adjacent
    action = GateAction(GateKind.CNOT, target=0, control=2)
    p = 0.3
    strings = [kron_chain(ops) for ops in itertools.product((I2, PAULI_X, PAULI_Y, PAULI_Z), repeat=3)]
    images = [reference_channel(col, action, p, 3) for col in strings]
    expected = np.array([[np.trace(row @ image).real / 8 for image in images] for row in strings])
    np.testing.assert_allclose(transfer_matrix(action, 3, p), expected, rtol=0, atol=TOL)
