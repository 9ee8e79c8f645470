"""Independent two-qubit physics oracle for the benchmark's checks.

It shares no code with ``qasrl``: states are 4 x 4 density matrices
evolved by explicit Kraus sums, depolarizing noise is written as a
weighted sum over Pauli strings on the touched qubits, and every
observable is a kron-built operator traced against the state.  The noise
table restates the six environments of the paper's curriculum, so a
program that gets a noise rate wrong disagrees with it.
"""

import itertools
import json
from pathlib import Path

import numpy as np

N_QUBITS = 2
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)
SINGLE_QUBIT = {
    "rot_pi4": np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]),
    "x": X,
    "y": Y,
    "z": Z,
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}
# The action catalogue: five single-qubit gates on each qubit, then
# CNOT(0 -> 1) and CNOT(1 -> 0), as (kind, target, control).
ACTIONS = tuple(
    [(kind, q, None) for q in range(N_QUBITS) for kind in SINGLE_QUBIT]
    + [("cnot", t, c) for c in range(N_QUBITS) for t in range(N_QUBITS) if t != c]
)
# Depolarizing probability per gate kind in each environment; the
# readout of every qubit flips with probability MEAS_ERROR everywhere.
ENV_NOISE = {
    0: {},
    1: {"x": 0.01},
    2: {"x": 0.01, "h": 0.01},
    3: {"x": 0.01, "cnot": 0.01},
    4: {"x": 0.005, "h": 0.005, "cnot": 0.005},
    5: {"x": 0.01, "h": 0.01, "cnot": 0.005},
}
MEAS_ERROR = 0.01
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def embed(ops_by_qubit: dict) -> np.ndarray:
    """Kron of one 2 x 2 operator per qubit, identity where none is given."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(N_QUBITS):
        out = np.kron(out, ops_by_qubit.get(q, I2))
    return out


# X0, Y0, Z0, X1, Y1, Z1 as full 4 x 4 operators, in observation order.
OBSERVABLES = [embed({q: pauli}) for q in range(N_QUBITS) for pauli in (X, Y, Z)]


def unitary(kind: str, target: int, control: int | None) -> np.ndarray:
    if kind == "cnot":
        p0 = np.diag([1, 0]).astype(complex)
        p1 = np.diag([0, 1]).astype(complex)
        return embed({control: p0}) + embed({control: p1, target: X})
    return embed({target: SINGLE_QUBIT[kind]})


def kraus_operators(kind: str, target: int, control: int | None, p: float) -> np.ndarray:
    """Kraus operators of the gate followed by depolarizing noise of
    strength ``p`` on its qubits: sqrt(w) * P @ U for every Pauli string P
    on the touched qubits, with weight 1 - (d^2 - 1) p / d^2 on the
    identity string and p / d^2 on each other one."""
    u = unitary(kind, target, control)
    if p == 0.0:
        return u[None]
    touched = (control, target) if kind == "cnot" else (target,)
    d_sq = 4 ** len(touched)
    ops = []
    for combo in itertools.product(range(4), repeat=len(touched)):
        weight = 1.0 - (d_sq - 1) * p / d_sq if not any(combo) else p / d_sq
        string = embed({q: PAULIS[c] for q, c in zip(touched, combo)})
        ops.append(np.sqrt(weight) * string @ u)
    return np.array(ops)


class Device:
    """One environment of the curriculum: Kraus sets per action, the
    readout scale and the Bell target."""

    def __init__(self, env_id: int):
        noise = ENV_NOISE[env_id]
        self.env_id = env_id
        self.readout_scale = 1.0 - 2.0 * MEAS_ERROR
        self._kraus = {}
        for action in ACTIONS:
            ks = kraus_operators(*action, noise.get(action[0], 0.0))
            self._kraus[action] = (ks, ks.conj().transpose(0, 2, 1))

    def apply(self, rho: np.ndarray, action: tuple) -> np.ndarray:
        """sum_k K_k rho K_k^dagger."""
        ks, ks_dagger = self._kraus[action]
        return (ks @ rho @ ks_dagger).sum(axis=0)

    def run(self, gates) -> tuple[np.ndarray, list[float]]:
        """Final state and the Bell fidelity after each gate."""
        rho = initial_state()
        fidelities = []
        for gate in gates:
            rho = self.apply(rho, gate)
            fidelities.append(bell_fidelity(rho))
        return rho, fidelities

    def observe(self, rho: np.ndarray) -> np.ndarray:
        """<X>, <Y>, <Z> of each qubit, scaled by the readout error."""
        values = [self.readout_scale * np.trace(rho @ op).real for op in OBSERVABLES]
        return np.clip(values, -1.0, 1.0)


def initial_state() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def bell_fidelity(rho: np.ndarray) -> float:
    return float(np.vdot(BELL, rho @ BELL).real)


def greedy_action(weights, biases, observation: np.ndarray) -> int:
    """argmax of a ReLU MLP's output, ties to the lowest index."""
    h = np.asarray(observation, dtype=float)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return int(np.argmax(h @ weights[-1] + biases[-1]))


def read_snapshot(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and biases of a policy file: one JSON header line with
    ``layer_sizes``, then little-endian float64 weights and bias per layer."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    sizes = json.loads(raw[:newline])["layer_sizes"]
    flat = np.frombuffer(raw[newline + 1:], dtype="<f8")
    weights, biases, cursor = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(flat[cursor:cursor + fan_in * fan_out].reshape(fan_in, fan_out))
        cursor += fan_in * fan_out
        biases.append(flat[cursor:cursor + fan_out])
        cursor += fan_out
    if cursor != flat.size:
        raise ValueError(f"{path}: {flat.size} parameters, layer sizes {sizes} need {cursor}")
    return weights, biases
