"""Exact mixed-state simulation of small gate-model circuits.

A state is a read-only float64 vector of its 4^n Pauli coordinates
Tr(rho P_i), Pauli strings in I, X, Y, Z order with qubit 0 as the
leftmost (most significant) factor; ``pauli_coordinates`` and
``density_matrix`` convert to and from the 2^n x 2^n matrix rho.
Gate noise is a depolarizing channel on the qubits a gate touches; a
gate with its noise is one cached real Pauli-transfer matrix.  Readout
noise degrades expectation values without touching the state.
"""

import enum
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

_SQRT2 = np.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
# Z rotation by pi/4, written in the symmetric phase convention.
_ROT_PI4 = np.array(
    [[np.exp(-1j * np.pi / 8), 0], [0, np.exp(1j * np.pi / 8)]], dtype=complex
)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

_PAULI_1Q = (_I2, _X, _Y, _Z)

# An observation's clamp bounds as read-only 0-d float64 arrays, which a ufunc takes as they are.
_MINUS_ONE, _ONE = np.broadcast_to(-1.0, ()), np.broadcast_to(1.0, ())


class GateKind(enum.Enum):
    """The native gate set: one parameterless rotation, the Paulis, Hadamard, CNOT.
    The declaration order is the order of the actions in ``enumerate_actions``."""

    ROT_PI4 = "rot_pi4"
    PAULI_X = "x"
    PAULI_Y = "y"
    PAULI_Z = "z"
    HADAMARD = "h"
    CNOT = "cnot"

    # Identity hash in C: Enum's own hashes the name in Python, twice a step.
    __hash__ = object.__hash__


_SINGLE_QUBIT_MATRIX = {
    GateKind.ROT_PI4: _ROT_PI4,
    GateKind.PAULI_X: _X,
    GateKind.PAULI_Y: _Y,
    GateKind.PAULI_Z: _Z,
    GateKind.HADAMARD: _H,
}


@dataclass(frozen=True)
class GateAction:
    """One placement of a gate on named qubits.

    Single-qubit kinds use ``target`` only; CNOT needs a distinct
    ``control`` as well.
    """

    kind: GateKind
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.target < 0:
            raise ValueError(f"negative target qubit {self.target}")
        if self.kind is GateKind.CNOT:
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control < 0:
                raise ValueError(f"negative control qubit {self.control}")
            if self.control == self.target:
                raise ValueError("CNOT control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind.value} takes no control qubit")
        # The dataclass hash, computed once: apply_gate's cache lookup hashes the action every step.
        object.__setattr__(self, "_hash", hash((self.kind, self.target, self.control)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt from its fields: the cached hash holds GateKind's per-process identity hash
        return GateAction, (self.kind, self.target, self.control)

    def qubits(self) -> tuple[int, ...]:
        if self.kind is GateKind.CNOT:
            return (self.control, self.target)
        return (self.target,)


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing error probability per gate kind plus a readout error rate.

    Gate kinds absent from ``gate_error`` are noiseless.  ``meas_error``
    is the probability a single-qubit readout flips, which scales every
    expectation value by (1 - 2 * meas_error).
    """

    gate_error: dict[GateKind, float] = field(default_factory=dict)
    meas_error: float = 0.0

    def __post_init__(self):
        for kind, p in self.gate_error.items():
            if not isinstance(kind, GateKind):
                raise TypeError(f"gate_error key {kind!r} is not a GateKind")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"gate error for {kind.value} out of [0, 1]: {p}")
        if not 0.0 <= self.meas_error <= 1.0:
            raise ValueError(f"meas_error out of [0, 1]: {self.meas_error}")


@functools.lru_cache(maxsize=None)
def _pauli_basis(n_qubits: int) -> np.ndarray:
    """The 4^n Pauli strings as a read-only (4^n, 2^n, 2^n) stack in coordinate order."""
    strings = itertools.product(_PAULI_1Q, repeat=n_qubits)
    basis = np.array([functools.reduce(np.kron, s, np.eye(1, dtype=complex)) for s in strings])
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=None)
def _local_indices(n_qubits: int) -> np.ndarray:
    """Coordinates of X, Y, Z on each single qubit, in qubit order."""
    return np.array([k * 4 ** (n_qubits - 1 - q) for q in range(n_qubits) for k in (1, 2, 3)])


def pauli_coordinates(matrix) -> np.ndarray:
    """The read-only real coordinates Tr(rho P_i) of a Hermitian 2^n x 2^n
    matrix rho, n >= 1: the state vector every simulator function takes."""
    mat = np.asarray(matrix, dtype=complex)
    n = (mat.shape[0] if mat.ndim == 2 else 0).bit_length() - 1
    if n < 1 or mat.shape != (2**n, 2**n):
        raise ValueError(f"expected a 2^n x 2^n matrix with n >= 1, got shape {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > 1e-9:
        raise ValueError("matrix is not Hermitian")
    coords = np.einsum("pij,ji->p", _pauli_basis(n), mat).real.copy()
    coords.setflags(write=False)
    return coords


def density_matrix(pauli: np.ndarray) -> np.ndarray:
    """The read-only matrix sum_i pauli[i] P_i / 2^n of a state's coordinates;
    refuses a vector whose length is not 4^n with n >= 1."""
    n = len(pauli).bit_length() >> 1
    if n < 1 or np.shape(pauli) != (4**n,):
        raise ValueError(f"expected 4^n coordinates with n >= 1, got length {len(pauli)}")
    mat = np.tensordot(pauli, _pauli_basis(n), axes=1) / 2**n
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class TargetState:
    """A pure reference state on at least one qubit: its unit-norm
    amplitude vector, qubit count and Pauli coordinates."""

    amplitudes: np.ndarray
    n_qubits: int = field(init=False, compare=False)
    pauli: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = len(vec).bit_length() - 1
        if n < 1 or 2**n != len(vec):
            raise ValueError(f"amplitude length {len(vec)} is not a power of two of at least 2")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError("target state is not normalized")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "pauli", pauli_coordinates(np.outer(vec, vec.conj())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetState):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes)


def bell_state() -> TargetState:
    """(|00> + |11>) / sqrt(2)."""
    return TargetState(np.array([1, 0, 0, 1], dtype=complex) / _SQRT2)


@functools.lru_cache(maxsize=None)
def initial_state(n_qubits: int) -> np.ndarray:
    """|0...0><0...0| on ``n_qubits`` qubits; read-only, so built once per count."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return pauli_coordinates(np.diag(np.eye(2**n_qubits)[0]))


def gate_unitary(action: GateAction, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for one gate placement."""
    for q in action.qubits():
        if q >= n_qubits:
            raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")

    def full(ops: dict) -> np.ndarray:  # the identity on every qubit not in ``ops``
        return functools.reduce(np.kron, [ops.get(q, _I2) for q in range(n_qubits)])

    if action.kind is GateKind.CNOT:
        return full({action.control: _P0}) + full({action.control: _P1, action.target: _X})
    return full({action.target: _SINGLE_QUBIT_MATRIX[action.kind]})


@functools.lru_cache(maxsize=None)
def transfer_matrix(action: GateAction, n_qubits: int, p: float = 0.0) -> np.ndarray:
    """Read-only Pauli-transfer matrix T of one gate placement followed by
    depolarizing noise ``p`` on its qubits; a state vector maps to
    T @ state.  The gate part is Tr(P_i U P_j U^dag) / 2^n; the noise scales
    by (1 - p) the rows whose Pauli string is not the identity on those qubits.
    """
    unitary = gate_unitary(action, n_qubits)
    basis = _pauli_basis(n_qubits)
    table = np.einsum("ikl,jlk->ij", basis, unitary @ basis @ unitary.conj().T).real / 2**n_qubits
    digits = np.arange(4**n_qubits)[:, None] // 4 ** (n_qubits - 1 - np.array(action.qubits())) % 4
    table[digits.any(axis=1)] *= 1.0 - p
    table.setflags(write=False)
    return table


def apply_gate(state: np.ndarray, action: GateAction, noise: NoiseSpec | None = None) -> np.ndarray:
    """Conjugate by the gate unitary, then depolarize the touched qubits with
    the kind's error rate: one product with the cached ``transfer_matrix``.
    The state has 4^n coordinates, whose bit length 2n + 1 gives n; it is
    not checked, so it must be one the simulator made (``initial_state``,
    ``apply_gate`` or ``pauli_coordinates``)."""
    p = noise.gate_error.get(action.kind, 0.0) if noise is not None else 0.0
    out = transfer_matrix(action, len(state).bit_length() >> 1, p).dot(state)
    out.setflags(write=False)
    return out


def pauli_expectations(state: np.ndarray, noise: NoiseSpec | None = None) -> np.ndarray:
    """Per-qubit <X>, <Y>, <Z> in qubit order, degraded by readout error:
    a float vector of length 3 * n_qubits, each entry in [-1, 1].  Like
    ``apply_gate``, it takes only a state the simulator made, unchecked."""
    scale = 1.0 - 2.0 * (noise.meas_error if noise is not None else 0.0)
    out = state[_local_indices(len(state).bit_length() >> 1)]  # a new array, scaled and clamped in place
    return np.minimum(np.maximum(np.multiply(out, scale, out=out), _MINUS_ONE, out=out), _ONE, out=out)  # clip's bits


def fidelity(state: np.ndarray, target: TargetState) -> float:
    """<psi| rho |psi> against a pure target; linear in rho, in [0, 1]."""
    pauli = target.pauli
    if len(pauli) != len(state):
        raise ValueError(f"target has {target.n_qubits} qubits, state has {len(state).bit_length() >> 1}")
    return float(pauli.dot(state)) / 2**target.n_qubits
