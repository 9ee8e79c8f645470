"""Exact mixed-state simulation of small gate-model circuits.

States are the 4^n real Pauli coordinates Tr(rho P_i), Pauli strings in
I, X, Y, Z order with qubit 0 as the leftmost (most significant) factor.
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

    def gate_p(self, kind: GateKind) -> float:
        return self.gate_error.get(kind, 0.0)


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


@dataclass(frozen=True, init=False)
class DensityMatrix:
    """An n-qubit mixed state held as its read-only Pauli coordinates ``pauli[i]``
    = Tr(rho P_i), complex only for a non-Hermitian matrix (``validate`` rejects
    it).  ``elements``, the 2^n x 2^n matrix, is rebuilt from them on access."""

    n_qubits: int
    pauli: np.ndarray

    def __init__(self, n_qubits: int, elements):
        dim = 2**n_qubits
        mat = np.asarray(elements, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        coords = np.einsum("pij,ji->p", _pauli_basis(n_qubits), mat)
        self._hold(n_qubits, coords if coords.imag.any() else coords.real.copy())

    def _hold(self, n_qubits: int, pauli: np.ndarray) -> "DensityMatrix":
        """Set both fields, ``pauli`` read-only; on a bare ``__new__`` it skips the conversion."""
        pauli.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "pauli", pauli)
        return self

    @property
    def elements(self) -> np.ndarray:
        """The density matrix sum_i pauli[i] P_i / 2^n, read-only."""
        mat = np.tensordot(self.pauli, _pauli_basis(self.n_qubits), axes=1) / 2**self.n_qubits
        mat.setflags(write=False)
        return mat

    def validate(self, atol: float = 1e-9) -> None:
        """Raise if the matrix is not a physical state to within ``atol``."""
        if abs(np.trace(self.elements) - 1.0) > atol:
            raise ValueError(f"trace {np.trace(self.elements)} != 1")
        if not np.allclose(self.elements, self.elements.conj().T, atol=atol):
            raise ValueError("matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(self.elements)
        if eigs.min() < -atol:
            raise ValueError(f"negative eigenvalue {eigs.min()}")


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
        object.__setattr__(self, "pauli", DensityMatrix(n, np.outer(vec, vec.conj())).pauli.real)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetState):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes)


def bell_state() -> TargetState:
    """(|00> + |11>) / sqrt(2)."""
    return TargetState(np.array([1, 0, 0, 1], dtype=complex) / _SQRT2)


@functools.lru_cache(maxsize=None)
def initial_state(n_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on ``n_qubits`` qubits; immutable, so built once per count."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return DensityMatrix(n_qubits, np.diag(np.eye(2**n_qubits)[0]))


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
    depolarizing noise ``p`` on its qubits; a state's ``pauli`` maps to
    T @ pauli.  The gate part is Tr(P_i U P_j U^dag) / 2^n; the noise scales
    by (1 - p) the rows whose Pauli string is not the identity on those qubits.
    """
    unitary = gate_unitary(action, n_qubits)
    basis = _pauli_basis(n_qubits)
    table = np.einsum("ikl,jlk->ij", basis, unitary @ basis @ unitary.conj().T).real / 2**n_qubits
    digits = np.arange(4**n_qubits)[:, None] // 4 ** (n_qubits - 1 - np.array(action.qubits())) % 4
    table[digits.any(axis=1)] *= 1.0 - p
    table.setflags(write=False)
    return table


def apply_gate(state: DensityMatrix, action: GateAction, noise: NoiseSpec | None = None) -> DensityMatrix:
    """Conjugate by the gate unitary, then depolarize the touched qubits with
    the kind's error rate: one product with the cached ``transfer_matrix``."""
    p = noise.gate_p(action.kind) if noise is not None else 0.0
    table = transfer_matrix(action, state.n_qubits, p)
    return DensityMatrix.__new__(DensityMatrix)._hold(state.n_qubits, table.dot(state.pauli))


def pauli_expectations(state: DensityMatrix, noise: NoiseSpec | None = None) -> np.ndarray:
    """Per-qubit <X>, <Y>, <Z> in qubit order, degraded by readout error:
    a float vector of length 3 * n_qubits, each entry in [-1, 1]."""
    scale = 1.0 - 2.0 * (noise.meas_error if noise is not None else 0.0)
    return (scale * state.pauli[_local_indices(state.n_qubits)].real).clip(-1.0, 1.0)


def fidelity(state: DensityMatrix, target: TargetState) -> float:
    """<psi| rho |psi> against a pure target; linear in rho, in [0, 1]."""
    if target.pauli.shape != state.pauli.shape:
        raise ValueError(f"target has {target.n_qubits} qubits, state has {state.n_qubits}")
    return float(target.pauli.dot(state.pauli).real) / 2**state.n_qubits
