"""Shared oracle helpers for the test suite.

These recompute physics and linear algebra along routes independent of
the package implementation: explicit Kraus sums instead of partial
traces, kron-built operator traces instead of reduced matrices, and a
hand-built network that solves the Bell task by construction.
"""

import numpy as np

from qasrl.quantum import GateKind
from qasrl.network import QNetwork

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

GATE_2X2 = {
    GateKind.ROT_PI4: np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]),
    GateKind.PAULI_X: PAULI_X,
    GateKind.PAULI_Y: PAULI_Y,
    GateKind.PAULI_Z: PAULI_Z,
    GateKind.HADAMARD: HADAMARD,
}


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed(ops_by_qubit: dict, n: int) -> np.ndarray:
    """Tensor single-qubit operators into the full space, identity elsewhere."""
    return kron_chain([ops_by_qubit.get(q, I2) for q in range(n)])


def cnot_full(control: int, target: int, n: int) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return embed({control: p0}, n) + embed({control: p1, target: PAULI_X}, n)


def kraus_depolarize(mat: np.ndarray, qubits: tuple, p: float, n: int) -> np.ndarray:
    """Depolarizing channel as an explicit Kraus sum over Pauli strings.

    One qubit: weights (1 - 3p/4, p/4, p/4, p/4) on (I, X, Y, Z).
    Two qubits: 1 - 15p/16 on the identity, p/16 on the other 15 pairs.
    """
    paulis = [I2, PAULI_X, PAULI_Y, PAULI_Z]
    d_sq = 4 ** len(qubits)
    out = np.zeros_like(mat)
    for combo in np.ndindex(*(4,) * len(qubits)):
        weight = 1.0 - (d_sq - 1) * p / d_sq if all(c == 0 for c in combo) else p / d_sq
        op = embed({q: paulis[c] for q, c in zip(qubits, combo)}, n)
        out += weight * (op @ mat @ op.conj().T)
    return out


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return mat / np.trace(mat)


def physicality(mat: np.ndarray) -> tuple[float, float, float]:
    """|Tr(rho) - 1|, the largest entry of |rho - rho^dag| and the smallest
    eigenvalue: 0, 0 and at least 0 for a physical density matrix."""
    return (abs(np.trace(mat) - 1.0), float(np.abs(mat - mat.conj().T).max()),
            float(np.linalg.eigvalsh(mat).min()))


def zero_network(layer_sizes) -> QNetwork:
    return QNetwork(layer_sizes)


def constant_output_network(q_values, input_dim: int) -> QNetwork:
    """A net whose output equals ``q_values`` for every input (bias only)."""
    q = np.asarray(q_values, dtype=float)
    net = QNetwork([input_dim, len(q)])
    net.biases[0][:] = q
    return net


def central_differences(net: QNetwork, x: np.ndarray, action: int, target: float,
                        delta: float) -> np.ndarray:
    """Central differences of (Q(x)[action] - target)^2, one per entry of
    net.params.  The 2P perturbed copies of net.params (each entry moved
    up, then each moved down) go through one stacked forward pass, done
    as QNetwork.forward does it for one input."""
    sizes, size = net.layer_sizes, net.params.size
    diagonal = np.arange(size)
    stack = np.tile(net.params, (2, size, 1))
    stack[0, diagonal, diagonal] += delta
    stack[1, diagonal, diagonal] -= delta
    stack = stack.reshape(2 * size, size)
    h, cursor = np.tile(x, (2 * size, 1, 1)), 0
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        w = stack[:, cursor:cursor + fan_in * fan_out].reshape(-1, fan_in, fan_out)
        cursor += fan_in * fan_out
        h = h @ w + stack[:, None, cursor:cursor + fan_out]
        cursor += fan_out
        if layer < len(sizes) - 2:
            h = np.maximum(h, 0.0)
    # float_power calls C pow() as ``**`` on a float64 scalar does;
    # array ``**`` squares by multiplication, which rounds differently
    loss = np.float_power(h[:, 0, action] - target, 2)
    return (loss[:size] - loss[size:]) / (2 * delta)


def finite_difference_max_rel_err(rng: np.random.Generator, layer_sizes,
                                  n_cases: int, delta: float = 1e-5) -> float:
    """Max relative error between backprop and central differences.

    Each case is a fresh random net, input, action index and target.
    Inputs landing within 10 * delta of a ReLU kink are redrawn, since
    finite differences are undefined across the kink.
    """
    from qasrl.network import mse_loss_and_grad

    worst = 0.0
    for _ in range(n_cases):
        while True:
            net = QNetwork(layer_sizes, rng=rng)
            for b in net.biases:
                b[:] = 0.5 * rng.normal(size=b.shape)
            x = rng.normal(size=layer_sizes[0])
            h = x
            near_kink = False
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                z = h @ w + b
                if np.min(np.abs(z)) < 10 * delta:
                    near_kink = True
                    break
                h = np.maximum(z, 0.0)
            if not near_kink:
                break
        action = int(rng.integers(layer_sizes[-1]))
        target = float(rng.normal())
        _, grad = mse_loss_and_grad(net, x[None, :], np.array([action]), np.array([target]))
        # grad is laid out like net.params, entry for entry
        fd = central_differences(net, x, action, target, delta)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


def bell_solver_network() -> QNetwork:
    """A hand-built policy that plays H on qubit 0 then CNOT(0, 1).

    Inputs are the six Pauli expectations [X0, Y0, Z0, X1, Y1, Z1].
    The Hadamard head scores Z0 - X0 (positive at reset, negative after
    the Hadamard); the CNOT head scores X0.  ReLU pairs recover the
    signed values, every other action sits at -0.5.
    """
    net = QNetwork([6, 4, 12])
    w1 = np.zeros((6, 4))
    # h0/h1: relu(+-(Z0 - X0)), h2/h3: relu(+-X0)
    w1[2, 0], w1[0, 0] = 1.0, -1.0
    w1[2, 1], w1[0, 1] = -1.0, 1.0
    w1[0, 2] = 1.0
    w1[0, 3] = -1.0
    w2 = np.zeros((4, 12))
    w2[0, 4], w2[1, 4] = 1.0, -1.0  # action 4 = H on qubit 0
    w2[2, 10], w2[3, 10] = 1.0, -1.0  # action 10 = CNOT(0, 1)
    b2 = np.full(12, -0.5)
    b2[4] = 0.0
    b2[10] = 0.0
    net.weights[0][:] = w1
    net.weights[1][:] = w2
    net.biases[1][:] = b2
    return net


def poison_agents(monkeypatch) -> None:
    """Make every agent ppr_run builds start with one NaN policy weight."""
    from qasrl import ppr
    from qasrl.dqn import DQNAgent

    class PoisonedAgent(DQNAgent):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.policy_net.weights[0][0, 0] = np.nan

    monkeypatch.setattr(ppr, "DQNAgent", PoisonedAgent)
