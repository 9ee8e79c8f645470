"""Dense Q-network with hand-written backprop and Adam.

No autodiff: the gradient of the TD loss is computed layer by layer in
plain numpy.  The loss only flows through the output unit of the action
actually taken in each sampled transition.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNAPSHOT_FORMAT_VERSION = 1


class QNetwork:
    """Fully connected net, ReLU hidden layers, linear output.

    With an rng, weights start uniform in +-1/sqrt(fan_in); without one
    they start at zero.  Biases always start at zero.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = sizes
        # Every parameter in one vector, W0, b0, W1, b1, ...: the snapshot byte order.
        self.params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:])))
        self.weights, self.biases = self.layer_views(self.params)
        if rng is not None:
            for w in self.weights:
                bound = 1.0 / np.sqrt(w.shape[0])
                w[:] = rng.uniform(-bound, bound, size=w.shape)

    def layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``params``."""
        weights, biases, cursor = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(flat[cursor:cursor + fan_in * fan_out].reshape(fan_in, fan_out))
            cursor += fan_in * fan_out
            biases.append(flat[cursor:cursor + fan_out])
            cursor += fan_out
        return weights, biases

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Q-values for one observation (1-D) or a batch (2-D)."""
        x = np.asarray(inputs, dtype=float)
        single = x.ndim == 1
        h = x.reshape(1, -1) if single else x
        if h.ndim != 2 or h.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input shape {x.shape} does not match network input {self.layer_sizes[0]}"
            )
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[0] if single else out


def mse_loss_and_grad(net: QNetwork, inputs: np.ndarray, actions: np.ndarray, targets: np.ndarray):
    """Mean squared TD error over a batch, with gradients per parameter.

    loss = mean over the batch of (Q(s, a) - target)^2, where only the
    taken action's output contributes.  Returns (loss, grad) with grad
    laid out like net.params; net.layer_views(grad) splits it per layer.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    acts_idx = np.asarray(actions, dtype=int)
    tgt = np.asarray(targets, dtype=float)
    batch = x.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    if acts_idx.shape != (batch,) or tgt.shape != (batch,):
        raise ValueError("inputs, actions and targets must share the batch dimension")
    if acts_idx.min() < 0 or acts_idx.max() >= net.output_dim:
        raise ValueError("action index out of range")

    # forward in place, keeping each hidden layer's ReLU mask for the backward pass
    activations = [x]
    masks = []
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = h @ w
        h += b
        masks.append(h > 0)
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    out = h @ net.weights[-1]
    out += net.biases[-1]

    rows = np.arange(batch)
    err = out[rows, acts_idx]
    err -= tgt
    loss = float(np.add.reduce(err * err)) / batch  # np.mean's sum, then divide

    err *= 2.0
    err /= batch
    delta = np.zeros_like(out)
    delta[rows, acts_idx] = err
    grad = np.empty_like(net.params)
    dws, dbs = net.layer_views(grad)
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=dws[layer])
        np.add.reduce(delta, axis=0, out=dbs[layer])
        if layer > 0:
            delta = delta @ net.weights[layer].T
            delta *= masks[layer - 1]
    return loss, grad


@dataclass
class AdamState:
    """First/second moment vectors, laid out like QNetwork.params, and the step counter."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_network(cls, net: QNetwork, learning_rate: float = 0.001,
                    beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        return cls(learning_rate, beta1, beta2, epsilon,
                   m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(net: QNetwork, state: AdamState, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of net.params by a like-shaped grad, in place."""
    state.t += 1
    corr1 = 1.0 - state.beta1**state.t
    corr2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    net.params -= state.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + state.epsilon)


def clone_parameters(net: QNetwork) -> QNetwork:
    """Deep copy: same architecture, independent parameter vector."""
    copy = QNetwork(net.layer_sizes)
    copy.params[:] = net.params
    return copy


def file_error(path, exc: Exception) -> ValueError:
    """A one-line ValueError naming the file whose content raised ``exc``."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{path}: {reason}")


def write_file(path, data: bytes) -> None:
    """Replace ``path`` by ``data`` atomically, through a temp file beside it; makes the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_policy(net: QNetwork, path) -> None:
    """Write a self-describing snapshot: JSON header line, then raw
    little-endian float64 parameters (per layer, weights then bias)."""
    header = {"format_version": SNAPSHOT_FORMAT_VERSION, "layer_sizes": net.layer_sizes, "activation": "relu"}
    write_file(path, json.dumps(header).encode("utf-8") + b"\n" + net.params.astype("<f8", copy=False).tobytes())


def load_policy(path) -> QNetwork:
    """Read a save_policy snapshot; a malformed one raises a ValueError
    naming the file."""
    raw = Path(path).read_bytes()
    header_line, newline, blob = raw.partition(b"\n")
    try:
        if not newline:
            raise ValueError("no header line")
        header = json.loads(header_line)
        if header.get("format_version") != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot format {header.get('format_version')!r}")
        if header["activation"] != "relu":
            raise ValueError(f"unsupported activation {header['activation']!r}")
        net = QNetwork(header["layer_sizes"])
        if len(blob) != 8 * net.params.size:
            raise ValueError(f"snapshot holds {len(blob) / 8:g} parameters, expected {net.params.size}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise file_error(path, exc) from None
    net.params[:] = np.frombuffer(blob, dtype="<f8")
    return net
