"""Dense Q-network with hand-written backprop and Adam.

No autodiff: the gradient of the TD loss is computed layer by layer in
plain numpy.  The loss only flows through the output unit of the action
actually taken in each sampled transition.
"""

import itertools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNAPSHOT_FORMAT_VERSION = 1
_ZERO = np.broadcast_to(0.0, ())  # the ReLU's bound: a read-only 0-d float64 array, which a ufunc takes as it is
_TWO = np.broadcast_to(2.0, ())   # a squared error's derivative factor, likewise
_NEW_ARRAYS = itertools.repeat(None)  # forward's buffer for every layer without a workspace: none, so dot allocates


def is_layer_size(size) -> bool:
    """A positive int or numpy integer; a float, even a whole one, and True and False are not sizes."""
    return isinstance(size, numbers.Integral) and not isinstance(size, bool) and size >= 1


def _checked_layer_sizes(layer_sizes) -> tuple[list[int], int]:
    """Two or more layer sizes as ints, each one ``is_layer_size`` takes, and the parameter count of a network of them."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or not all(map(is_layer_size, sizes)):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    sizes = [int(s) for s in sizes]
    return sizes, sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


class QNetwork:
    """Fully connected net, ReLU hidden layers, linear output.

    With an rng, weights start uniform in +-1/sqrt(fan_in); without one
    they start at zero.  Biases always start at zero.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes, n_params = _checked_layer_sizes(layer_sizes)
        # Every parameter in one vector, W0, b0, W1, b1, ...: the snapshot byte order.
        self.params = np.zeros(n_params)
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

    def freeze(self) -> "QNetwork":
        """Make ``params`` and the layer views over it read-only; returns the network."""
        for array in (self.params, *self.weights, *self.biases):
            array.setflags(write=False)
        return self

    def __getstate__(self):  # a pickle or deep copy rebuilds the views, so they stay tied to params
        return self.layer_sizes, self.params, not self.params.flags.writeable

    def __setstate__(self, state) -> None:
        self.layer_sizes, self.params, frozen = state
        self.weights, self.biases = self.layer_views(self.params)
        if frozen:
            self.freeze()

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, inputs: np.ndarray, workspace: "Workspace | None" = None) -> np.ndarray:
        """Q-values for one observation (1-D) or a batch (2-D), each layer one
        ``dot``; one observation's bits equal a 1-row batch's.  With a
        workspace, which takes only a batch and must be made for this network
        and the batch's row count, each layer writes into its buffer and the
        result is ``workspace.out``; otherwise into new arrays."""
        x = np.asarray(inputs, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input shape {x.shape} does not match network input {self.layer_sizes[0]}")
        outs = _NEW_ARRAYS
        if workspace is not None:
            if x.ndim == 1 or len(x) != len(workspace.out) or workspace.layer_sizes != self.layer_sizes:
                given = f"a 1-D observation of shape {x.shape}" if x.ndim == 1 else f"a batch of {len(x)} rows"
                raise ValueError(f"a workspace of {len(workspace.out)} rows for layer sizes {workspace.layer_sizes} "
                                 f"does not fit {given} for layer sizes {self.layer_sizes}")
            outs = workspace.layers
        h = x
        for w, b, out in zip(self.weights, self.biases, outs):
            if h is not x:  # ReLU on each hidden layer
                np.maximum(h, _ZERO, out=h)
            h = h.dot(w, out)
            h += b
        return h


class Workspace:
    """Every forward and backward buffer for a batch of exactly ``rows``
    rows through ``net``'s architecture, allocated once.

    A target-value refresh finishes before the policy pass starts, so both
    write their activations into the same per-layer buffers.  ``forward``
    refuses any other row count, so every product has this one: on some
    BLAS kernels a row's bits depend on it.  The gradient is laid out like
    ``net.params``.
    """

    def __init__(self, net: QNetwork, rows: int):
        sizes = self.layer_sizes = net.layer_sizes
        self.layers = [np.empty((rows, n)) for n in sizes[1:]]  # the hidden activations, then the Q-values
        self.out = self.layers[-1]
        self.masks = [np.empty((rows, n), dtype=bool) for n in sizes[1:-1]]  # each hidden layer's ReLU mask
        self.deltas = [np.empty((rows, n)) for n in sizes[1:]]  # the loss gradient at each layer's output
        self.row_starts = np.arange(rows) * sizes[-1]  # flat index of each row's first output
        self.taken = np.empty(rows, dtype=int)         # flat index of each row's taken action
        self.err, self.err_sq = np.empty(rows), np.empty(rows)
        self.grad = np.empty_like(net.params)
        self.grad_weights, self.grad_biases = net.layer_views(self.grad)
        self.rows = np.broadcast_to(float(rows), ())  # the mean's divisor, read-only 0-d as _TWO is
        # The operands of backprop above the first layer, last layer first: its input activations and
        # their transpose, its gradient views, and the delta buffer and ReLU mask of the layer below.
        self.backward = list(zip(self.layers[-2::-1], [h.T for h in self.layers[-2::-1]], self.grad_weights[:0:-1],
                                 self.grad_biases[:0:-1], self.deltas[-2::-1], self.masks[::-1]))


def mse_loss_and_grad(net: QNetwork, inputs: np.ndarray, actions: np.ndarray, targets: np.ndarray,
                      workspace: Workspace | None = None):
    """Mean squared TD error over a batch, with gradients per parameter.

    loss = mean over the batch of (Q(s, a) - target)^2, where only the
    taken action's output contributes.  Returns (loss, grad) with grad
    laid out like net.params; net.layer_views(grad) splits it per layer.
    grad is ``workspace.grad``, so the next call on that workspace
    overwrites it; without a workspace the call makes a fresh one.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"inputs must be a 2-D batch, got shape {x.shape}")
    acts_idx = np.asarray(actions, dtype=int)
    tgt = np.asarray(targets, dtype=float)
    batch = len(x)
    if batch == 0:
        raise ValueError("empty batch")
    if acts_idx.shape != (batch,) or tgt.shape != (batch,):
        raise ValueError("inputs, actions and targets must share the batch dimension")
    # Viewed unsigned, a negative action lies above every output index, so one reduction checks both ends.
    if np.maximum.reduce(acts_idx.view(np.uintp)) >= net.layer_sizes[-1]:
        raise ValueError(f"actions must lie in [0, {net.output_dim}), got {acts_idx.min()} to {acts_idx.max()}")
    ws = Workspace(net, batch) if workspace is None else workspace
    out = net.forward(x, ws)  # refuses a workspace that does not fit, before anything is written

    # Flat indices of the taken actions; in range by the check above, so
    # take and put need not buffer their output against an index error.
    taken = np.add(ws.row_starts, acts_idx, out=ws.taken)
    err = out.take(taken, None, ws.err, "clip")
    err -= tgt
    err_sq = np.multiply(err, err, out=ws.err_sq)
    loss = float(np.add.reduce(err_sq)) / batch  # np.mean's sum, then divide

    np.multiply(err, _TWO, out=err)
    np.divide(err, ws.rows, out=err)
    delta = ws.deltas[-1]
    delta.fill(0.0)
    delta.put(taken, err, "clip")
    for (h, h_t, grad_w, grad_b, below, mask), w in zip(ws.backward, net.weights[:0:-1]):
        np.dot(h_t, delta, grad_w)  # h is the layer's input, as forward left it
        np.add.reduce(delta, 0, out=grad_b)
        delta = np.dot(delta, w.T, below)
        # The ReLU mask from the activation: relu(z) > 0 exactly where z > 0, zeros and NaN included.
        delta *= np.greater(h, _ZERO, out=mask)
    np.dot(x.T, delta, ws.grad_weights[0])
    np.add.reduce(delta, 0, out=ws.grad_biases[0])
    return loss, ws.grad


@dataclass
class AdamState:
    """All of Adam's state for one parameter vector: the hyperparameters,
    the step count, both moments as the rows of one (2, P) array, each row
    laid out like QNetwork.params, and the scratch a step works in."""

    moments: np.ndarray
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0

    def __post_init__(self):
        # Views built once, so a step unpacks nothing: the moments' rows, a
        # scratch laid out like them, and the (2, 1) columns that scale their
        # rows: beta, 1 - beta, 1 - beta**t.
        self.m, self.v = self.moments
        self.scratch = np.empty_like(self.moments)
        self.scratch_m, self.scratch_v = self.scratch
        self.coefficients = np.empty(6)
        self.beta, self.one_minus_beta, self.correction = self.coefficients.reshape(3, 2, 1)

    @classmethod
    def for_network(cls, net: QNetwork, **hyperparameters):
        return cls(np.zeros((2, net.params.size)), **hyperparameters)


def adam_step(net: QNetwork, state: AdamState, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of net.params by a like-shaped grad, in place.

    m and v are updated together, each by its own beta from a column of
    coefficients; every element gets the ops of the textbook formula in
    the same order.  Once corr1 = 1 - b1**t rounds to exactly 1.0 (t >= 356 at
    b1 = 0.9), m / corr1 is m for every float, so only v is divided: same bits.
    """
    state.t += 1
    corr1, corr2 = 1.0 - state.beta1**state.t, 1.0 - state.beta2**state.t
    state.coefficients[:] = (state.beta1, state.beta2, 1.0 - state.beta1, 1.0 - state.beta2, corr1, corr2)
    moments, scratch, scratch_m, scratch_v = state.moments, state.scratch, state.scratch_m, state.scratch_v
    moments *= state.beta                                   # m * b1          | v * b2
    np.multiply(state.one_minus_beta, grad, out=scratch)    # (1 - b1) * g    | (1 - b2) * g
    scratch_v *= grad                                       #                 | (1 - b2) * g * g
    moments += scratch
    if corr1 == 1.0:  # the computed value, not t: with b1 = 0 it is 1.0 from the first step
        np.divide(state.v, corr2, out=scratch_v)            #                 | v / corr2
        np.multiply(state.m, state.learning_rate, out=scratch_m)  # lr * m    |
    else:
        np.divide(moments, state.correction, out=scratch)   # m / corr1       | v / corr2
        scratch_m *= state.learning_rate                    # lr * m / corr1  |
    np.sqrt(scratch_v, out=scratch_v)
    scratch_v += state.epsilon                              #                 | sqrt(v / corr2) + eps
    scratch_m /= scratch_v
    net.params -= scratch_m


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
    """Read a save_policy snapshot; a malformed one, a body that does not fit
    the header's layer sizes or a non-finite parameter included, raises a
    ValueError naming the file."""
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
        sizes, n_params = _checked_layer_sizes(header["layer_sizes"])
        if len(blob) != 8 * n_params:
            raise ValueError(f"snapshot holds {len(blob) / 8:g} parameters, expected {n_params}")
        net = QNetwork(sizes)
        net.params[:] = np.frombuffer(blob, dtype="<f8")
        if not np.isfinite(net.params).all():
            raise ValueError("snapshot holds non-finite parameters")
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise file_error(path, exc) from None
    return net
