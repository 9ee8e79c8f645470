"""Network tests: forward against matrix arithmetic, backprop against
finite differences, Adam against a scripted reference."""

import copy
import pickle
import re

import numpy as np
import pytest

from conftest import central_differences, finite_difference_max_rel_err
from qasrl.dqn import Batch, ReplayMemory, compute_targets
from qasrl.network import (
    AdamState,
    QNetwork,
    Workspace,
    adam_step,
    clone_parameters,
    load_policy,
    mse_loss_and_grad,
    save_policy,
)


def reference_forward(net: QNetwork, x: np.ndarray) -> np.ndarray:
    """Layer-by-layer recomputation, kept deliberately separate."""
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < len(net.weights) - 1:
            h = np.where(h > 0, h, 0.0)
    return h


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = QNetwork([6, 64, 64, 12])
        np.testing.assert_array_equal(net.forward(np.ones(6)), np.zeros(12))

    def test_matches_matrix_arithmetic_oracle(self):
        rng = np.random.default_rng(5)
        net = QNetwork([6, 64, 64, 12], rng=rng)
        for _ in range(20):
            x = rng.normal(size=6)
            np.testing.assert_allclose(net.forward(x), reference_forward(net, x), atol=1e-9)

    def test_relu_clamps_hidden_negatives(self):
        net = QNetwork([1, 1, 1])
        net.weights[0][:] = -1.0
        net.weights[1][:] = 1.0
        # positive input -> negative hidden pre-activation -> clamped to 0
        assert net.forward(np.array([2.0]))[0] == 0.0
        assert net.forward(np.array([-2.0]))[0] == 2.0

    def test_batch_agrees_with_single_rows(self):
        rng = np.random.default_rng(6)
        net = QNetwork([6, 16, 12], rng=rng)
        batch = rng.normal(size=(10, 6))
        out = net.forward(batch)
        assert out.shape == (10, 12)
        for i in range(10):
            np.testing.assert_allclose(out[i], net.forward(batch[i]), atol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(7)
        net = QNetwork([6, 16, 12], rng=rng)
        x = rng.normal(size=6)
        first = net.forward(x)
        second = net.forward(x)
        np.testing.assert_array_equal(first, second)

    # Without the check a 0-d or 3-D input would run through the products,
    # and a 5-entry one would fail inside them without naming its shape.
    @pytest.mark.parametrize("inputs", [np.ones(5), np.array(1.0), np.ones((1, 1, 6)), [0.5] * 5],
                             ids=["five_entries", "zero_d", "three_d", "list_of_five"])
    def test_input_dimension_check(self, inputs):
        net = QNetwork([6, 16, 12])
        with pytest.raises(ValueError, match=re.escape(f"input shape {np.shape(inputs)} does not match")):
            net.forward(inputs)

    def test_init_bounds_and_zero_biases(self):
        rng = np.random.default_rng(8)
        net = QNetwork([6, 64, 12], rng=rng)
        for w in net.weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.all(np.abs(w) <= bound)
            assert np.any(w != 0)
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_numpy_integer_sizes_are_taken_as_ints(self, tmp_path):
        net = QNetwork([np.int64(6), np.int32(4), np.uint8(12)])
        assert net.layer_sizes == [6, 4, 12] and all(type(s) is int for s in net.layer_sizes)
        save_policy(net, tmp_path / "p.qnet")
        assert load_policy(tmp_path / "p.qnet").layer_sizes == [6, 4, 12]

    def test_init_is_seed_deterministic(self):
        a = QNetwork([6, 16, 12], rng=np.random.default_rng(42))
        b = QNetwork([6, 16, 12], rng=np.random.default_rng(42))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_rejects_bad_architecture(self, tmp_path):
        with pytest.raises(ValueError):
            QNetwork([6])
        with pytest.raises(ValueError):
            QNetwork([6, 0, 12])
        for sizes in ([6, 64.7, 12], [6, 64.0, 12], [6, True, 12], [6, np.bool_(True), 12], ["6", 12]):
            with pytest.raises(ValueError, match="bad layer sizes"):
                QNetwork(sizes)
        # ReLU is the only activation; a snapshot naming another is refused.
        path = tmp_path / "tanh.qnet"
        path.write_bytes(b'{"format_version": 1, "layer_sizes": [6, 12], "activation": "tanh"}\n' + bytes(8 * 84))
        with pytest.raises(ValueError, match="tanh\\.qnet: unsupported activation 'tanh'"):
            load_policy(path)


class TestLossAndGradient:
    def test_zero_error_gives_zero_loss_and_grads(self):
        rng = np.random.default_rng(9)
        net = QNetwork([6, 16, 12], rng=rng)
        x = rng.normal(size=(4, 6))
        actions = np.array([0, 3, 7, 11])
        targets = net.forward(x)[np.arange(4), actions]
        loss, grad = mse_loss_and_grad(net, x, actions, targets)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_hand_derived_one_one_one(self):
        # q = w2 * relu(w1 x + b1) + b2 with everything positive:
        # x=0.5, w1=0.7, b1=0.2, w2=1.3, b2=-0.1, target=1.0
        # h = 0.55, q = 0.615, err = -0.385, loss = err^2
        # dw2 = h * 2err, db2 = 2err, dw1 = x * w2 * 2err, db1 = w2 * 2err
        net = QNetwork([1, 1, 1])
        net.weights[0][0, 0] = 0.7
        net.biases[0][0] = 0.2
        net.weights[1][0, 0] = 1.3
        net.biases[1][0] = -0.1
        loss, grad = mse_loss_and_grad(
            net, np.array([[0.5]]), np.array([0]), np.array([1.0])
        )
        dws, dbs = net.layer_views(grad)
        np.testing.assert_allclose(loss, 0.385**2, atol=1e-12)
        np.testing.assert_allclose(dws[1][0, 0], 0.55 * 2 * -0.385, atol=1e-12)
        np.testing.assert_allclose(dbs[1][0], 2 * -0.385, atol=1e-12)
        np.testing.assert_allclose(dws[0][0, 0], 0.5 * 1.3 * 2 * -0.385, atol=1e-12)
        np.testing.assert_allclose(dbs[0][0], 1.3 * 2 * -0.385, atol=1e-12)

    def test_gradient_only_flows_through_taken_action(self):
        rng = np.random.default_rng(10)
        net = QNetwork([6, 16, 12], rng=rng)
        x = rng.normal(size=(1, 6))
        _, grad = mse_loss_and_grad(net, x, np.array([4]), np.array([2.0]))
        dws, dbs = net.layer_views(grad)
        dw_out, db_out = dws[-1], dbs[-1]
        untouched = [a for a in range(12) if a != 4]
        np.testing.assert_array_equal(dw_out[:, untouched], 0.0)
        np.testing.assert_array_equal(db_out[untouched], 0.0)
        assert np.any(dw_out[:, 4] != 0)

    def test_stacked_central_differences_match_one_entry_at_a_time(self):
        rng = np.random.default_rng(8)
        delta = 1e-5
        for _ in range(5):
            net = QNetwork([6, 16, 16, 12], rng=rng)
            net.params[:] += 0.1 * rng.normal(size=net.params.size)
            x, action, target = rng.normal(size=6), int(rng.integers(12)), float(rng.normal())
            expected = []
            for i in range(net.params.size):
                keep = net.params[i]
                net.params[i] = keep + delta
                up = (net.forward(x)[action] - target) ** 2
                net.params[i] = keep - delta
                down = (net.forward(x)[action] - target) ** 2
                net.params[i] = keep
                expected.append((up - down) / (2 * delta))
            assert np.array_equal(central_differences(net, x, action, target, delta), expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        worst = finite_difference_max_rel_err(rng, [6, 16, 16, 12], n_cases=30)
        assert worst < 1e-4

    def test_batch_shape_validation(self):
        net = QNetwork([6, 16, 12])
        with pytest.raises(ValueError):
            mse_loss_and_grad(net, np.ones((2, 6)), np.array([0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            mse_loss_and_grad(net, np.ones((1, 6)), np.array([12]), np.array([1.0]))
        with pytest.raises(ValueError, match="empty batch"):
            mse_loss_and_grad(net, np.ones((0, 6)), np.array([], dtype=int), np.array([]))

    @pytest.mark.parametrize("action", [-1, 12, -2**63, 2**62], ids=["minus_one", "n_actions", "min_int", "huge"])
    @pytest.mark.parametrize("own_workspace", [True, False], ids=["callers_workspace", "no_workspace"])
    def test_an_out_of_range_action_is_one_line_naming_actions(self, action, own_workspace):
        """One reduction of the actions viewed unsigned checks both ends; a
        refused call writes nothing into the caller's workspace, and the
        first and last actions pass."""
        rng = np.random.default_rng(12)
        net = QNetwork([6, 16, 12], rng=rng)
        workspace = Workspace(net, 3) if own_workspace else None
        x, targets = rng.normal(size=(3, 6)), rng.normal(size=3)
        if workspace:
            workspace.out[:], workspace.grad[:] = 7.0, 7.0
        with pytest.raises(ValueError) as refused:
            mse_loss_and_grad(net, x, np.array([0, action, 11]), targets, workspace)
        assert str(refused.value) == f"actions must lie in [0, 12), got {min(0, action)} to {max(11, action)}"
        if workspace:
            assert (workspace.out == 7.0).all() and (workspace.grad == 7.0).all()
        loss, _ = mse_loss_and_grad(net, x, np.array([0, 5, 11]), targets, workspace)
        assert np.isfinite(loss)

    @pytest.mark.parametrize("inputs", [np.ones(6), np.float64(1.0)], ids=["1-D", "0-D"])
    def test_only_a_2d_batch_is_taken(self, inputs):
        net = QNetwork([6, 16, 12])
        with pytest.raises(ValueError, match="2-D batch"):
            mse_loss_and_grad(net, inputs, np.array([0]), np.array([1.0]))


def reference_adam(params, grads_seq, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Scripted Adam on flat copies, independent of the package code."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def flatten_net(net):
    out = []
    for w, b in zip(net.weights, net.biases):
        out.extend([w, b])
    return out


def flatten_grads(net, grad):
    """A gradient laid out like net.params as per-layer arrays, in flatten_net order."""
    out = []
    for dw, db in zip(*net.layer_views(grad)):
        out.extend([dw, db])
    return out


@pytest.mark.parametrize("workspace_sizes, workspace_rows, net_sizes, batch", [
    ([6, 12, 12], 64, [6, 12, 12], 65),
    ([6, 12, 12], 64, [6, 12, 12], 63),
    ([6, 12, 12, 12], 64, [6, 12, 12], 64),
], ids=["more_rows", "fewer_rows", "other_architecture"])
def test_a_workspace_that_does_not_fit_is_refused(workspace_sizes, workspace_rows, net_sizes, batch):
    """forward and mse_loss_and_grad refuse a workspace made for another row
    count or architecture with one error naming both, and write nothing."""
    rng = np.random.default_rng(81)
    net = QNetwork(net_sizes, rng=rng)
    workspace = Workspace(QNetwork(workspace_sizes), workspace_rows)
    workspace.out[:], workspace.grad[:] = 7.0, 7.0
    x, actions, targets = rng.normal(size=(batch, 6)), rng.integers(12, size=batch), rng.normal(size=batch)
    params = net.params.copy()
    message = (f"a workspace of {workspace_rows} rows for layer sizes {workspace_sizes} "
               f"does not fit a batch of {batch} rows for layer sizes {net_sizes}")
    for call in (lambda: net.forward(x, workspace), lambda: mse_loss_and_grad(net, x, actions, targets, workspace)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    assert net.params.tobytes() == params.tobytes()
    assert (workspace.out == 7.0).all() and (workspace.grad == 7.0).all()


class TestAdam:
    def _random_grads(self, net, rng):
        return rng.normal(size=net.params.size)

    def test_zero_gradient_is_a_no_op(self):
        rng = np.random.default_rng(11)
        net = QNetwork([4, 8, 3], rng=rng)
        state = AdamState.for_network(net)
        before = [p.copy() for p in flatten_net(net)]
        adam_step(net, state, np.zeros_like(net.params))
        assert state.t == 1
        for p, q in zip(flatten_net(net), before):
            np.testing.assert_array_equal(p, q)

    def test_first_step_is_signed_learning_rate(self):
        # with m_hat = g and v_hat = g^2 the first update is
        # -lr * g / (|g| + eps), which is -lr * sign(g) up to eps
        rng = np.random.default_rng(12)
        net = QNetwork([4, 8, 3], rng=rng)
        state = AdamState.for_network(net, learning_rate=0.001)
        size = net.params.size
        grad = np.sign(rng.normal(size=size)) * rng.uniform(0.5, 2.0, size=size)
        before = [p.copy() for p in flatten_net(net)]
        adam_step(net, state, grad)
        for p, q, g in zip(flatten_net(net), before, flatten_grads(net, grad)):
            np.testing.assert_allclose(p - q, -0.001 * np.sign(g), atol=1e-9)

    def test_two_steps_match_scripted_reference(self):
        rng = np.random.default_rng(13)
        net = QNetwork([4, 8, 3], rng=rng)
        state = AdamState.for_network(net)
        grads1 = self._random_grads(net, rng)
        grads2 = self._random_grads(net, rng)
        initial = [p.copy() for p in flatten_net(net)]
        seq = [flatten_grads(net, g) for g in (grads1, grads2)]
        expected = reference_adam(initial, seq)
        adam_step(net, state, grads1)
        adam_step(net, state, grads2)
        assert state.t == 2
        for p, q in zip(flatten_net(net), expected):
            np.testing.assert_allclose(p, q, atol=1e-10)

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(14)
        net = QNetwork([4, 8, 3], rng=rng)
        state = AdamState.for_network(net, learning_rate=0.0)
        before = [p.copy() for p in flatten_net(net)]
        adam_step(net, state, self._random_grads(net, rng))
        for p, q in zip(flatten_net(net), before):
            np.testing.assert_array_equal(p, q)

    def test_two_states_in_alternation_match_each_alone(self):
        """Each AdamState owns its scratch: two stepping two networks of one
        architecture in turn give the same bytes as each stepping alone."""
        rng = np.random.default_rng(16)
        size = QNetwork([6, 64, 64, 12]).params.size
        grads = rng.normal(size=(2, 30, size))

        def train(order):
            nets = [QNetwork([6, 64, 64, 12], rng=np.random.default_rng(seed)) for seed in (0, 1)]
            states = [AdamState.for_network(net, learning_rate=3e-3) for net in nets]
            for which, step in order:
                adam_step(nets[which], states[which], grads[which, step])
            return [net.params.tobytes() + state.moments.tobytes() for net, state in zip(nets, states)]

        alone = train([(which, step) for which in (0, 1) for step in range(30)])
        assert train([(which, step) for step in range(30) for which in (0, 1)]) == alone


class TestCloneAndSnapshot:
    def test_clone_matches_and_is_independent(self):
        rng = np.random.default_rng(15)
        net = QNetwork([6, 16, 12], rng=rng)
        copy = clone_parameters(net)
        x = rng.normal(size=(5, 6))
        np.testing.assert_array_equal(net.forward(x), copy.forward(x))
        net.weights[0][0, 0] += 1.0
        assert copy.weights[0][0, 0] != net.weights[0][0, 0]

    def test_clone_of_clone(self):
        rng = np.random.default_rng(16)
        net = QNetwork([6, 16, 12], rng=rng)
        twice = clone_parameters(clone_parameters(net))
        x = rng.normal(size=6)
        np.testing.assert_array_equal(net.forward(x), twice.forward(x))

    def test_snapshot_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        net = QNetwork([6, 64, 64, 12], rng=rng)
        net.biases[1][:] = rng.normal(size=64)
        path = tmp_path / "policy.qnet"
        save_policy(net, path)
        loaded = load_policy(path)
        assert loaded.layer_sizes == net.layer_sizes
        for _ in range(100):
            x = rng.normal(size=6)
            np.testing.assert_allclose(loaded.forward(x), net.forward(x), atol=1e-12)

    def test_snapshot_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "policy.qnet"
        net = QNetwork([2, 3])
        save_policy(net, path)
        raw = path.read_bytes()
        headerless = raw.split(b"\n", 1)[1]
        path.write_bytes(b'{"format_version": 99, "layer_sizes": [2, 3], "activation": "relu"}\n' + headerless)
        with pytest.raises(ValueError):
            load_policy(path)

    def test_snapshot_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "policy.qnet"
        save_policy(QNetwork([2, 3]), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_policy(path)


class TestFlatParameters:
    def test_params_is_one_contiguous_vector(self):
        net = QNetwork([6, 16, 16, 12], rng=np.random.default_rng(18))
        assert net.params.ndim == 1 and net.params.flags.c_contiguous
        assert net.params.size == sum(w.size + b.size for w, b in zip(net.weights, net.biases))
        for view in net.weights + net.biases:
            assert view.base is net.params

    def test_writing_through_a_view_changes_params(self):
        net = QNetwork([6, 16, 12])
        net.weights[1][2, 3] = 1.5
        net.biases[0][4] = -2.0
        # layout W0 (6x16), b0 (16), W1 (16x12), b1 (12)
        assert net.params[6 * 16 + 16 + 2 * 12 + 3] == 1.5
        assert net.params[6 * 16 + 4] == -2.0
        assert np.count_nonzero(net.params) == 2

    def test_clone_has_its_own_vector(self):
        net = QNetwork([6, 16, 12], rng=np.random.default_rng(19))
        copy = clone_parameters(net)
        np.testing.assert_array_equal(copy.params, net.params)
        assert not np.shares_memory(copy.params, net.params)
        net.params += 1.0
        copy.biases[0][:] = 7.0
        assert np.all(net.biases[0] != 7.0)

    @pytest.mark.parametrize("round_trip", [
        lambda net: pickle.loads(pickle.dumps(net)),
        lambda net: pickle.loads(pickle.dumps(net, protocol=5)),
        copy.deepcopy,
    ], ids=["pickle", "pickle_protocol_5", "deepcopy"])
    def test_a_copy_keeps_its_views_on_its_own_params(self, round_trip):
        net = QNetwork([6, 16, 12], rng=np.random.default_rng(22))
        net.biases[1][:] = 0.25
        back = round_trip(net)
        assert back.layer_sizes == net.layer_sizes and back.params.tobytes() == net.params.tobytes()
        assert back.params.flags.writeable and not np.shares_memory(back.params, net.params)
        for view in back.weights + back.biases:
            assert np.shares_memory(view, back.params)
        x = np.linspace(-1.0, 1.0, 6)
        assert back.forward(x).tobytes() == net.forward(x).tobytes()
        back.params[:] = 0.0
        assert not back.forward(x).any() and net.forward(x).any()

    def test_snapshot_bytes_are_the_per_layer_concatenation(self, tmp_path):
        net = QNetwork([6, 16, 12], rng=np.random.default_rng(20))
        net.biases[0][:] = np.random.default_rng(21).normal(size=16)
        save_policy(net, tmp_path / "p.qnet")
        per_layer = b"".join(arr.astype("<f8").tobytes()
                             for w, b in zip(net.weights, net.biases) for arr in (w, b))
        assert (tmp_path / "p.qnet").read_bytes().split(b"\n", 1)[1] == per_layer


@pytest.mark.parametrize("content", [
    b'{"format_version": 1, "activation": "relu"}\n',
    b'{"format_version": 1, "layer_sizes": [2, 3]}\n',
    b'{"format_version": 1, "layer_sizes": "two", "activation": "relu"}\n',
    b"[1, 2]\n",
    b"{not json\n",
    b"no newline at all",
    b'{"format_version": 1, "layer_sizes": [2, 3], "activation": "relu"}\n' + b"\0" * 13,
    # 7 PiB of parameters named by the header, 16 bytes given: refused before any allocation.
    b'{"format_version": 1, "layer_sizes": [6, 10000000, 100000000, 12], "activation": "relu"}\n'
    + b"\0" * 16,
    b'{"format_version": 1, "layer_sizes": [6, 1e400, 12], "activation": "relu"}\n',
    b'{"format_version": 1, "layer_sizes": [2, 3], "activation": "relu"}\n'
    + np.array([0.5] * 8 + [np.nan]).astype("<f8").tobytes(),
    # Bodies the size of [6, 4, 12] and [6, 1, 12], which int() would have made of these sizes.
    b'{"format_version": 1, "layer_sizes": [6.5, 4, 12], "activation": "relu"}\n' + bytes(8 * 88),
    b'{"format_version": 1, "layer_sizes": [6, true, 12], "activation": "relu"}\n' + bytes(8 * 31),
], ids=["no_layer_sizes", "no_activation", "bad_layer_sizes", "not_an_object", "bad_json",
        "no_newline", "partial_parameter", "oversize_header", "infinite_layer_size", "nan_parameter",
        "fractional_layer_size", "boolean_layer_size"])
def test_malformed_snapshot_is_a_value_error_naming_the_file(tmp_path, content):
    path = tmp_path / "broken.qnet"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="broken\\.qnet: ") as info:
        load_policy(path)
    assert "\n" not in str(info.value)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal, and the signs of zeros agree too."""
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def plain_forward(net: QNetwork, inputs) -> np.ndarray:
    """The forward pass written with one temporary per op."""
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    out = h @ net.weights[-1] + net.biases[-1]
    return out[0] if single else out


def plain_loss_and_grad(net: QNetwork, x, actions, targets):
    """The TD loss and its flat gradient written with one temporary per op."""
    activations, pre_acts, h = [x], [], x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
        activations.append(h)
    out = h @ net.weights[-1] + net.biases[-1]
    rows = np.arange(len(x))
    err = out[rows, actions] - targets
    loss = float(np.mean(err**2))
    delta = np.zeros_like(out)
    delta[rows, actions] = 2.0 * err / len(x)
    pieces = []
    for layer in range(len(net.weights) - 1, -1, -1):
        pieces[:0] = [(activations[layer].T @ delta).ravel(), delta.sum(axis=0)]
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (pre_acts[layer - 1] > 0)
    return loss, np.concatenate(pieces)


def plain_targets(net: QNetwork, rewards, next_states, live, gamma: float) -> np.ndarray:
    """TD targets written with one temporary per op, forwarding the live
    rows in one product of 64 rows, the tests' workspace size, led by copies
    of the first: on some BLAS kernels a row's bits depend on the row count."""
    targets = rewards.copy()
    next_live = next_states[live]
    if len(next_live):
        padded = np.concatenate([next_live[:1].repeat(64 - len(next_live), axis=0), next_live])
        targets[live] += gamma * plain_forward(net, padded).max(axis=1)[-len(next_live):]
    return targets


def replay_batch(states, actions, rewards, next_states, live) -> tuple[ReplayMemory, Batch]:
    """A full memory of these transitions in order, and all of it as a Batch."""
    memory = ReplayMemory(len(rewards), states.shape[1])
    for state, action, reward, next_state, is_live in zip(states, actions, rewards, next_states, live):
        memory.push(state, action, reward, next_state if is_live else None)
    return memory, Batch(memory.states, memory.actions, memory.rewards, memory.next_ids)


def plain_adam(params, m, v, t, grad, lr, b1, b2, eps):
    """One Adam update written with one temporary per op; returns new (params, m, v)."""
    m = m * b1 + (1.0 - b1) * grad
    v = v * b2 + (1.0 - b2) * grad * grad
    step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return params - step, m, v


class TestBitIdenticalToPlainFormulas:
    """The learner computes in place, and must give the same bits as the
    plain formulas above: forward outputs, loss, gradient and the
    parameters after Adam, on batches of 1 to 64 rows and single
    observations, rows whose hidden units are all dead, pre-activations of
    exactly 0 and -0.0, and the target values of live subsets of 1, 63 and
    64 rows."""

    ARCHITECTURES = ([6, 64, 64, 12], [6, 16, 12], [4, 8, 8, 8, 3])
    BATCH_SIZES = (1, 63, 64, None)  # None: a random size in 2..64

    def _case(self, rng, sizes, trial):
        net = QNetwork(sizes, rng=rng)
        net.params[:] += 0.1 * rng.normal(size=net.params.size)
        n = self.BATCH_SIZES[trial % 4] or int(rng.integers(2, 65))
        x = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
        kind = trial // 3 % 3  # trial % 3 picks the architecture
        if kind:  # zero input rows: all first-layer units dead, or pre-activations exactly 0
            net.biases[0][:] = -np.abs(net.biases[0]) if kind == 1 else 0.0
            x[rng.random(n) < 0.5] = 0.0
        return net, x, rng.integers(sizes[-1], size=n), rng.normal(size=n)

    def test_loss_gradient_and_adam_step(self):
        rng = np.random.default_rng(77)
        dead_rows = 0
        for trial in range(600):
            sizes = self.ARCHITECTURES[trial % len(self.ARCHITECTURES)]
            net, x, actions, targets = self._case(rng, sizes, trial)
            dead_rows += int((np.maximum(x @ net.weights[0] + net.biases[0], 0.0) == 0).all(axis=1).sum())

            assert same_bits(net.forward(x), plain_forward(net, x))
            assert same_bits(net.forward(x[0]), plain_forward(net, x[0]))
            assert same_bits(net.forward(x[:1]), plain_forward(net, x[:1]))
            assert same_bits(net.forward(x[0]), net.forward(x[:1])[0])  # vector path = 1-row batch path

            loss, grad = mse_loss_and_grad(net, x, actions, targets)
            plain_loss, plain_grad = plain_loss_and_grad(net, x, actions, targets)
            assert loss == plain_loss
            assert same_bits(grad, plain_grad)

            state = AdamState.for_network(net, learning_rate=float(rng.uniform(1e-4, 1e-2)))
            state.t = int(rng.integers(0, 1000))
            state.m[:] = 0.01 * rng.normal(size=net.params.size)
            state.v[:] = 1e-4 * rng.random(net.params.size)
            expected = plain_adam(net.params, state.m, state.v, state.t + 1, grad,
                                  state.learning_rate, state.beta1, state.beta2, state.epsilon)
            adam_step(net, state, grad)
            for got, want in zip((net.params, state.m, state.v), expected):
                assert same_bits(got, want)
        assert dead_rows > 1000

    def test_pre_activations_of_zero_and_negative_zero(self):
        """The backward pass takes each ReLU mask from the activation, which
        could differ from the pre-activation's only at 0 and -0.0.  Rows of
        zeros make first-layer pre-activations of exactly 0; rows of 1e-200
        against weights of -1e-200 and biases of -0.0 make them -0.0 where
        the BLAS kernel fuses multiply and add (the product underflows in
        the sum), and 0 where it does not."""
        rng = np.random.default_rng(80)
        net = QNetwork([6, 64, 64, 12], rng=rng)
        net.params[:] += 0.1 * rng.normal(size=net.params.size)
        net.weights[0][:, :32] = -1e-200 * rng.uniform(1.0, 2.0, size=(6, 32))
        net.biases[0][:32] = -0.0
        net.biases[0][32:48] = 0.0
        x = rng.uniform(-1.0, 1.0, size=(64, 6))
        x[:20] = 0.0
        x[20:40] = 1e-200 * rng.uniform(1.0, 2.0, size=(20, 6))
        actions, targets = rng.integers(12, size=64), rng.normal(size=64)
        pre_activations = x @ net.weights[0] + net.biases[0]
        assert (pre_activations == 0.0).sum() >= 20 * 48

        assert same_bits(net.forward(x), plain_forward(net, x))
        loss, grad = mse_loss_and_grad(net, x, actions, targets)
        plain_loss, plain_grad = plain_loss_and_grad(net, x, actions, targets)
        assert loss == plain_loss
        assert same_bits(grad, plain_grad)
        edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        assert np.array_equal(np.maximum(edges, 0.0) > 0.0, edges > 0.0)

    @pytest.mark.parametrize("n_live", [1, 63, 64])
    def test_targets_over_live_subsets(self, n_live):
        rng = np.random.default_rng(n_live)
        for _ in range(20):
            net = QNetwork([6, 64, 64, 12], rng=rng)
            net.params[:] += 0.1 * rng.normal(size=net.params.size)
            live = np.zeros(64, dtype=bool)
            live[rng.choice(64, size=n_live, replace=False)] = True
            rewards, next_states = rng.normal(size=64), rng.uniform(-1, 1, size=(64, 6))
            memory, batch = replay_batch(rng.uniform(-1, 1, size=(64, 6)), rng.integers(12, size=64),
                                         rewards, next_states, live)
            values = memory.next_values(net, Workspace(net, 64))
            expected = plain_targets(net, rewards, next_states, live, 0.7)
            assert same_bits(compute_targets(batch, values, 0.7), expected)

    def test_reused_workspaces_give_the_bits_of_fresh_buffers(self):
        """One 64-row workspace for target values and one targets buffer per
        architecture, and one loss workspace per batch size, serve calls of
        1, 63, 64 and random row counts with 0, 1, all but one or all rows
        live, in the order optimize makes them, so stale rows of earlier
        calls are always there; every result equals the plain formulas and
        a call with fresh buffers."""
        rng = np.random.default_rng(78)
        for sizes in self.ARCHITECTURES:
            net = QNetwork(sizes, rng=rng)
            net.params[:] += 0.1 * rng.normal(size=net.params.size)
            values_workspace, targets_buffer, loss_workspaces = Workspace(net, 64), np.empty(64), {}
            for trial in range(80):
                n = self.BATCH_SIZES[trial % 4] or int(rng.integers(2, 65))
                workspace = loss_workspaces.setdefault(n, Workspace(net, n))
                live = np.zeros(n, dtype=bool)
                n_live = (0, 1, n - 1, n, int(rng.integers(0, n + 1)))[trial % 5]
                live[rng.choice(n, size=n_live, replace=False)] = True
                rewards, next_states = rng.normal(size=n), rng.uniform(-1, 1, size=(n, sizes[0]))
                memory, batch = replay_batch(rng.uniform(-1, 1, size=(n, sizes[0])),
                                             rng.integers(sizes[-1], size=n), rewards, next_states, live)

                expected = plain_targets(net, rewards, next_states, live, 0.7)
                fresh = memory.next_values(net, Workspace(net, 64)).copy()
                assert same_bits(compute_targets(batch, fresh, 0.7), expected)
                memory.valued = 0
                values = memory.next_values(net, values_workspace)
                targets = compute_targets(batch, values, 0.7, targets_buffer[:n])
                assert same_bits(targets, expected)

                plain_loss, plain_grad = plain_loss_and_grad(net, batch.states, batch.actions, expected)
                fresh_loss, fresh_grad = mse_loss_and_grad(net, batch.states, batch.actions, expected)
                loss, grad = mse_loss_and_grad(net, batch.states, batch.actions, targets, workspace)
                assert grad is workspace.grad
                assert loss == plain_loss == fresh_loss
                assert same_bits(grad, plain_grad) and same_bits(grad, fresh_grad)
                assert same_bits(net.forward(batch.states, workspace), plain_forward(net, batch.states))
            assert len(loss_workspaces) > 4  # the random sizes made some of their own

    def test_stacked_adam_over_500_steps(self):
        """m and v as the rows of one array, updated together in the
        state's own scratch, follow the plain formulas bit for bit step
        after step."""
        rng = np.random.default_rng(79)
        net = QNetwork([6, 64, 64, 12], rng=rng)
        state = AdamState.for_network(net, learning_rate=3e-3, beta1=0.8, beta2=0.99)
        assert state.moments.shape == (2, net.params.size)
        assert np.shares_memory(state.m, state.moments) and np.shares_memory(state.v, state.moments)
        for step in range(1, 501):
            grad = rng.normal(size=net.params.size) * 10.0 ** float(rng.integers(-6, 3))
            grad[rng.random(grad.size) < 0.1] = 0.0
            expected = plain_adam(net.params, state.m, state.v, step, grad,
                                  state.learning_rate, state.beta1, state.beta2, state.epsilon)
            adam_step(net, state, grad)
            assert state.t == step
            for got, want in zip((net.params, state.m, state.v), expected):
                assert same_bits(got, want)
