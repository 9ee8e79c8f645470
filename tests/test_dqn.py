"""Replay memory, TD targets, action selection and the optimize step."""

import copy

import numpy as np
import pytest

from conftest import constant_output_network
from qasrl.dqn import (
    Batch,
    DQNAgent,
    DQNConfig,
    ReplayMemory,
    compute_targets,
    optimize,
    select_action_epsilon_greedy,
    select_action_greedy,
    update_target,
)
from qasrl.network import QNetwork, Workspace, mse_loss_and_grad


def make_transition(value: float, terminal: bool = True, dim: int = 6) -> tuple:
    """(state, action, reward, next_state), as ReplayMemory.push takes them."""
    state = np.full(dim, value)
    return state, 0, value, None if terminal else state.copy()


def targets_of(net: QNetwork, gamma: float, *transitions: tuple) -> np.ndarray:
    """compute_targets over the transitions as one batch, in the order
    given, with their next states valued under ``net``."""
    memory = ReplayMemory(len(transitions), net.layer_sizes[0])
    for t in transitions:
        memory.push(*t)
    values = memory.next_values(net, Workspace(net, len(transitions)))
    batch = Batch(memory.states, memory.actions, memory.rewards, memory.next_ids)
    return compute_targets(batch, values, gamma)


class TestReplayMemory:
    def test_overwrites_oldest_when_full(self):
        memory = ReplayMemory(2, 6)
        a, b, c = (make_transition(v) for v in (1.0, 2.0, 3.0))
        for t in (a, b, c):
            memory.push(*t)
        held = set(memory.rewards[:len(memory)])
        assert held == {2.0, 3.0}

    def test_capacity_one(self):
        memory = ReplayMemory(1, 6)
        for v in (1.0, 2.0, 3.0):
            memory.push(*make_transition(v))
        assert len(memory) == 1
        assert memory.rewards[0] == 3.0

    def test_length_never_exceeds_capacity(self):
        memory = ReplayMemory(100, 6)
        for v in range(250):
            memory.push(*make_transition(float(v)))
        assert len(memory) == 100

    def test_wrap_around_keeps_the_slot_order(self):
        # push n lands in row n % capacity, as the list-backed ring did
        memory = ReplayMemory(3, 6)
        for v in range(5):
            memory.push(*make_transition(float(v), terminal=v % 2 == 0))
        np.testing.assert_array_equal(memory.rewards, [3.0, 4.0, 2.0])
        np.testing.assert_array_equal(memory.next_ids != memory.capacity, [True, False, False])
        np.testing.assert_array_equal(memory.states[:, 0], [3.0, 4.0, 2.0])
        np.testing.assert_array_equal(memory.observations[memory.next_ids[0]], np.full(6, 3.0))

    def test_arrays_are_made_at_the_given_width(self):
        memory = ReplayMemory(10_000, 4)
        assert len(memory) == 0
        assert memory.states.shape == memory.observations.shape == (10_000, 4)
        assert memory.actions.shape == memory.rewards.shape == memory.next_ids.shape == (10_000,)
        assert memory.values.shape == (10_001,)
        memory.push(*make_transition(1.0, terminal=False, dim=4))
        assert memory.next_ids[0] != memory.capacity
        np.testing.assert_array_equal(memory.observations[memory.next_ids[0]], np.full(4, 1.0))

    @pytest.mark.parametrize("capacity", [8, 2])
    def test_a_refused_push_changes_nothing(self, capacity):
        """A state or next state of the wrong width is refused with one line
        naming it, before anything is written or counted; with capacity 2
        the refused push would overwrite a held row."""
        memory = ReplayMemory(capacity, 6)
        memory.push(*make_transition(1.0, terminal=False))
        memory.push(*make_transition(2.0, terminal=False))
        arrays = (memory.states, memory.actions, memory.rewards, memory.next_ids, memory.observations, memory.values)
        before = [a.copy() for a in arrays]
        bad = [(np.zeros(5), 0, 3.0, np.ones(6), r"state has shape \(5,\), the memory holds 6 entries$"),
               (np.zeros(6), 0, 3.0, np.ones(5), r"next state has shape \(5,\), the memory holds 6 entries$"),
               (np.zeros(6), 0, 3.0, np.ones((6, 1)), r"next state has shape \(6, 1\)")]
        for *transition, message in bad:
            with pytest.raises(ValueError, match=f"^{message}"):
                memory.push(*transition)
            assert len(memory) == 2 and len(memory.ids) == 2
            for got, want in zip(arrays, before):
                np.testing.assert_array_equal(got, want)
        memory.push(*make_transition(3.0))
        assert len(memory) == min(3, capacity)

    def test_sample_rows_stay_aligned(self):
        memory = ReplayMemory(20, 6)
        for v in range(20):
            memory.push(*make_transition(float(v), terminal=v % 3 == 0))
        batch = memory.sample(12, np.random.default_rng(2))
        np.testing.assert_array_equal(batch.states[:, 0], batch.rewards)
        live = batch.next_ids != memory.capacity
        np.testing.assert_array_equal(live, batch.rewards % 3 != 0)
        np.testing.assert_array_equal(memory.observations[batch.next_ids[live], 0], batch.rewards[live])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ReplayMemory(0, 6)

    def test_sample_whole_buffer(self):
        memory = ReplayMemory(10, 6)
        for v in range(10):
            memory.push(*make_transition(float(v)))
        batch = memory.sample(10, np.random.default_rng(0))
        assert sorted(batch.rewards) == [float(v) for v in range(10)]

    def test_sample_without_replacement(self):
        memory = ReplayMemory(50, 6)
        for v in range(50):
            memory.push(*make_transition(float(v)))
        rng = np.random.default_rng(1)
        for _ in range(20):
            batch = memory.sample(30, rng)
            assert len(set(batch.rewards)) == 30

    def test_sample_more_than_held_raises(self):
        memory = ReplayMemory(10, 6)
        memory.push(*make_transition(1.0))
        with pytest.raises(ValueError):
            memory.sample(2, np.random.default_rng(0))

    def test_sample_is_seed_reproducible(self):
        memory = ReplayMemory(100, 6)
        for v in range(100):
            memory.push(*make_transition(float(v)))
        first = memory.sample(64, np.random.default_rng(7)).rewards
        second = memory.sample(64, np.random.default_rng(7)).rewards
        np.testing.assert_array_equal(first, second)

    def test_single_draws_are_uniform(self):
        # every element within 5 sigma of the binomial expectation
        memory = ReplayMemory(100, 6)
        for v in range(100):
            memory.push(*make_transition(float(v)))
        rng = np.random.default_rng(3)
        draws = 100_000
        counts = np.zeros(100)
        for _ in range(draws):
            counts[int(memory.sample(1, rng).rewards[0])] += 1
        expected = draws / 100
        sigma = np.sqrt(draws * 0.01 * 0.99)
        assert np.all(np.abs(counts - expected) <= 5 * sigma)


class TestComputeTargets:
    def test_terminal_is_bare_reward(self):
        """Bit for bit, the sign of a zero reward and an infinite one included."""
        net = constant_output_network([5.0, 5.0], 6)
        for reward in (0.97, -0.0, 0.0, np.inf, -np.inf):
            targets = targets_of(net, 0.99, (np.zeros(6), 0, reward, None))
            assert targets.tobytes() == np.array([reward]).tobytes()

    def test_bootstraps_through_max(self):
        net = constant_output_network([0.3, 0.7, 0.1], 6)
        targets = targets_of(net, 0.99, (np.zeros(6), 1, -0.01, np.ones(6)))
        np.testing.assert_allclose(targets, [-0.01 + 0.99 * 0.7], atol=1e-12)

    def test_gamma_zero_ignores_next_state(self):
        net = constant_output_network([9.0, 9.0], 6)
        targets = targets_of(net, 0.0, (np.zeros(6), 0, 0.5, np.ones(6)))
        np.testing.assert_allclose(targets, [0.5], atol=1e-12)

    def test_zero_target_network(self):
        net = QNetwork([6, 8, 3])
        targets = targets_of(net, 0.99, (np.zeros(6), 0, -0.01, np.ones(6)))
        np.testing.assert_allclose(targets, [-0.01], atol=1e-12)

    def test_mixed_batch(self):
        net = constant_output_network([1.0, 2.0], 6)
        targets = targets_of(
            net, 0.5,
            (np.zeros(6), 0, 0.1, np.ones(6)),
            (np.zeros(6), 1, 0.2, None),
            (np.zeros(6), 0, 0.3, np.ones(6)),
        )
        np.testing.assert_allclose(targets, [0.1 + 1.0, 0.2, 0.3 + 1.0], atol=1e-12)


class TestActionSelection:
    def test_greedy_picks_argmax(self):
        net = constant_output_network([0.1, 0.9, 0.3], 6)
        assert select_action_greedy(net, np.zeros(6)) == 1

    def test_greedy_breaks_ties_low(self):
        net = constant_output_network([0.5, 0.5, 0.5], 6)
        assert select_action_greedy(net, np.zeros(6)) == 0

    def test_greedy_is_shift_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            q = rng.normal(size=12)
            base = select_action_greedy(constant_output_network(q, 6), np.zeros(6))
            shifted = select_action_greedy(constant_output_network(q + 3.7, 6), np.zeros(6))
            assert base == shifted

    def test_epsilon_zero_equals_greedy(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            q = rng.normal(size=12)
            net = constant_output_network(q, 6)
            greedy = select_action_greedy(net, np.zeros(6))
            state = rng.bit_generator.state
            eps = select_action_epsilon_greedy(net, np.zeros(6), 0.0, rng)
            assert greedy == eps
            assert rng.bit_generator.state == state  # no draw at epsilon 0

    def test_epsilon_one_is_uniform(self):
        net = constant_output_network([100.0] + [0.0] * 11, 6)
        rng = np.random.default_rng(23)
        draws = 120_000
        counts = np.zeros(12)
        for _ in range(draws):
            counts[select_action_epsilon_greedy(net, np.zeros(6), 1.0, rng)] += 1
        expected = draws / 12
        sigma = np.sqrt(draws * (1 / 12) * (11 / 12))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_epsilon_selection_is_reproducible(self):
        net = constant_output_network(list(range(12)), 6)
        first = [
            select_action_epsilon_greedy(net, np.zeros(6), 0.5, np.random.default_rng(9))
            for _ in range(1)
        ]
        second = [
            select_action_epsilon_greedy(net, np.zeros(6), 0.5, np.random.default_rng(9))
            for _ in range(1)
        ]
        assert first == second

    def test_epsilon_out_of_range(self):
        net = constant_output_network([0.0, 1.0], 6)
        with pytest.raises(ValueError):
            select_action_epsilon_greedy(net, np.zeros(6), 1.5, np.random.default_rng(0))


class TestUpdateTarget:
    def test_copies_parameters(self):
        rng = np.random.default_rng(31)
        policy = QNetwork([6, 16, 12], rng=rng)
        target = QNetwork([6, 16, 12], rng=rng)
        update_target(policy, target)
        for _ in range(100):
            x = rng.normal(size=6)
            np.testing.assert_array_equal(policy.forward(x), target.forward(x))

    def test_target_is_isolated_after_sync(self):
        rng = np.random.default_rng(32)
        policy = QNetwork([6, 16, 12], rng=rng)
        target = QNetwork([6, 16, 12])
        update_target(policy, target)
        frozen = target.forward(np.ones(6)).copy()
        policy.weights[0][:] += 1.0
        np.testing.assert_array_equal(target.forward(np.ones(6)), frozen)

    def test_idempotent(self):
        rng = np.random.default_rng(33)
        policy = QNetwork([6, 16, 12], rng=rng)
        target = QNetwork([6, 16, 12])
        update_target(policy, target)
        once = [w.copy() for w in target.weights]
        update_target(policy, target)
        for w, prev in zip(target.weights, once):
            np.testing.assert_array_equal(w, prev)

    def test_target_gets_an_independent_copy(self):
        rng = np.random.default_rng(34)
        policy = QNetwork([6, 16, 12], rng=rng)
        target = QNetwork([6, 16, 12])
        update_target(policy, target)
        np.testing.assert_array_equal(target.params, policy.params)
        assert not np.shares_memory(target.params, policy.params)
        target.params[:] = 0.0
        assert np.any(policy.params != 0.0)

    def test_architecture_mismatch(self):
        with pytest.raises(ValueError):
            update_target(QNetwork([6, 16, 12]), QNetwork([6, 8, 12]))


class TestOptimize:
    @staticmethod
    def _agent(seed=41, capacity=100, **config) -> DQNAgent:
        """An agent of a [6, 16, 12] network; its rng draws the weights, then the batches."""
        config = DQNConfig(batch_size=8, min_replay=8, hidden_sizes=(16,), replay_capacity=capacity, **config)
        return DQNAgent(6, 12, config, np.random.default_rng(seed))

    def test_no_op_while_memory_short(self):
        agent = self._agent()
        for _ in range(7):
            agent.memory.push(*make_transition(0.5))
        before = [w.copy() for w in agent.policy_net.weights]
        assert optimize(agent) is None
        assert agent.adam.t == 0
        for w, prev in zip(agent.policy_net.weights, before):
            np.testing.assert_array_equal(w, prev)

    def test_zero_error_batch_leaves_parameters_alone(self):
        # zero network, terminal transitions with zero reward: targets
        # and predictions are both zero
        agent = self._agent(seed=42)
        agent.policy_net.params[:] = 0.0
        agent.sync_target()
        for _ in range(8):
            agent.memory.push(np.zeros(6), 2, 0.0, None)
        loss = optimize(agent)
        assert loss == 0.0
        for w in agent.policy_net.weights:
            np.testing.assert_array_equal(w, np.zeros_like(w))

    def test_single_repeated_transition_descends(self):
        agent = self._agent(seed=43)
        for _ in range(8):
            agent.memory.push(np.ones(6) * 0.5, 3, 1.0, None)
        first = optimize(agent)
        for _ in range(50):
            last = optimize(agent)
        assert last < first

    def test_full_buffer_batch_descends_monotonically(self):
        # batch = whole buffer and a frozen target make the loss a
        # deterministic function of the policy parameters
        agent = self._agent(seed=44, capacity=8, learning_rate=1e-4)
        agent.target_net.params[:] = 0.0  # before any value is computed under it
        states = agent.rng.normal(size=(8, 6))
        for i in range(8):
            agent.memory.push(states[i], i, float(i) / 8, None)
        losses = [optimize(agent) for _ in range(100)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_loss_raises_before_the_step(self):
        agent = self._agent(seed=46)
        for i in range(8):
            agent.memory.push(np.ones(6) * i, i, 1.0, None)
        agent.policy_net.weights[0][0, 0] = np.nan
        before = agent.policy_net.params.copy()
        with pytest.raises(FloatingPointError, match="TD loss is nan"):
            optimize(agent)
        assert agent.adam.t == 0
        np.testing.assert_array_equal(agent.policy_net.params, before)

    def test_returns_pre_step_loss(self):
        agent = self._agent(seed=45)
        memory = agent.memory
        for i in range(8):
            memory.push(np.ones(6) * i, i, 1.0, None)
        expected, _ = mse_loss_and_grad(agent.policy_net, memory.states[:8], memory.actions[:8], memory.rewards[:8])
        got = optimize(agent)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def max_q(net: QNetwork, rows: np.ndarray) -> np.ndarray:
    """max over actions of one forward of ``rows`` as a batch."""
    return np.maximum.reduce(net.forward(rows), axis=1)


def random_net(rng: np.random.Generator) -> QNetwork:
    net = QNetwork([6, 64, 64, 12], rng=rng)
    net.params[:] += 0.1 * rng.normal(size=net.params.size)
    return net


class TestTargetValues:
    """Each interned next state's value, computed once per target sync,
    has the bits a forward of a batch of the workspace's rows holding it gives."""

    def test_values_equal_one_forward_of_every_row(self):
        # 129 ids: two full chunks of 64, then id 128 in one product with ids 65..127
        rng = np.random.default_rng(90)
        for _ in range(10):
            net, memory = random_net(rng), ReplayMemory(200, 6)
            for _ in range(129):
                memory.push(np.zeros(6), 0, 0.0, rng.uniform(-1, 1, 6))
            values = memory.next_values(net, Workspace(net, 64))
            first, second, last = (max_q(net, memory.observations[start:start + 64]) for start in (0, 64, 65))
            assert values[:129].tobytes() == np.concatenate([first, second, last[-1:]]).tobytes()

    def test_one_repeated_next_state_gets_the_full_row_bits(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            net, memory, state = random_net(rng), ReplayMemory(64, 6), rng.uniform(-1, 1, 6)
            for _ in range(64):
                memory.push(rng.uniform(-1, 1, 6), 0, 0.0, state.copy())
            assert len(memory.ids) == 1
            values = memory.next_values(net, Workspace(net, 64))
            assert values[:1].tobytes() == max_q(net, np.stack([state] * 64))[:1].tobytes()

    def test_targets_follow_the_target_network_after_sync(self):
        agent, data = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(92)), np.random.default_rng(93)
        for _ in range(100):
            agent.memory.push(*random_transition(data))
        agent.learn()
        n = len(agent.memory.ids)
        before = agent.memory.values[:n].copy()
        agent.policy_net.params[:] += 0.01 * data.normal(size=agent.policy_net.params.size)
        agent.sync_target()
        agent.learn()
        after = agent.memory.values[:n]
        assert after.tobytes() == max_q(agent.target_net, agent.memory.observations[:n]).tobytes()
        assert not np.array_equal(after, before)

    def test_a_new_next_state_is_valued_before_a_batch_reads_it(self):
        """Through 60 steps with a sync every 10, every id a batch reads is
        valued before its targets are made, every id below ``valued`` has
        the bits of a product of the workspace's 64 rows ending at that id,
        and some steps leave new next states unvalued."""
        agent, data = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(94)), np.random.default_rng(95)
        memory, lagging = agent.memory, 0
        for _ in range(100):
            memory.push(*random_transition(data))
        for step in range(60):
            memory.push(*random_transition(data))
            agent.learn()
            ids = agent.batch.next_ids
            assert ids[ids != memory.capacity].max() < memory.valued <= len(memory.ids)
            lagging += memory.valued < len(memory.ids)
            ending_at = (memory.observations[np.maximum(np.arange(i - 63, i + 1), 0)] for i in range(memory.valued))
            expected = np.append([max_q(agent.target_net, rows)[-1] for rows in ending_at], -0.0)
            assert memory.values[:memory.valued].tobytes() == expected[:-1].tobytes()
            ids = np.minimum(ids, memory.valued)  # the terminal id reads the appended -0.0
            assert agent.targets.tobytes() == (expected[ids] * 0.7 + agent.batch.rewards).tobytes()
            if step % 10 == 9:
                agent.sync_target()
        assert lagging > 10

    def test_a_batch_of_valued_ids_runs_no_target_forward(self):
        """A step whose batch reads no new next state makes no target-network
        forward and leaves every value as it was; the next batch that reads
        one values it."""
        agent, data = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(97)), np.random.default_rng(98)
        memory = agent.memory
        for _ in range(100):
            memory.push(*random_transition(data))
        agent.learn()
        memory.push(data.uniform(-1, 1, 6), 0, 0.0, data.uniform(-1, 1, 6))
        new_slot, valued = len(memory) - 1, memory.valued
        assert valued == len(memory.ids) - 1
        forwards, forward = [], agent.target_net.forward
        agent.target_net.forward = lambda *args: forwards.append(args) or forward(*args)

        def draw_reads_new_slot() -> bool:
            return new_slot in copy.deepcopy(agent.rng).choice(len(memory), size=64, replace=False)

        while draw_reads_new_slot():
            agent.rng.random()  # on to a draw that leaves the new slot out
        values = memory.values.copy()
        assert agent.learn() is not None
        assert forwards == [] and memory.valued == valued and memory.values.tobytes() == values.tobytes()
        while not draw_reads_new_slot():
            agent.rng.random()
        agent.learn()
        assert len(forwards) == 1 and memory.values[:valued].tobytes() == values[:valued].tobytes()
        assert memory.valued == len(memory.ids)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 130])
    def test_slices_give_the_bits_of_the_gather(self, length):
        """A table of ``length`` ids valued from id 0, then, under other
        parameters, from a nonzero ``valued``: every value has the bits the
        gather of each chunk's ids (clipped at id 0) and scatter of its maxima
        give, as next_values made them before it read whole chunks as slices."""
        def gathered(memory: ReplayMemory, net: QNetwork, workspace: Workspace) -> np.ndarray:
            values, stop, rows = memory.values.copy(), len(memory.ids), len(workspace.out)
            for start in range(memory.valued, stop, rows):
                end = min(start + rows, stop)
                ids = np.maximum(np.arange(end - rows, end), 0)
                values[ids] = np.maximum.reduce(net.forward(memory.observations[ids], workspace), axis=1)
            return values

        rng = np.random.default_rng(99)
        net, memory = random_net(rng), ReplayMemory(200, 6)
        for _ in range(length):
            memory.push(np.zeros(6), 0, 0.0, rng.uniform(-1, 1, 6))
        workspace = Workspace(net, 64)
        for valued in (0, length // 2 or 1, length - 1):
            memory.valued = valued
            expected = gathered(memory, net, workspace)
            assert memory.next_values(net, workspace).tobytes() == expected.tobytes()
            assert memory.valued == length
            net.params[:] += 0.01 * rng.normal(size=net.params.size)  # the next restart values anew

    def test_table_stays_within_the_ring_capacity(self):
        """A ring of 4 sees 60 distinct next states in episodes of 1 to 5
        steps; the table rebuilds from the next states still held, and
        every held transition and value stays right."""
        rng = np.random.default_rng(96)
        net, memory = random_net(rng), ReplayMemory(4, 6)
        workspace, pushed = Workspace(net, 2), []
        for episode in range(20):
            state = rng.uniform(-1, 1, 6)
            for step in range(int(rng.integers(1, 6))):
                next_state = None if step == 4 or rng.random() < 0.3 else rng.uniform(-1, 1, 6)
                memory.push(state, step, float(episode), next_state)
                pushed.append(next_state)
                assert len(memory.ids) <= 4 and memory.observations.shape == (4, 6)
                values = memory.next_values(net, workspace)
                for slot in range(len(memory)):
                    held = pushed[len(pushed) - 1 - (len(pushed) - 1 - slot) % 4]
                    assert (memory.next_ids[slot] != memory.capacity) == (held is not None)
                    if held is not None:
                        np.testing.assert_array_equal(memory.observations[memory.next_ids[slot]], held)
                        assert values[memory.next_ids[slot]] == max_q(net, np.stack([held, held]))[0]
                if next_state is None:
                    break
                state = next_state
        assert memory.rebuilds > 5


class TestAgent:
    def test_wires_architecture_and_target_copy(self):
        agent = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(0))
        assert agent.policy_net.layer_sizes == [6, 64, 64, 12]
        x = np.random.default_rng(1).normal(size=6)
        np.testing.assert_array_equal(agent.policy_net.forward(x), agent.target_net.forward(x))

    def test_learn_is_no_op_until_replay_fills(self):
        agent = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(0))
        agent.memory.push(*make_transition(1.0))
        assert agent.learn() is None

    def test_sync_target_copies(self):
        agent = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(0))
        agent.policy_net.weights[0][:] += 0.5
        agent.sync_target()
        x = np.ones(6)
        np.testing.assert_array_equal(agent.policy_net.forward(x), agent.target_net.forward(x))

    def test_batch_of_one_values_next_states_in_one_row_products(self):
        """With batch_size 1 the agent's workspace holds 1 row, and through
        100 learn steps and a sync every 10, every id below ``valued`` has
        the bits of a 1-row product of its next state, the one id each
        batch reads among them."""
        agent = DQNAgent(6, 12, DQNConfig(batch_size=1, min_replay=1), np.random.default_rng(10))
        data, checked = np.random.default_rng(11), 0
        for step in range(100):
            agent.memory.push(*random_transition(data))
            assert agent.learn() is not None
            n = agent.memory.valued
            assert agent.batch.next_ids[0] in (*range(n), agent.memory.capacity)
            one_row = np.array([max_q(agent.target_net, agent.memory.observations[i:i + 1])[0] for i in range(n)])
            assert agent.memory.values[:n].tobytes() == one_row.tobytes()
            checked += n
            if step % 10 == 9:
                agent.sync_target()
        assert agent.adam.t == 100 and len(agent.memory.ids) > 50 and checked > 1000

    def test_steps_in_one_workspace_match_fresh_buffers(self):
        """200 learn steps in the agent's own buffers give the same losses,
        parameters, moments and replay draws, bit for bit, as the same
        optimize steps with a new workspace, batch and targets, and every
        target value computed anew, before each step."""
        def filled_agent():
            agent, data = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(5)), np.random.default_rng(6)
            for _ in range(300):
                agent.memory.push(*random_transition(data))
            return agent, data

        reused, data = filled_agent()
        fresh, _ = filled_agent()
        for step in range(200):
            transition = random_transition(data)
            reused.memory.push(*transition)
            fresh.memory.push(*transition)
            loss = reused.learn()
            fresh.workspace, fresh.targets = Workspace(fresh.policy_net, 64), np.empty(64)
            fresh.batch = Batch.empty(64, 6)
            fresh.memory.valued = 0
            assert loss == optimize(fresh)
            if step % 10 == 9:
                reused.sync_target()
                fresh.sync_target()
        assert reused.adam.t == fresh.adam.t == 200
        assert reused.policy_net.params.tobytes() == fresh.policy_net.params.tobytes()
        assert reused.adam.moments.tobytes() == fresh.adam.moments.tobytes()
        assert reused.rng.random() == fresh.rng.random()


def random_transition(rng: np.random.Generator) -> tuple:
    """(state, action, reward, next_state) with uniform states, one in three terminal."""
    terminal = rng.random() < 1 / 3
    return (rng.uniform(-1, 1, 6), int(rng.integers(12)), float(rng.normal()),
            None if terminal else rng.uniform(-1, 1, 6))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(batch_size=0), "batch_size"),
        (dict(batch_size=100, replay_capacity=50), "batch_size"),
        (dict(gamma=1.0), "gamma"),
        (dict(gamma=-0.1), "gamma"),
        (dict(gamma=float("nan")), "gamma"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(learning_rate=-1e-3), "learning_rate"),
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(min_replay=-1), "min_replay"),
        (dict(batch_size=-1), "batch_size"),
        (dict(replay_capacity=0), "replay_capacity"),
        (dict(gamma=float("inf")), "gamma"),
        (dict(learning_rate=float("-inf")), "learning_rate"),
        (dict(adam_beta1=float("nan")), "adam_beta1"),
        (dict(adam_beta2=-0.1), "adam_beta2"),
        (dict(hidden_sizes=(0,)), "hidden_sizes"),
        (dict(adam_beta1=1.0), "adam_beta1"),
        (dict(adam_beta1=-0.1), "adam_beta1"),
        (dict(adam_beta2=2.0), "adam_beta2"),
        (dict(adam_beta2=1.0), "adam_beta2"),
        (dict(adam_beta2=float("nan")), "adam_beta2"),
        (dict(hidden_sizes=(64, 0)), "hidden_sizes"),
        (dict(hidden_sizes=(-1, 64)), "hidden_sizes"),
        (dict(hidden_sizes=(64.7, 64)), "hidden_sizes"),
        (dict(hidden_sizes=(64, 64.0)), "hidden_sizes"),
        (dict(hidden_sizes=(True, 64)), "hidden_sizes"),
    ])
    def test_rejects_with_the_field_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            DQNConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.0, min_replay=0),
        dict(batch_size=1, replay_capacity=1),
        dict(adam_beta1=0.0, adam_beta2=0.0),
        dict(hidden_sizes=(1, 1)),
        dict(hidden_sizes=(np.int64(3), np.int32(2))),
    ])
    def test_accepts_the_closed_ends(self, kwargs):
        DQNConfig(**kwargs)

    def test_min_replay_may_exceed_capacity(self):
        # a huge min_replay is how callers switch learning off
        assert DQNConfig(min_replay=10**9).min_replay == 10**9
