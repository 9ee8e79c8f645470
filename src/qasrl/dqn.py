"""Deep Q-learning pieces: replay memory, target values, TD targets, action selection.

Terminal transitions are pushed with ``next_state=None``; their target is the
bare reward; everything else bootstraps through a separate target
network that is synced only every few episodes.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import AdamState, QNetwork, Workspace, adam_step, clone_parameters, is_layer_size, mse_loss_and_grad


class Batch(NamedTuple):
    """Transitions as row-aligned arrays."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_ids: np.ndarray

    @classmethod
    def empty(cls, rows: int, width: int) -> "Batch":
        """Buffers of ``rows`` rows, every id 0, the rest unset."""
        return cls(np.empty((rows, width)), np.empty(rows, dtype=int), np.empty(rows), np.zeros(rows, dtype=int))


class ReplayMemory:
    """Bounded ring of row arrays, ``width`` entries per observation; push n lands in row n % capacity.

    Next states are interned by their exact bytes as rows of ``observations``
    and held by id, a step that ended its episode by id ``capacity``; a new one
    that finds every row taken first rebuilds the table from the ring's,
    counted in ``rebuilds``, after which every value is computed anew."""

    def __init__(self, capacity: int, width: int, n_actions: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity, self.width, self.n_actions = capacity, width, n_actions
        self.states, self.actions, self.rewards, self.next_ids = Batch.empty(capacity, width)
        self.observations = np.empty((capacity, width))
        self.ids: dict[bytes, int] = {}
        self.values = np.zeros(capacity + 1)  # zeros: the pages of ids never valued stay untouched
        self.values[capacity] = -0.0  # r + gamma * -0.0 is r bit for bit; with +0.0 a reward of -0.0 is not
        self.valued = self.rebuilds = self._pushes = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, state: np.ndarray, action: int, reward: float, next_state: np.ndarray | None) -> None:
        """Store one step, ``next_state`` None if it ended the episode; a bad row or action changes nothing."""
        for name, row in (("state", state), ("next state", next_state)):
            # .shape where the row is an array: np.shape costs about 0.3 us more a call
            if row is not None and (row.shape if type(row) is np.ndarray else np.shape(row)) != (self.width,):
                raise ValueError(f"{name} has shape {np.shape(row)}, the memory holds {self.width} entries")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} is not in [0, {self.n_actions})")
        slot = self._pushes % self.capacity
        self.states[slot] = state
        self.actions[slot] = action
        self.rewards[slot] = reward
        self.next_ids[slot] = self.capacity  # the overwritten transition no longer references its next state
        if next_state is not None:
            self.next_ids[slot] = self._intern(next_state)
        self._pushes += 1

    def _intern(self, observation: np.ndarray) -> int:
        key = np.asarray(observation, dtype=float).tobytes()
        if key in self.ids:
            return self.ids[key]
        if len(self.ids) == self.capacity:
            # A full table took ``capacity`` next states, so every ring row is written: no unset id 0 is read.
            live = self.next_ids != self.capacity
            self.ids.clear()
            self.valued, self.rebuilds = 0, self.rebuilds + 1
            self.next_ids[live] = [self._intern(row) for row in self.observations[self.next_ids[live]]]
        new = len(self.ids)
        self.observations[new] = observation
        self.ids[key] = new
        return new

    def sample(self, k: int, rng: np.random.Generator, out: Batch | None = None) -> Batch:
        """k distinct transitions, uniformly without replacement; gathered
        into ``out`` (of exactly k rows) or else new arrays."""
        if k > len(self):
            raise ValueError(f"cannot sample {k} from {len(self)} transitions")
        idx = rng.choice(len(self), size=k, replace=False)
        states, actions, rewards, next_ids = (None,) * 4 if out is None else out
        # idx is in range, so take need not buffer its output against an index error.
        return Batch(self.states.take(idx, 0, states, "clip"), self.actions.take(idx, 0, actions, "clip"),
                     self.rewards.take(idx, 0, rewards, "clip"), self.next_ids.take(idx, 0, next_ids, "clip"))

    def next_values(self, net: QNetwork, workspace: Workspace) -> np.ndarray:
        """``values``, each id's max-Q under ``net``, after computing those from id ``valued`` on
        (set to 0 when ``net`` changes) in products of all the workspace's rows, a short chunk padded
        with the ids before it or id 0: on some BLAS kernels a row's bits depend on the row count."""
        stop, rows, observations, values = len(self.ids), len(workspace.out), self.observations, self.values
        for start in range(self.valued, stop, rows):
            end = min(start + rows, stop)
            if stop < rows:  # a table shorter than the workspace: its one chunk is padded with id 0
                ids = np.maximum(np.arange(end - rows, end), 0)
                values[ids] = np.maximum.reduce(net.forward(observations[ids], workspace), axis=1)
            else:  # ids end - rows .. end - 1: read and written through views
                np.maximum.reduce(net.forward(observations[end - rows:end], workspace), 1, out=values[end - rows:end])
        self.valued = stop
        return values


@dataclass
class DQNConfig:
    """Learning hyperparameters; defaults follow the experiment setup.

    gamma stays at 0.70: episodes are at most 20 steps with 2-3 step
    solutions, and bootstrapped values inflate without bound at 0.99
    (max-over-actions bias feeding back through the target net).
    """

    gamma: float = 0.70
    batch_size: int = 64
    min_replay: int = 64
    replay_capacity: int = 10_000
    learning_rate: float = AdamState.learning_rate
    adam_beta1: float = AdamState.beta1
    adam_beta2: float = AdamState.beta2
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.min_replay < 0:
            raise ValueError(f"min_replay must not be negative, got {self.min_replay}")
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity {self.replay_capacity}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma out of [0, 1): {self.gamma}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not all(map(is_layer_size, self.hidden_sizes)):
            raise ValueError(f"hidden_sizes must be positive integers, got {self.hidden_sizes}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} out of [0, 1): {getattr(self, name)}")


def compute_targets(batch: Batch, values: np.ndarray, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """r + gamma * max_a' Q(s', a'; target), or just r when terminal, with the
    max read by next-state id from a ReplayMemory's ``values``.  The
    targets go into ``out`` (of the batch's length), or else a new array."""
    targets = values.take(batch.next_ids, 0, out, "clip")
    targets *= gamma
    targets += batch.rewards
    return targets


def optimize(agent: "DQNAgent") -> float | None:
    """One replay-sampled gradient step of ``agent``; no-op (None) while its memory is short.

    Returns the pre-step batch loss otherwise; a loss that is not finite
    raises FloatingPointError before the step.  Target values are computed
    only when the batch reads a next state that has none yet.  Every stage
    but Adam's runs in the agent's own buffers.
    """
    memory, workspace, targets = agent.memory, agent.workspace, agent.targets
    if len(memory) < agent.min_held:
        return None
    batch = memory.sample(len(targets), agent.rng, agent.batch)
    ids, valued = batch.next_ids, memory.valued
    # Ids from valued up to the table's length have no value yet; the terminal id, capacity, is above them all.
    if valued < len(memory.ids) and np.count_nonzero(ids >= valued) > np.count_nonzero(ids == memory.capacity):
        memory.next_values(agent.target_net, workspace)
    compute_targets(batch, memory.values, agent.gamma, targets)
    loss, grad = mse_loss_and_grad(agent.policy_net, batch.states, batch.actions, targets, workspace)
    if not math.isfinite(loss):
        raise FloatingPointError(f"TD loss is {loss}")
    adam_step(agent.policy_net, agent.adam, grad)
    return loss


def select_action_greedy(net: QNetwork, observation: np.ndarray) -> int:
    """argmax over Q-values; ties break to the lowest index."""
    return int(net.forward(observation).argmax())


def select_action_epsilon_greedy(net: QNetwork, observation: np.ndarray,
                                 epsilon: float, rng: np.random.Generator) -> int:
    """A uniform random action with probability epsilon, else the greedy one; epsilon = 0 draws nothing."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon out of [0, 1]: {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.output_dim))
    return select_action_greedy(net, observation)


def update_target(policy_net: QNetwork, target_net: QNetwork) -> None:
    """Copy policy parameters into the target network, in place."""
    if policy_net.layer_sizes != target_net.layer_sizes:
        raise ValueError("policy and target architectures differ")
    target_net.params[:] = policy_net.params


class DQNAgent:
    """Policy net, frozen-ish target net, replay memory with its target
    values, optimizer state and the buffers every gradient step runs in:
    the sampled batch, its targets, and a workspace of the batch's rows.

    The agent owns its own rng for replay sampling so that exploration
    draws elsewhere never shift which batches get sampled.
    """

    def __init__(self, obs_dim: int, n_actions: int, config: DQNConfig, rng: np.random.Generator):
        self.rng = rng
        sizes = [obs_dim, *config.hidden_sizes, n_actions]
        self.policy_net = QNetwork(sizes, rng=rng)
        self.target_net = clone_parameters(self.policy_net)
        self.memory = ReplayMemory(config.replay_capacity, obs_dim, n_actions)
        self.adam = AdamState.for_network(self.policy_net, learning_rate=config.learning_rate,
                                          beta1=config.adam_beta1, beta2=config.adam_beta2)
        self.batch, self.targets = Batch.empty(config.batch_size, obs_dim), np.empty(config.batch_size)
        self.workspace = Workspace(self.policy_net, config.batch_size)
        # What optimize reads of the config, read once: the replay length learning starts at, and gamma.
        self.min_held, self.gamma = max(config.batch_size, config.min_replay), config.gamma

    def learn(self) -> float | None:
        return optimize(self)

    def sync_target(self) -> None:
        update_target(self.policy_net, self.target_net)
        self.memory.valued = 0  # every value was under the old parameters
