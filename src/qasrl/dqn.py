"""Deep Q-learning pieces: replay memory, target values, TD targets, action selection.

Terminal transitions store ``next_state=None`` and their target is the
bare reward; everything else bootstraps through a separate target
network that is synced only every few episodes.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import AdamState, QNetwork, Workspace, adam_step, clone_parameters, mse_loss_and_grad


@dataclass(frozen=True)
class Transition:
    """One environment step; ``next_state`` is None when the episode ended."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray | None


class Batch(NamedTuple):
    """Transitions as row-aligned arrays; next_ids count only where live."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_ids: np.ndarray
    live: np.ndarray


class ReplayMemory:
    """Bounded ring of row arrays, allocated at the first push; push n lands in row n % capacity.

    Next states are interned by their exact bytes as rows of ``observations``
    and held by id; a new one that finds every row taken first rebuilds the
    table from the ring's, counted in ``rebuilds``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.states = self.actions = self.rewards = self.next_ids = self.live = self.observations = None
        self.ids: dict[bytes, int] = {}
        self.rebuilds = self._pushes = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, transition: Transition) -> None:
        if self.states is None:
            rows, width = self.capacity, len(transition.state)
            self.states, self.observations = np.empty((rows, width)), np.empty((rows, width))
            self.actions, self.rewards = np.empty(rows, dtype=int), np.empty(rows)
            self.next_ids, self.live = np.zeros(rows, dtype=int), np.zeros(rows, dtype=bool)
        slot = self._pushes % self.capacity
        self._pushes += 1
        self.states[slot] = transition.state
        self.actions[slot] = transition.action
        self.rewards[slot] = transition.reward
        self.live[slot] = False  # the overwritten transition no longer references its next state
        if transition.next_state is not None:
            self.next_ids[slot] = self._intern(transition.next_state)
            self.live[slot] = True

    def _intern(self, observation: np.ndarray) -> int:
        key = np.asarray(observation, dtype=float).tobytes()
        if key in self.ids:
            return self.ids[key]
        if len(self.ids) == self.capacity:
            held = self.observations[self.next_ids[self.live]]
            self.ids.clear()
            self.rebuilds += 1
            self.next_ids[self.live] = [self._intern(row) for row in held]
        new = len(self.ids)
        self.observations[new] = observation  # first, so a row of the wrong width gets no id
        self.ids[key] = new
        return new

    def sample(self, k: int, rng: np.random.Generator, workspace: Workspace | None = None) -> Batch:
        """k distinct transitions, uniformly without replacement; gathered
        into ``workspace.batch`` (of exactly k rows) or else new arrays."""
        if k > len(self) or self.states is None:
            raise ValueError(f"cannot sample {k} from {len(self)} transitions")
        idx = rng.choice(len(self), size=k, replace=False)
        columns = (self.states, self.actions, self.rewards, self.next_ids, self.live)
        outs = (None,) * len(columns) if workspace is None else workspace.batch
        # idx is in range, so take need not buffer its output against an index error.
        return Batch(*(column.take(idx, 0, out, "clip") for column, out in zip(columns, outs)))


class TargetValues:
    """max_a' Q(s', a') under a target network for each next-state id of one
    replay memory.  The first ``valued`` ids hold theirs: set it to 0 when the
    network's parameters change.  Every product has 2 rows or more, whose bits
    do not depend on the other rows in it (a 1-row product's do)."""

    def __init__(self, capacity: int):
        self.values, self.valued, self.rebuilds = np.zeros(capacity), 0, 0

    def update(self, net: QNetwork, memory: ReplayMemory, workspace: Workspace) -> np.ndarray:
        """The values, after computing those of ids new since the last call, or all after a rebuild."""
        if self.rebuilds != memory.rebuilds:
            self.valued, self.rebuilds = 0, memory.rebuilds
        stop, rows = len(memory.ids), len(workspace.out)
        for start in range(self.valued, stop, rows):
            end = min(start + rows, stop)
            # A lone id goes beside the one before it, or beside itself.
            ids = np.maximum(np.arange(end - max(end - start, 2), end), 0)
            q = net.forward(memory.observations[ids], workspace)
            self.values[ids] = np.maximum.reduce(q, axis=1, out=workspace.targets[:ids.size])
        self.valued = stop
        return self.values


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
    target_update_period: int = 10
    learning_rate: float = AdamState.learning_rate
    adam_beta1: float = AdamState.beta1
    adam_beta2: float = AdamState.beta2
    hidden_sizes: tuple[int, ...] = (64, 64)
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.02

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
        if any(size < 1 for size in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.target_update_period < 1:
            raise ValueError(f"target_update_period must be positive, got {self.target_update_period}")
        for name in ("epsilon_start", "epsilon_decay", "epsilon_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} out of [0, 1): {getattr(self, name)}")


def compute_targets(batch: Batch, values: np.ndarray, gamma: float,
                    workspace: Workspace | None = None) -> np.ndarray:
    """r + gamma * max_a' Q(s', a'; target), or just r when terminal, with the
    max read by next-state id from ``values``, a TargetValues table.  The
    targets are a view of ``workspace.targets``, or else a new array."""
    out = None if workspace is None else workspace.targets[:len(batch.rewards)]
    # Terminal rows' ids are in range but stale, and their targets are overwritten.
    targets = values.take(batch.next_ids, 0, out, "clip")
    targets *= gamma
    targets += batch.rewards
    np.copyto(targets, batch.rewards, where=~batch.live)
    return targets


def optimize(policy_net: QNetwork, target_net: QNetwork, memory: ReplayMemory,
             config: DQNConfig, adam: AdamState, rng: np.random.Generator,
             workspace: Workspace | None = None, target_values: TargetValues | None = None) -> float | None:
    """One replay-sampled gradient step; no-op (None) while memory is short.

    Returns the pre-step batch loss otherwise; a loss that is not finite
    raises FloatingPointError before the step.  Every stage but Adam's
    runs in ``workspace`` (of ``config.batch_size`` rows), or in a fresh one.
    ``target_values`` must hold values under ``target_net``'s parameters;
    without it the call computes every value anew.
    """
    if len(memory) < max(config.batch_size, config.min_replay):
        return None
    ws = Workspace(policy_net, config.batch_size) if workspace is None else workspace
    values = (target_values or TargetValues(memory.capacity)).update(target_net, memory, ws)
    batch = memory.sample(config.batch_size, rng, ws)
    targets = compute_targets(batch, values, config.gamma, ws)
    loss, grad = mse_loss_and_grad(policy_net, batch.states, batch.actions, targets, ws)
    if not math.isfinite(loss):
        raise FloatingPointError(f"TD loss is {loss}")
    adam_step(policy_net, adam, grad)
    return loss


def select_action_greedy(net: QNetwork, observation: np.ndarray) -> int:
    """argmax over Q-values; ties break to the lowest index."""
    return int(net.forward(observation).argmax())


def select_action_epsilon_greedy(net: QNetwork, observation: np.ndarray,
                                 epsilon: float, rng: np.random.Generator) -> int:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon out of [0, 1]: {epsilon}")
    if rng.random() < epsilon:
        return int(rng.integers(net.output_dim))
    return select_action_greedy(net, observation)


def update_target(policy_net: QNetwork, target_net: QNetwork) -> None:
    """Copy policy parameters into the target network, in place."""
    if policy_net.layer_sizes != target_net.layer_sizes:
        raise ValueError("policy and target architectures differ")
    target_net.params[:] = policy_net.params


class DQNAgent:
    """Policy net, frozen-ish target net and its value table, replay
    memory, optimizer state and the workspace every gradient step runs in.

    The agent owns its own rng for replay sampling so that exploration
    draws elsewhere never shift which batches get sampled.
    """

    def __init__(self, obs_dim: int, n_actions: int, config: DQNConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        sizes = [obs_dim, *config.hidden_sizes, n_actions]
        self.policy_net = QNetwork(sizes, rng=rng)
        self.target_net = clone_parameters(self.policy_net)
        self.target_values = TargetValues(config.replay_capacity)
        self.memory = ReplayMemory(config.replay_capacity)
        self.adam = AdamState.for_network(self.policy_net, learning_rate=config.learning_rate,
                                          beta1=config.adam_beta1, beta2=config.adam_beta2)
        self.workspace = Workspace(self.policy_net, config.batch_size)

    def learn(self) -> float | None:
        return optimize(self.policy_net, self.target_net, self.memory, self.config,
                        self.adam, self.rng, self.workspace, self.target_values)

    def sync_target(self) -> None:
        update_target(self.policy_net, self.target_net)
        self.target_values.valued = 0  # every value was under the old parameters
