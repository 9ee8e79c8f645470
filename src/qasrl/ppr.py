"""Policy reuse on top of deep Q-learning.

A run keeps a library of frozen past policies next to the in-training
network (slot 0).  Each episode, one slot is drawn from a softmax over
running mean scores whose temperature rises over time: explore the
library early, commit to what works late.  Past-policy episodes steer
with the old network at a per-step probability that decays within the
episode, handing control back to the new network.
"""

import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dqn import (
    DQNAgent,
    DQNConfig,
    Transition,
    select_action_epsilon_greedy,
    select_action_greedy,
)
from .env import CircuitEnv, EpisodeRecord
from .network import QNetwork, clone_parameters, load_policy, save_policy

LIBRARY_FORMAT_VERSION = 1


@dataclass
class ExplorationParams:
    """Past-policy steering: follow probability and its per-step decay."""

    follow_prob: float = 1.0
    follow_decay: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.follow_prob <= 1.0:
            raise ValueError(f"follow_prob out of [0, 1]: {self.follow_prob}")
        if not 0.0 <= self.follow_decay <= 1.0:
            raise ValueError(f"follow_decay out of [0, 1]: {self.follow_decay}")

    def follow_probability(self, steps_completed: int) -> float:
        """Probability of deferring to the past policy after ``steps_completed`` steps."""
        return self.follow_prob * self.follow_decay**steps_completed


@dataclass
class ReuseStats:
    """Running mean score and selection count per library slot.

    Slot 0 is the in-training policy.  The softmax temperature is a
    linear ramp: temperature_init + episodes_done * temperature_step.
    """

    mean_scores: np.ndarray
    selection_counts: np.ndarray
    temperature_init: float = 0.0
    temperature_step: float = 0.01
    episodes_done: int = 0

    @classmethod
    def fresh(cls, n_slots: int, temperature_init: float = 0.0, temperature_step: float = 0.01):
        return cls(
            mean_scores=np.zeros(n_slots),
            selection_counts=np.zeros(n_slots, dtype=int),
            temperature_init=temperature_init,
            temperature_step=temperature_step,
        )

    @property
    def n_slots(self) -> int:
        return len(self.mean_scores)

    @property
    def temperature(self) -> float:
        return self.temperature_init + self.episodes_done * self.temperature_step

    def record(self, slot: int, score: float) -> None:
        """Fold one episode score into the slot's running mean."""
        count = self.selection_counts[slot]
        self.mean_scores[slot] = (self.mean_scores[slot] * count + score) / (count + 1)
        self.selection_counts[slot] = count + 1

    def advance_temperature(self) -> None:
        self.episodes_done += 1

    def extend(self) -> None:
        self.mean_scores = np.append(self.mean_scores, 0.0)
        self.selection_counts = np.append(self.selection_counts, 0)


class PolicyLibrary:
    """Frozen past policies plus reuse statistics; slot 0 stays reserved
    for whatever network is currently in training."""

    def __init__(self):
        self._policies: list[QNetwork] = []
        self.tags: list[str] = []
        self.stats = ReuseStats.fresh(1)

    def __len__(self) -> int:
        return len(self._policies)

    @property
    def n_slots(self) -> int:
        return 1 + len(self._policies)

    def policy(self, slot: int) -> QNetwork:
        """The frozen policy behind a nonzero softmax slot."""
        if not 1 <= slot <= len(self._policies):
            raise ValueError(f"no past policy in slot {slot}")
        return self._policies[slot - 1]

    def append(self, net: QNetwork, tag: str) -> None:
        """Store a frozen deep copy; its reuse stats start at zero."""
        frozen = clone_parameters(net)
        for w, b in zip(frozen.weights, frozen.biases):
            w.setflags(write=False)
            b.setflags(write=False)
        self._policies.append(frozen)
        self.tags.append(tag)
        self.stats.extend()


def softmax_select(scores: np.ndarray, temperature: float, rng: np.random.Generator):
    """Draw a slot from softmax(temperature * scores); max-subtracted for
    numerical safety.  Returns (probabilities, chosen index)."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("no slots to select from")
    logits = temperature * scores
    logits = logits - logits.max()
    weights = np.exp(logits)
    probs = weights / weights.sum()
    # The inverse-CDF draw of rng.choice(scores.size, p=probs), without its checks.
    cdf = probs.cumsum()
    return probs, int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))


def q_learning_episode(env: CircuitEnv, agent: DQNAgent, rng: np.random.Generator,
                       epsilon: float = 0.0) -> EpisodeRecord:
    """One episode acting from the in-training network, learning each step.

    Greedy by default; pass epsilon > 0 for epsilon-greedy exploration.
    """
    obs = env.reset()
    while True:
        if epsilon > 0.0:
            action = select_action_epsilon_greedy(agent.policy_net, obs, epsilon, rng)
        else:
            action = select_action_greedy(agent.policy_net, obs)
        result = env.step(action)
        next_obs = None if result.done else result.observation
        agent.observe(Transition(obs, action, result.reward, next_obs))
        agent.learn()
        obs = result.observation
        if result.done:
            return env.episode_record()


def pi_exploration_episode(env: CircuitEnv, agent: DQNAgent, past_policy: QNetwork,
                           params: ExplorationParams, rng: np.random.Generator) -> EpisodeRecord:
    """One episode steered by a past policy with decaying probability.

    Each step, with probability follow_prob * follow_decay^t the past
    policy acts greedily, otherwise the in-training network does.  The
    in-training network learns from every transition either way.
    """
    obs = env.reset()
    steps_completed = 0
    while True:
        if rng.random() <= params.follow_probability(steps_completed):
            action = select_action_greedy(past_policy, obs)
        else:
            action = select_action_greedy(agent.policy_net, obs)
        result = env.step(action)
        steps_completed += 1
        next_obs = None if result.done else result.observation
        agent.observe(Transition(obs, action, result.reward, next_obs))
        agent.learn()
        obs = result.observation
        if result.done:
            return env.episode_record()


@dataclass
class PPRConfig:
    """Run-level knobs; defaults reproduce the experiment setup."""

    episodes: int = 1000
    temperature_init: float = 0.0
    temperature_step: float = 0.01
    follow_prob: float = 1.0
    follow_decay: float = 0.95
    use_epsilon_greedy: bool = False
    dqn: DQNConfig = field(default_factory=DQNConfig)


@dataclass(frozen=True)
class EpisodeLogEntry:
    episode: int
    score: float
    steps: int
    fidelity: float
    policy_index: int
    temperature: float
    wall_clock_ms: float


@dataclass
class PPRRunResult:
    policy: QNetwork
    log: list[EpisodeLogEntry]
    stats: ReuseStats


def ppr_run(env: CircuitEnv, library: PolicyLibrary, config: PPRConfig,
            rng: np.random.Generator) -> PPRRunResult:
    """Train a fresh network for ``config.episodes`` episodes with the
    library available for reuse.

    With an empty library every episode is plain q-learning; pass
    ``use_epsilon_greedy=True`` for the from-scratch baseline.  The
    returned log has one entry per episode with the slot that drove it
    and the selection-time temperature.
    """
    agent_rng, behavior_rng = rng.spawn(2)
    agent = DQNAgent(env.observation_dim, env.n_actions, config.dqn, agent_rng)
    library.stats = ReuseStats.fresh(
        library.n_slots, config.temperature_init, config.temperature_step
    )
    stats = library.stats
    exploration = ExplorationParams(config.follow_prob, config.follow_decay)
    epsilon = config.dqn.epsilon_start if config.use_epsilon_greedy else 0.0
    log: list[EpisodeLogEntry] = []
    for episode in range(1, config.episodes + 1):
        started = time.perf_counter()
        selection_temperature = stats.temperature
        _, slot = softmax_select(stats.mean_scores, selection_temperature, behavior_rng)
        if slot == 0:
            record = q_learning_episode(env, agent, behavior_rng, epsilon=epsilon)
        else:
            record = pi_exploration_episode(
                env, agent, library.policy(slot), exploration, behavior_rng
            )
        stats.record(slot, record.score)
        stats.advance_temperature()
        if config.use_epsilon_greedy:
            epsilon = max(config.dqn.epsilon_min, epsilon * config.dqn.epsilon_decay)
        if episode % config.dqn.target_update_period == 0:
            agent.sync_target()
        log.append(
            EpisodeLogEntry(
                episode=episode,
                score=record.score,
                steps=record.steps,
                fidelity=record.final_fidelity,
                policy_index=slot,
                temperature=selection_temperature,
                wall_clock_ms=(time.perf_counter() - started) * 1e3,
            )
        )
    return PPRRunResult(policy=agent.policy_net, log=log, stats=stats)


def save_library(library: PolicyLibrary, directory) -> None:
    """One snapshot file per policy plus a manifest with order and tags."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, tag in enumerate(library.tags):
        filename = f"policy_{i:03d}.qnet"
        save_policy(library.policy(i + 1), directory / filename)
        entries.append({
            "file": filename,
            "tag": tag,
            "created": datetime.now(timezone.utc).isoformat(),
        })
    manifest = {"format_version": LIBRARY_FORMAT_VERSION, "policies": entries}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_library(directory) -> PolicyLibrary:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no library manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != LIBRARY_FORMAT_VERSION:
        raise ValueError(f"unsupported library format {manifest.get('format_version')!r}")
    library = PolicyLibrary()
    for entry in manifest["policies"]:
        library.append(load_policy(directory / entry["file"]), entry["tag"])
    return library
