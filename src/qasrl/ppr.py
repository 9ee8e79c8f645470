"""Policy reuse on top of deep Q-learning.

A run keeps a library of frozen past policies next to the in-training
network (slot 0).  Each episode, one slot is drawn from a softmax over
running mean scores whose temperature rises over time: explore the
library early, commit to what works late.  Past-policy episodes steer
with the old network at a per-step probability that decays within the
episode, handing control back to the new network.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dqn import (
    DQNAgent,
    DQNConfig,
    select_action_epsilon_greedy,
    select_action_greedy,
)
from .env import CircuitEnv, EpisodeRecord
from .network import QNetwork, clone_parameters, file_error, load_policy, save_policy, write_file

LIBRARY_FORMAT_VERSION = 1


@dataclass
class PPRConfig:
    """The episode schedule: slot 0's exploration, the target sync and the
    reuse schedule; defaults reproduce the experiment setup."""

    episodes: int = 1000
    temperature_init: float = 0.0
    temperature_step: float = 0.01
    follow_prob: float = 1.0
    follow_decay: float = 0.95
    use_epsilon_greedy: bool = False
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.02
    target_update_period: int = 10
    dqn: DQNConfig = field(default_factory=DQNConfig)

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError(f"episodes must not be negative, got {self.episodes}")
        if self.target_update_period < 1:
            raise ValueError(f"target_update_period must be positive, got {self.target_update_period}")
        if not math.isfinite(self.temperature_init):
            raise ValueError(f"temperature_init must be finite, got {self.temperature_init}")
        if self.temperature_step < 0:
            raise ValueError(f"temperature_step must not be negative, got {self.temperature_step}")
        if not math.isfinite(self.temperature(max(self.episodes - 1, 0))):  # also a step that is not finite
            raise ValueError(f"temperature_step {self.temperature_step} is not finite over {self.episodes} episodes")
        for name in ("epsilon_start", "epsilon_decay", "epsilon_min", "follow_prob", "follow_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {getattr(self, name)}")

    def temperature(self, episodes_done: int) -> float:
        """Softmax temperature after ``episodes_done`` episodes: a linear ramp."""
        return self.temperature_init + episodes_done * self.temperature_step

    def follow_probability(self, steps_completed: int) -> float:
        """Probability of deferring to the past policy after ``steps_completed`` steps."""
        return self.follow_prob * self.follow_decay**steps_completed


@dataclass
class ReuseStats:
    """Running mean score and selection count per library slot; slot 0
    is the in-training policy."""

    mean_scores: np.ndarray
    selection_counts: np.ndarray

    @classmethod
    def fresh(cls, n_slots: int):
        return cls(np.zeros(n_slots), np.zeros(n_slots, dtype=int))

    def record(self, slot: int, score: float) -> None:
        """Fold one episode score into the slot's running mean."""
        count = self.selection_counts[slot]
        self.mean_scores[slot] = (self.mean_scores[slot] * count + score) / (count + 1)
        self.selection_counts[slot] = count + 1


class PolicyLibrary:
    """Frozen past policies and their tags; slot 0 stays reserved for
    whatever network is currently in training."""

    def __init__(self):
        self._policies: list[QNetwork] = []
        self.tags: list[str] = []

    def __len__(self) -> int:
        return len(self._policies)

    def policy(self, slot: int) -> QNetwork:
        """The frozen policy behind a nonzero softmax slot."""
        if not 1 <= slot <= len(self._policies):
            raise ValueError(f"no past policy in slot {slot}")
        return self._policies[slot - 1]

    def append(self, net: QNetwork, tag: str) -> None:
        """Store a frozen deep copy as the next slot."""
        self._policies.append(clone_parameters(net).freeze())
        self.tags.append(tag)


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
    return probs, int(rng.choice(scores.size, p=probs))


def _play_episode(env: CircuitEnv, agent: DQNAgent, choose) -> EpisodeRecord:
    """One episode acting by ``choose(obs, steps_completed)``; the
    in-training network stores and learns from every transition."""
    obs = env.reset()
    steps_completed = 0
    while True:
        action = choose(obs, steps_completed)
        result = env.step(action)
        steps_completed += 1
        next_obs = None if result.done else result.observation
        agent.memory.push(obs, action, result.reward, next_obs)
        agent.learn()
        obs = result.observation
        if result.done:
            return env.episode_record()


def q_learning_episode(env: CircuitEnv, agent: DQNAgent, rng: np.random.Generator,
                       epsilon: float = 0.0) -> EpisodeRecord:
    """One episode acting from the in-training network, learning each step.

    Greedy by default; pass epsilon > 0 for epsilon-greedy exploration.
    """
    return _play_episode(env, agent, lambda obs, _: select_action_epsilon_greedy(agent.policy_net, obs, epsilon, rng))


def pi_exploration_episode(env: CircuitEnv, agent: DQNAgent, past_policy: QNetwork,
                           config: PPRConfig, rng: np.random.Generator) -> EpisodeRecord:
    """One episode steered by a past policy with decaying probability.

    Each step, with probability follow_prob * follow_decay^t the past
    policy acts greedily, otherwise the in-training network does.  The
    in-training network learns from every transition either way.
    """
    def choose(obs, steps_completed):
        follow = rng.random() < config.follow_probability(steps_completed)
        return select_action_greedy(past_policy if follow else agent.policy_net, obs)

    return _play_episode(env, agent, choose)


@dataclass(frozen=True, slots=True)
class RunRow:
    """One episode of a run: its result, the slot that drove it and the
    softmax temperature it was selected at."""

    episode: int
    score: float
    steps: int
    fidelity: float
    policy_index: int
    temperature: float


CSV_COLUMNS = tuple(f.name for f in fields(RunRow))
_INT_COLUMNS = {f.name for f in fields(RunRow) if f.type is int}


class RunLog(list):
    """Per-episode results of one run, a list of ``RunRow``s, CSV round-trippable.

    Every column is deterministic (floats at 12 significant digits), so
    identical seed and config give identical bytes.
    """

    __slots__ = ()

    @property
    def rows(self) -> "RunLog":
        return self  # the log itself, kept for its one reader, perfbench's Curriculum.summary

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self])

    def to_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for row in self:
            cells = []
            for col in CSV_COLUMNS:
                value = getattr(row, col)
                cells.append(str(value) if col in _INT_COLUMNS else format(value, ".12g"))
            lines.append(",".join(cells))
        write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        lines = Path(path).read_text().splitlines()
        if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
            raise ValueError(f"{path} is not a run log (bad header)")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {lineno}: {len(cells)} cells, expected {len(CSV_COLUMNS)}")
            try:
                rows.append(RunRow(*(int(cell) if col in _INT_COLUMNS else float(cell)
                                     for col, cell in zip(CSV_COLUMNS, cells))))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
        return cls(rows)

    def rolling_mean(self, window: int = 50) -> np.ndarray:
        """Trailing mean per episode; early episodes average what exists.

        Prefix sums of scores near the float limit would overflow, so
        scores beyond 2**1000 are scaled down by an exact power of two
        first (leaving 2**24 episodes of headroom); smaller scores, those
        of every real run, are summed as they are.
        """
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        scores = self.scores()
        _, exponent = np.frexp(np.abs(scores).max(initial=0.0))
        shift = max(int(exponent) - 1000, 0)
        sums = np.cumsum(np.concatenate(([0.0], np.ldexp(scores, -shift))))
        idx = np.arange(len(scores))
        lo = np.maximum(idx - window + 1, 0)
        return np.ldexp((sums[idx + 1] - sums[lo]) / (idx + 1 - lo), shift)


@dataclass
class PPRRunResult:
    policy: QNetwork
    log: RunLog
    stats: ReuseStats


def ppr_run(env: CircuitEnv, library: PolicyLibrary, config: PPRConfig,
            rng: np.random.Generator) -> PPRRunResult:
    """Train a fresh network for ``config.episodes`` episodes with the
    library available for reuse.

    With an empty library every episode is plain q-learning; pass
    ``use_epsilon_greedy=True`` for the from-scratch baseline.  The
    returned ``RunLog`` has one row per episode, and the reuse stats are this
    run's own, one slot per library policy plus slot 0.  A library policy
    whose input or output width differs from the environment's raises
    ValueError before the first episode; a TD loss that is not finite
    raises FloatingPointError naming the episode.
    """
    for slot, tag in enumerate(library.tags, start=1):
        sizes = library.policy(slot).layer_sizes
        if (sizes[0], sizes[-1]) != (env.observation_dim, env.n_actions):
            raise ValueError(f"library policy {tag!r} maps {sizes[0]} inputs to {sizes[-1]} actions, but the "
                             f"environment has {env.observation_dim} inputs and {env.n_actions} actions")
    agent_rng, behavior_rng = rng.spawn(2)
    agent = DQNAgent(env.observation_dim, env.n_actions, config.dqn, agent_rng)
    stats = ReuseStats.fresh(len(library) + 1)
    epsilon = config.epsilon_start if config.use_epsilon_greedy else 0.0
    log = RunLog()
    for episode in range(1, config.episodes + 1):
        temperature = config.temperature(episode - 1)
        _, slot = softmax_select(stats.mean_scores, temperature, behavior_rng)
        try:
            if slot == 0:
                record = q_learning_episode(env, agent, behavior_rng, epsilon=epsilon)
            else:
                record = pi_exploration_episode(env, agent, library.policy(slot), config, behavior_rng)
        except FloatingPointError as exc:
            raise FloatingPointError(f"learning went non-finite in episode {episode}: {exc}") from None
        stats.record(slot, record.score)
        if config.use_epsilon_greedy:
            epsilon = max(config.epsilon_min, epsilon * config.epsilon_decay)
        if episode % config.target_update_period == 0:
            agent.sync_target()
        log.append(RunRow(episode, record.score, record.steps, record.final_fidelity,
                          slot, temperature))
    return PPRRunResult(policy=agent.policy_net, log=log, stats=stats)


def save_library(library: PolicyLibrary, directory) -> None:
    """One snapshot file per policy, then the manifest of order and tags, which commits them."""
    directory = Path(directory)
    entries = []
    for i, tag in enumerate(library.tags):
        filename = f"policy_{i:03d}.qnet"
        save_policy(library.policy(i + 1), directory / filename)
        entries.append({"file": filename, "tag": tag})
    manifest = {"format_version": LIBRARY_FORMAT_VERSION, "policies": entries}
    write_file(directory / "manifest.json", json.dumps(manifest, indent=2).encode("utf-8"))


def load_library(directory) -> PolicyLibrary:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no library manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format_version") != LIBRARY_FORMAT_VERSION:
            raise ValueError(f"unsupported library format {manifest.get('format_version')!r}")
        entries = [(entry["file"], entry["tag"]) for entry in manifest["policies"]]
        for filename, tag in entries:
            if filename in ("", ".", "..") or Path(filename).name != filename:
                raise ValueError(f"policy file {filename!r} is not a file name inside {directory}")
            if not isinstance(tag, str):
                raise ValueError(f"policy tag {tag!r} is not a string")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise file_error(manifest_path, exc) from None
    library = PolicyLibrary()
    for filename, tag in entries:
        library.append(load_policy(directory / filename), tag)
    return library
