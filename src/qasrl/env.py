"""Episodic circuit-building environment.

Each step appends one gate to the circuit acting on a simulated noisy
device.  The observation is the vector of per-qubit Pauli expectations;
an episode ends when the state fidelity against the target crosses the
threshold (reward = fidelity) or when the step budget runs out
(reward = -step_penalty, like every other step).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quantum import (
    GateAction,
    GateKind,
    NoiseSpec,
    TargetState,
    apply_gate,
    bell_state,
    fidelity,
    initial_state,
    pauli_expectations,
)


@functools.cache
def enumerate_actions(n_qubits: int) -> tuple[GateAction, ...]:
    """The discrete action set: 5 single-qubit gates per qubit, then every
    ordered CNOT pair; 5n + n(n-1) actions in total.  One tuple per qubit
    count, so the transfer-matrix cache matches every env's by identity."""
    actions = [
        GateAction(kind, target=q)
        for q in range(n_qubits)
        for kind in GateKind
        if kind is not GateKind.CNOT
    ]
    actions += [
        GateAction(GateKind.CNOT, target=j, control=i)
        for i in range(n_qubits)
        for j in range(n_qubits)
        if j != i
    ]
    return tuple(actions)


@dataclass(frozen=True)
class EnvConfig:
    target: TargetState = field(default_factory=bell_state)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    fidelity_threshold: float = 0.95
    max_steps: int = 20
    step_penalty: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.fidelity_threshold <= 1.0:
            raise ValueError(f"fidelity threshold out of (0, 1]: {self.fidelity_threshold}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        # A step budget past the float range counts as 2**1023 steps, more than any episode takes.
        if not math.isfinite(self.step_penalty * min(self.max_steps, 2**1023)):
            raise ValueError(f"step_penalty {self.step_penalty} over {self.max_steps} steps is not finite")

    @property
    def n_qubits(self) -> int:
        return self.target.n_qubits


class StepResult(NamedTuple):
    observation: np.ndarray
    reward: float
    done: bool
    fidelity: float


@dataclass(frozen=True, slots=True)
class EpisodeRecord:
    """What an episode did: its gate sequence and its final quality.

    ``score`` is final_fidelity - step_penalty * steps.
    """

    actions: tuple[GateAction, ...]
    final_fidelity: float
    steps: int
    score: float


class CircuitEnv:
    """Gym-style environment over the exact mixed-state simulator."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.actions = enumerate_actions(config.n_qubits)
        self._state: np.ndarray | None = None
        self._done = False
        self._fidelity = 0.0
        self._taken: list[GateAction] = []

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def observation_dim(self) -> int:
        return 3 * self.config.n_qubits

    def reset(self) -> np.ndarray:
        self._state = initial_state(self.config.n_qubits)
        self._done = False
        self._taken = []
        self._fidelity = fidelity(self._state, self.config.target)
        return pauli_expectations(self._state, self.config.noise)

    def step(self, action: int) -> StepResult:
        """Apply the gate at index ``action`` of ``self.actions``."""
        if self._state is None:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        if not 0 <= action < len(self.actions):
            raise ValueError(f"action index {action} out of range 0..{len(self.actions) - 1}")
        gate = self.actions[action]
        self._state = apply_gate(self._state, gate, self.config.noise)
        self._taken.append(gate)
        self._fidelity = fidelity(self._state, self.config.target)
        if self._fidelity >= self.config.fidelity_threshold:
            self._done = True
            reward = self._fidelity
        else:
            self._done = len(self._taken) >= self.config.max_steps
            reward = -self.config.step_penalty
        return StepResult(
            observation=pauli_expectations(self._state, self.config.noise),
            reward=reward,
            done=self._done,
            fidelity=self._fidelity,
        )

    def episode_record(self) -> EpisodeRecord:
        """Snapshot of the current (or just finished) episode."""
        if self._state is None:
            raise RuntimeError("no episode yet; call reset()")
        return EpisodeRecord(
            actions=tuple(self._taken),
            final_fidelity=self._fidelity,
            steps=len(self._taken),
            score=self._fidelity - self.config.step_penalty * len(self._taken),
        )
