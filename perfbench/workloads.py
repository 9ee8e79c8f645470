"""The benchmark's three workloads, each run through the public API of ``qasrl``.

A workload is built from a seed, its sizes and a fresh, empty working
directory (its set-up); then ``run`` does the timed work once, and
``check`` compares what the program reported with the oracle outside the
timed section, returning one list of problems per operation, empty when
that operation's result is right.  Module attributes such as
``qasrl.ppr.ppr_run`` are looked up at call time, so a tracer installed
after ``import`` sees every call.
"""

import hashlib
from pathlib import Path

import numpy as np
import qasrl.dqn
import qasrl.env
import qasrl.experiments
import qasrl.network
import qasrl.ppr

import checks
import oracle

# Sizes of one round of each workload; TINY shrinks them for quick tests.
FULL = {"scratch_seeds": 2, "scratch_episodes": 1000,
        "rollout_episodes": 2400, "curriculum_episodes": 1000}
TINY = {"scratch_seeds": 1, "scratch_episodes": 40,
        "rollout_episodes": 24, "curriculum_episodes": 20}
SCRATCH_ENV = 3        # gate noise on X and CNOT
ROLLOUT_EPSILON = 0.5  # half the actions random, so episodes leave the solver's path
SCORE_TAIL = 100       # final_score averages the last SCORE_TAIL episodes of a run


def bell_solver() -> qasrl.network.QNetwork:
    """A fixed policy that plays H on qubit 0, then CNOT(0 -> 1).

    Inputs are [X0, Y0, Z0, X1, Y1, Z1].  Hidden units hold relu(+-(Z0 - X0))
    and relu(+-X0); the H head (action 4) reads Z0 - X0, the CNOT head
    (action 10) reads X0, and every other action sits at -0.5.
    """
    net = qasrl.network.QNetwork([6, 4, 12])
    w1, w2, b2 = net.weights[0], net.weights[1], net.biases[1]
    w1[2, 0], w1[0, 0] = 1.0, -1.0   # relu(Z0 - X0)
    w1[2, 1], w1[0, 1] = -1.0, 1.0   # relu(X0 - Z0)
    w1[0, 2] = 1.0                   # relu(X0)
    w1[0, 3] = -1.0                  # relu(-X0)
    w2[0, 4], w2[1, 4] = 1.0, -1.0   # action 4 = H on qubit 0
    w2[2, 10], w2[3, 10] = 1.0, -1.0  # action 10 = CNOT(0 -> 1)
    b2[:] = -0.5
    b2[4] = b2[10] = 0.0
    return net


def _gates(record) -> tuple:
    return tuple((g.kind.value, g.target, g.control) for g in record.actions)


def _digest(rows) -> str:
    """Hash of per-episode results, with floats written exactly."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(v.hex() if isinstance(v, float) else v for v in row)).encode())
    return h.hexdigest()


class Scratch:
    """From-scratch epsilon-greedy training (``ppr_run`` with an empty
    library) on env 3, one full run per seed."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        n = sizes["scratch_seeds"]
        self.seeds = [seed * n + i for i in range(n)]
        self.config = qasrl.ppr.PPRConfig(episodes=sizes["scratch_episodes"],
                                          use_epsilon_greedy=True)
        self.envs = [qasrl.env.CircuitEnv(qasrl.experiments.build_environment(SCRATCH_ENV))
                     for _ in self.seeds]
        self.libraries = [qasrl.ppr.PolicyLibrary() for _ in self.seeds]
        self.results = []

    def run(self) -> None:
        self.results = [
            qasrl.ppr.ppr_run(env, library, self.config, np.random.default_rng(seed))
            for env, library, seed in zip(self.envs, self.libraries, self.seeds)
        ]

    def summary(self) -> dict:
        logs = [result.log for result in self.results]
        return {
            "steps": sum(e.steps for log in logs for e in log),
            "episodes": sum(len(log) for log in logs),
            "final_score": float(np.mean([e.score for log in logs for e in log[-SCORE_TAIL:]])),
            "digest": _digest((e.score, e.steps, e.fidelity, e.policy_index)
                              for log in logs for e in log),
        }

    def check(self) -> list[list[str]]:
        device = oracle.Device(SCRATCH_ENV)
        return [checks.check_policy(device, result.policy.weights, result.policy.biases)
                for result in self.results]


class Rollout:
    """Acting only: the fixed Bell solver, epsilon-greedy, round-robin
    over the six environments; no learning and no replay."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.episodes = sizes["rollout_episodes"]
        self.rng = np.random.default_rng(seed)
        self.envs = [qasrl.env.CircuitEnv(qasrl.experiments.build_environment(k))
                     for k in sorted(oracle.ENV_NOISE)]
        self.net = bell_solver()
        self.records = []

    def run(self) -> None:
        select = qasrl.dqn.select_action_epsilon_greedy
        records = []
        for i in range(self.episodes):
            env = self.envs[i % len(self.envs)]
            observation = env.reset()
            while True:
                result = env.step(select(self.net, observation, ROLLOUT_EPSILON, self.rng))
                observation = result.observation
                if result.done:
                    break
            records.append((i % len(self.envs), env.episode_record(), observation))
        self.records = records

    def summary(self) -> dict:
        return {
            "steps": sum(record.steps for _, record, _ in self.records),
            "episodes": len(self.records),
            "final_score": float(np.mean([record.score for _, record, _ in self.records])),
            "digest": _digest((env_id, record.score, record.final_fidelity, _gates(record))
                              for env_id, record, _ in self.records),
        }

    def check(self) -> list[list[str]]:
        devices = [oracle.Device(k) for k in sorted(oracle.ENV_NOISE)]
        return [checks.check_episode(devices[env_id], _gates(record), record.final_fidelity,
                                     record.steps, record.score, observation)
                for env_id, record, observation in self.records]


class Curriculum:
    """``run_curriculum`` over environments 0..5 into a fresh directory."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.episodes = sizes["curriculum_episodes"]
        self.out = workdir / "curriculum"
        self.logs = []

    def run(self) -> None:
        self.logs = qasrl.experiments.run_curriculum(self.seed, self.out, episodes=self.episodes)

    def summary(self) -> dict:
        rows = [row for _, log in self.logs for row in log]
        return {
            "steps": sum(row.steps for row in rows),
            "episodes": len(rows),
            "final_score": float(np.mean([row.score for _, log in self.logs
                                          for row in log.rows[-SCORE_TAIL:]])),
            "digest": _digest((row.score, row.steps, row.fidelity, row.policy_index)
                              for row in rows),
        }

    def check(self) -> list[list[str]]:
        """Each stage's saved policy must solve its own environment."""
        results = []
        for env_id in sorted(oracle.ENV_NOISE):
            weights, biases = oracle.read_snapshot(self.out / f"env{env_id}" / "policy.qnet")
            results.append(checks.check_policy(oracle.Device(env_id), weights, biases))
        return results


WORKLOADS = {"scratch": Scratch, "rollout": Rollout, "curriculum": Curriculum}
