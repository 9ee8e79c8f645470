"""Episode mechanics: action enumeration, rewards, termination, scores."""

import numpy as np
import pytest

from qasrl.env import CircuitEnv, EnvConfig, StepResult, enumerate_actions
from qasrl.experiments import build_environment
from qasrl.quantum import (
    GateAction,
    GateKind,
    NoiseSpec,
    TargetState,
    apply_gate,
    fidelity,
    initial_state,
    pauli_expectations,
)

H0 = 4  # Hadamard on qubit 0
CNOT01 = 10
Z0 = 3


def make_env(**kwargs) -> CircuitEnv:
    defaults = dict(noise=NoiseSpec(meas_error=0.01))
    defaults.update(kwargs)
    return CircuitEnv(EnvConfig(**defaults))


class TestActionSpace:
    def test_two_qubit_count(self):
        assert len(enumerate_actions(2)) == 12

    def test_three_qubit_count(self):
        assert len(enumerate_actions(3)) == 21  # 5n + n(n-1)

    def test_ordering(self):
        actions = enumerate_actions(2)
        singles = (GateKind.ROT_PI4, GateKind.PAULI_X, GateKind.PAULI_Y,
                   GateKind.PAULI_Z, GateKind.HADAMARD)
        for q in range(2):
            for offset, kind in enumerate(singles):
                assert actions[5 * q + offset] == GateAction(kind, target=q)
        assert actions[CNOT01] == GateAction(GateKind.CNOT, target=1, control=0)
        assert actions[11] == GateAction(GateKind.CNOT, target=0, control=1)

    def test_enumeration_is_stable(self):
        assert enumerate_actions(2) == enumerate_actions(2)

    def test_environments_share_one_action_tuple(self):
        """Equal actions of two environments are one object, so the
        transfer-matrix cache matches them by identity, not by __eq__."""
        noisy = EnvConfig(noise=NoiseSpec(gate_error={GateKind.CNOT: 0.1}))
        assert CircuitEnv(EnvConfig()).actions is CircuitEnv(noisy).actions is enumerate_actions(2)


class TestReset:
    def test_observation_with_readout_error(self):
        env = make_env()
        np.testing.assert_allclose(env.reset(), [0, 0, 0.98, 0, 0, 0.98], atol=1e-12)

    def test_noise_free_observation(self):
        env = CircuitEnv(EnvConfig())
        np.testing.assert_allclose(env.reset(), [0, 0, 1, 0, 0, 1], atol=1e-12)

    def test_reset_clears_history(self):
        env = make_env()
        env.reset()
        env.step(Z0)
        env.reset()
        record = env.episode_record()
        assert record.steps == 0 and record.actions == ()


class TestStep:
    def test_bell_circuit_terminates_with_fidelity_reward(self):
        env = make_env()
        env.reset()
        mid = env.step(H0)
        assert not mid.done
        assert mid.reward == -0.01
        end = env.step(CNOT01)
        assert end.done
        assert abs(end.fidelity - 1.0) < 1e-9
        assert end.reward == end.fidelity
        record = env.episode_record()
        assert record.steps == 2
        assert record.score == record.final_fidelity - 0.02
        assert abs(record.score - 0.98) < 1e-9

    def test_low_threshold_finishes_immediately(self):
        env = make_env(fidelity_threshold=0.4)
        env.reset()
        result = env.step(Z0)
        assert result.done and env.episode_record().steps == 1
        np.testing.assert_allclose(result.reward, 0.5, atol=1e-12)

    def test_truncation_at_step_budget(self):
        env = make_env()
        env.reset()
        for i in range(20):
            result = env.step(Z0)
            assert result.done == (i == 19)
        assert result.reward == -0.01
        np.testing.assert_allclose(result.fidelity, 0.5, atol=1e-12)
        record = env.episode_record()
        assert record.steps == 20
        np.testing.assert_allclose(record.score, 0.5 - 0.2, atol=1e-12)

    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_step_after_done_raises(self):
        env = make_env()
        env.reset()
        env.step(H0)
        env.step(CNOT01)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_invalid_action_index(self):
        env = make_env()
        env.reset()
        with pytest.raises(ValueError):
            env.step(12)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_gate_noise_shows_up_in_observations(self):
        noise = NoiseSpec(gate_error={GateKind.PAULI_X: 0.01}, meas_error=0.01)
        env = CircuitEnv(EnvConfig(noise=noise))
        env.reset()
        result = env.step(1)  # X on qubit 0
        np.testing.assert_allclose(result.observation[2], 0.98 * -0.99, atol=1e-12)

    def test_observations_stay_bounded_under_heavy_noise(self):
        noise = NoiseSpec(
            gate_error={kind: 0.5 for kind in GateKind}, meas_error=0.3
        )
        env = CircuitEnv(EnvConfig(noise=noise))
        rng = np.random.default_rng(3)
        for _ in range(10):
            obs = env.reset()
            done = False
            while not done:
                result = env.step(int(rng.integers(env.n_actions)))
                obs, done = result.observation, result.done
                assert np.all(obs <= 1.0) and np.all(obs >= -1.0)

    def test_score_matches_formula_on_random_episodes(self):
        env = make_env()
        rng = np.random.default_rng(4)
        for _ in range(25):
            env.reset()
            done = False
            while not done:
                done = env.step(int(rng.integers(env.n_actions))).done
            record = env.episode_record()
            assert abs(record.score - (record.final_fidelity - 0.01 * record.steps)) < 1e-12

    def test_replaying_actions_is_bit_for_bit_identical(self):
        env = make_env()
        rng = np.random.default_rng(5)
        actions = []
        env.reset()
        results = []
        done = False
        while not done:
            a = int(rng.integers(env.n_actions))
            actions.append(a)
            r = env.step(a)
            results.append(r)
            done = r.done
        replay_env = make_env()
        replay_env.reset()
        for a, r in zip(actions, results):
            rr = replay_env.step(a)
            np.testing.assert_array_equal(rr.observation, r.observation)
            assert rr.reward == r.reward
            assert rr.fidelity == r.fidelity
            assert rr.done == r.done


GHZ3 = EnvConfig(target=TargetState(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / np.sqrt(2)),
                 noise=NoiseSpec(gate_error={GateKind.HADAMARD: 0.01, GateKind.CNOT: 0.02}, meas_error=0.02),
                 fidelity_threshold=0.6, max_steps=12, step_penalty=0.02)


@pytest.mark.parametrize("config", [build_environment(k) for k in range(6)] + [GHZ3],
                         ids=[f"env{k}" for k in range(6)] + ["ghz3"])
def test_step_and_reset_return_what_the_simulator_functions_give(config):
    """Bit for bit: the observation, fidelity, reward and done of each step,
    and reset's observation and fidelity, against the simulator functions
    and the threshold-and-budget rule applied by hand on random circuits."""
    env = CircuitEnv(config)
    rng = np.random.default_rng(len(config.noise.gate_error) + 7 * config.n_qubits)
    endings = set()
    for _ in range(40):
        state = initial_state(config.n_qubits)
        assert env.reset().tobytes() == pauli_expectations(state, config.noise).tobytes()
        assert env.episode_record().final_fidelity.hex() == fidelity(state, config.target).hex()
        steps, done = 0, False
        while not done:
            action = int(rng.integers(env.n_actions))
            state = apply_gate(state, env.actions[action], config.noise)
            steps += 1
            fid = fidelity(state, config.target)
            reached = fid >= config.fidelity_threshold
            done = reached or steps >= config.max_steps
            result = env.step(action)
            assert type(result) is StepResult and type(result.done) is bool
            assert result.observation.tobytes() == pauli_expectations(state, config.noise).tobytes()
            assert result.fidelity.hex() == fid.hex()
            assert result.reward.hex() == (fid if reached else -config.step_penalty).hex()
            assert result.done is done
        endings.add(reached)
    assert endings == {True, False}  # both the threshold and the budget ended some episode


class TestEnvConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            EnvConfig(fidelity_threshold=0.0)
        with pytest.raises(ValueError):
            EnvConfig(fidelity_threshold=1.5)

    def test_step_budget_positive(self):
        with pytest.raises(ValueError):
            EnvConfig(max_steps=0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf"), 1e307])  # 1e307: its 20 steps overflow
    def test_step_penalty_must_be_finite(self, penalty):
        with pytest.raises(ValueError, match="step_penalty"):
            EnvConfig(step_penalty=penalty)

    def test_step_budget_past_the_float_range(self):
        EnvConfig(max_steps=10**400)  # no OverflowError from the penalty total's int-to-float conversion
        with pytest.raises(ValueError, match="^step_penalty 2.0 over 1"):
            EnvConfig(max_steps=10**400, step_penalty=2.0)

    def test_custom_target(self):
        plus = TargetState(np.array([1, 1], dtype=complex) / np.sqrt(2))
        env = CircuitEnv(EnvConfig(target=plus, fidelity_threshold=0.9))
        env.reset()
        result = env.step(4)  # Hadamard, the one qubit's fifth action
        assert result.done
        np.testing.assert_allclose(result.fidelity, 1.0, atol=1e-12)
