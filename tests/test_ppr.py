"""Policy-reuse tests: softmax selection, running-mean stats, episode
drivers with a hand-built solver policy, and the full run loop."""

import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest

from conftest import bell_solver_network, constant_output_network, poison_agents
from qasrl.dqn import DQNAgent, DQNConfig, update_target
from qasrl.env import CircuitEnv, EnvConfig, EpisodeRecord, enumerate_actions
from qasrl.experiments import build_environment
from qasrl.network import QNetwork, save_policy
from qasrl.ppr import (
    PolicyLibrary,
    PPRConfig,
    ReuseStats,
    RunLog,
    RunRow,
    load_library,
    pi_exploration_episode,
    ppr_run,
    q_learning_episode,
    save_library,
    softmax_select,
)


class TestSoftmaxSelect:
    def test_zero_temperature_is_uniform(self):
        probs, _ = softmax_select(np.array([0.9, 0.1, 0.5]), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)

    def test_high_temperature_concentrates(self):
        probs, slot = softmax_select(np.array([1.0, 0.0]), 100.0, np.random.default_rng(0))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)
        assert slot == 0

    def test_hand_evaluated_probabilities(self):
        scores = [0.98, 0.5, 0.2]
        weights = [math.exp(1.0 * s) for s in scores]
        expected = [w / sum(weights) for w in weights]
        probs, _ = softmax_select(np.array(scores), 1.0, np.random.default_rng(0))
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=5)
        p1, _ = softmax_select(scores, 2.5, np.random.default_rng(0))
        p2, _ = softmax_select(scores + 40.0, 2.5, np.random.default_rng(0))
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            probs, slot = softmax_select(rng.normal(size=4), rng.uniform(0, 10), rng)
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
            assert 0 <= slot < 4

    def test_draws_follow_probabilities(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(2)
        trials = 50_000
        for _ in range(trials):
            _, slot = softmax_select(np.array([1.0, 0.0]), 1.0, rng)
            counts[slot] += 1
        p = math.exp(1.0) / (math.exp(1.0) + 1.0)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(counts[0] - trials * p) <= 5 * sigma

    def test_one_slot_draws_as_rng_choice(self):
        rng = np.random.default_rng(4)
        for score, temperature in [(0.9, 1.0), (-3.0, 0.0), (1e300, 20.0)]:
            twin = copy.deepcopy(rng)
            probs, slot = softmax_select(np.array([score]), temperature, rng)
            assert slot == int(twin.choice(1, p=[1.0])) == 0
            assert probs.tolist() == [1.0]
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            softmax_select(np.array([]), 1.0, np.random.default_rng(0))

    def test_single_slot_always_chosen(self):
        _, slot = softmax_select(np.array([0.0]), 0.0, np.random.default_rng(0))
        assert slot == 0


class TestReuseStats:
    def test_first_record_is_the_score(self):
        stats = ReuseStats.fresh(2)
        stats.record(1, 0.98)
        assert stats.mean_scores[1] == 0.98
        assert stats.selection_counts[1] == 1

    def test_running_mean_update(self):
        stats = ReuseStats.fresh(1)
        stats.mean_scores[0] = 0.5
        stats.selection_counts[0] = 4
        stats.record(0, 1.0)
        np.testing.assert_allclose(stats.mean_scores[0], 0.6, atol=1e-15)
        assert stats.selection_counts[0] == 5

    def test_running_mean_equals_arithmetic_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            stats = ReuseStats.fresh(1)
            scores = rng.uniform(-0.2, 1.0, size=rng.integers(1, 200))
            for s in scores:
                stats.record(0, s)
            np.testing.assert_allclose(stats.mean_scores[0], scores.mean(), atol=1e-12)


class TestReuseSchedule:
    def test_temperature_ramp(self):
        config = PPRConfig(temperature_init=0.0, temperature_step=0.01)
        assert config.temperature(0) == 0.0
        np.testing.assert_allclose(config.temperature(1000), 10.0, atol=1e-12)

    def test_decay_after_three_steps(self):
        config = PPRConfig(follow_prob=1.0, follow_decay=0.95)
        np.testing.assert_allclose(config.follow_probability(3), 0.857375, atol=1e-12)

    def test_no_steps_means_initial_probability(self):
        config = PPRConfig(follow_prob=0.8)
        assert config.follow_probability(0) == 0.8

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^follow_prob out of \[0, 1\]: 1.2$"):
            PPRConfig(follow_prob=1.2)
        with pytest.raises(ValueError, match=r"^follow_decay out of \[0, 1\]: -0.1$"):
            PPRConfig(follow_decay=-0.1)


class TestPolicyLibrary:
    def test_append_freezes_a_copy(self):
        rng = np.random.default_rng(5)
        net = QNetwork([6, 8, 12], rng=rng)
        library = PolicyLibrary()
        library.append(net, "first")
        net.weights[0][:] += 1.0
        stored = library.policy(1)
        assert stored.weights[0][0, 0] != net.weights[0][0, 0]
        with pytest.raises(ValueError):
            stored.weights[0][0, 0] = 3.0

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_a_copied_library_keeps_its_policies_frozen(self, round_trip):
        library = PolicyLibrary()
        library.append(QNetwork([6, 8, 12], rng=np.random.default_rng(9)), "env-0")
        back = round_trip(library)
        stored = back.policy(1)
        assert back.tags == ["env-0"] and stored.params.tobytes() == library.policy(1).params.tobytes()
        for view in (stored.params, *stored.weights, *stored.biases):
            assert np.shares_memory(view, stored.params)
            with pytest.raises(ValueError):
                view[0] = 3.0

    def test_stored_policy_rejects_writes_through_every_view(self):
        net = QNetwork([6, 8, 8, 12], rng=np.random.default_rng(7))
        library = PolicyLibrary()
        library.append(net, "first")
        stored = library.policy(1)
        # the views made by the constructor, and any made later
        later_weights, later_biases = stored.layer_views(stored.params)
        for view in (stored.params, *stored.weights, *stored.biases, *later_weights, *later_biases):
            with pytest.raises(ValueError):
                view[0] = 3.0
        net.weights[0][0, 0] = 3.0  # the source network stays writable
        assert net.params[0] == 3.0

    def test_slot_zero_is_not_a_past_policy(self):
        library = PolicyLibrary()
        library.append(QNetwork([6, 8, 12]), "first")
        with pytest.raises(ValueError):
            library.policy(0)
        with pytest.raises(ValueError):
            library.policy(2)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        library = PolicyLibrary()
        for tag in ("env-0", "env-1", "env-2"):
            library.append(QNetwork([6, 16, 12], rng=rng), tag)
        save_library(library, tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        assert loaded.tags == ["env-0", "env-1", "env-2"]
        x = rng.normal(size=6)
        for slot in range(1, 4):
            np.testing.assert_allclose(
                loaded.policy(slot).forward(x), library.policy(slot).forward(x), atol=1e-12
            )

    def test_manifest_is_deterministic_and_old_ones_still_load(self, tmp_path):
        library = PolicyLibrary()
        library.append(QNetwork([6, 8, 12]), "env-0")
        save_library(library, tmp_path / "a")
        save_library(library, tmp_path / "b")
        manifest = (tmp_path / "a" / "manifest.json").read_text()
        assert manifest == (tmp_path / "b" / "manifest.json").read_text()
        assert json.loads(manifest)["policies"] == [{"file": "policy_000.qnet", "tag": "env-0"}]
        # Manifests written before the created stamp was dropped still load.
        (tmp_path / "a" / "manifest.json").write_text(
            manifest.replace('"tag": "env-0"', '"tag": "env-0", "created": "2026-01-01T00:00:00+00:00"'))
        assert load_library(tmp_path / "a").tags == ["env-0"]

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_library(tmp_path / "nope")

    @pytest.mark.parametrize("manifest", [
        '{"format_version": 1, "policies": [{"tag": "env-0"}]}',
        '{"format_version": 1, "policies": [{"file": "policy_000.qnet"}]}',
        '{"format_version": 1}',
        '{"format_version": 1, "policies": [7]}',
        '{"format_version": 1, "policies": [',
        '{"format_version": 1, "policies": [{"file": "policy_000.qnet", "tag": 5}]}',
        '{"format_version": 1, "policies": [{"file": "policy_000.qnet", "tag": ["x"]}]}',
    ], ids=["no_file", "no_tag", "no_policies", "entry_not_an_object", "bad_json", "tag_a_number", "tag_a_list"])
    def test_malformed_manifest_is_a_value_error_naming_it(self, tmp_path, manifest):
        library = PolicyLibrary()
        library.append(QNetwork([6, 8, 12]), "env-0")
        save_library(library, tmp_path)
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(ValueError, match="manifest\\.json: "):
            load_library(tmp_path)

    @pytest.mark.parametrize("where", ["parent", "absolute", "subdirectory", "directory_itself"])
    def test_policy_file_outside_the_library_is_rejected(self, tmp_path, where):
        """Each named file exists and holds a valid snapshot, but only plain
        file names inside the library directory may be loaded."""
        library = PolicyLibrary()
        library.append(QNetwork([6, 8, 12]), "env-0")
        save_library(library, tmp_path / "lib")
        save_policy(QNetwork([6, 8, 12]), tmp_path / "outside.qnet")
        save_policy(QNetwork([6, 8, 12]), tmp_path / "lib" / "sub" / "inner.qnet")
        name = {"parent": "../outside.qnet", "absolute": str(tmp_path / "outside.qnet"),
                "subdirectory": "sub/inner.qnet", "directory_itself": "."}[where]
        manifest = {"format_version": 1, "policies": [{"file": name, "tag": "env-0"}]}
        (tmp_path / "lib" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: policy file .* is not a file name inside "):
            load_library(tmp_path / "lib")


def solver_agent(env: CircuitEnv, seed: int = 0, **config_kwargs) -> DQNAgent:
    """Agent whose in-training net is the hand-built Bell solver."""
    config = DQNConfig(hidden_sizes=(4,), **config_kwargs)
    agent = DQNAgent(env.observation_dim, env.n_actions, config, np.random.default_rng(seed))
    update_target(bell_solver_network(), agent.policy_net)
    agent.sync_target()
    return agent


class TestQLearningEpisode:
    def test_pretrained_solver_scores_098(self):
        env = CircuitEnv(build_environment(0))
        agent = solver_agent(env)
        record = q_learning_episode(env, agent, np.random.default_rng(1))
        assert record.steps == 2
        np.testing.assert_allclose(record.score, 0.98, atol=1e-9)

    def test_zero_network_repeats_action_zero_to_the_cap(self):
        env = CircuitEnv(build_environment(0))
        config = DQNConfig(hidden_sizes=(4,))
        agent = DQNAgent(env.observation_dim, env.n_actions, config, np.random.default_rng(2))
        for layer in range(len(agent.policy_net.weights)):
            agent.policy_net.weights[layer][:] = 0.0
            agent.policy_net.biases[layer][:] = 0.0
        record = q_learning_episode(env, agent, np.random.default_rng(3))
        assert record.steps == 20
        assert all(a == env.actions[0] for a in record.actions)

    def test_episode_fills_replay_memory(self):
        env = CircuitEnv(build_environment(0))
        agent = solver_agent(env)
        q_learning_episode(env, agent, np.random.default_rng(4))
        assert len(agent.memory) == 2

    def test_epsilon_one_explores_randomly(self):
        env = CircuitEnv(build_environment(0))
        agent = solver_agent(env, min_replay=10**9)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(30):
            record = q_learning_episode(env, agent, rng, epsilon=1.0)
            seen.update(record.actions)
        assert len(seen) > 4


class TestPiExplorationEpisode:
    def test_psi_zero_matches_q_learning_exactly(self):
        config = PPRConfig(follow_prob=0.0)
        env_a = CircuitEnv(build_environment(0))
        env_b = CircuitEnv(build_environment(0))
        agent_a = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(10))
        agent_b = DQNAgent(6, 12, DQNConfig(), np.random.default_rng(10))
        past = bell_solver_network()
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(12)  # deliberately different
        for _ in range(10):
            rec_a = pi_exploration_episode(env_a, agent_a, past, config, rng_a)
            rec_b = q_learning_episode(env_b, agent_b, rng_b)
            assert rec_a.actions == rec_b.actions
            assert rec_a.score == rec_b.score

    def test_zero_follow_prob_never_consults_the_past_policy(self):
        class Untouchable(QNetwork):
            def forward(self, inputs):
                raise AssertionError("the past policy was consulted")

        class ZeroDraws:
            """A behaviour rng whose every draw is exactly 0.0."""

            def random(self):
                return 0.0

        config = PPRConfig(follow_prob=0.0)
        env = CircuitEnv(build_environment(0))
        agent = solver_agent(env, min_replay=10**9)
        past = Untouchable([6, 12])
        rng = np.random.default_rng(16)
        for _ in range(200):
            pi_exploration_episode(env, agent, past, config, rng)
        record = pi_exploration_episode(env, agent, past, config, ZeroDraws())
        assert record.steps == 2

    def test_full_follow_replays_the_past_policy(self):
        config = PPRConfig(follow_prob=1.0, follow_decay=1.0)
        env = CircuitEnv(build_environment(0))
        agent = solver_agent(env, min_replay=10**9)
        # past policy plays the solution; the in-training net never acts
        for layer in range(len(agent.policy_net.weights)):
            agent.policy_net.weights[layer][:] = 0.0
            agent.policy_net.biases[layer][:] = 0.0
        record = pi_exploration_episode(
            env, agent, bell_solver_network(), config, np.random.default_rng(13)
        )
        assert [a for a in record.actions] == [env.actions[4], env.actions[10]]

    def test_follow_rate_after_one_decay_step(self):
        # first step always follows (prob 1), second follows with 0.95:
        # the chance both actions are the solution is exactly 0.95
        env = CircuitEnv(build_environment(0))
        config = DQNConfig(hidden_sizes=(), min_replay=10**9)
        agent = DQNAgent(6, 12, config, np.random.default_rng(14))
        update_target(constant_output_network([0] * 3 + [1.0] + [0] * 8, 6), agent.policy_net)
        reuse = PPRConfig(follow_prob=1.0, follow_decay=0.95)
        past = bell_solver_network()
        rng = np.random.default_rng(15)
        episodes = 3000
        hits = 0
        for _ in range(episodes):
            record = pi_exploration_episode(env, agent, past, reuse, rng)
            if record.actions[:2] == (env.actions[4], env.actions[10]):
                hits += 1
        p = 0.95
        sigma = math.sqrt(episodes * p * (1 - p))
        assert abs(hits - episodes * p) <= 5 * sigma


def fast_env(threshold: float = 0.45) -> CircuitEnv:
    """Environment whose episodes finish on the first step."""
    return CircuitEnv(EnvConfig(fidelity_threshold=threshold))


@pytest.mark.parametrize("record", [
    RunRow(episode=1, score=0.98, steps=2, fidelity=0.99, policy_index=1, temperature=0.01),
    EpisodeRecord(actions=enumerate_actions(2)[:2], final_fidelity=0.99, steps=2, score=0.97),
], ids=["RunRow", "EpisodeRecord"])
def test_per_episode_records_hold_their_fields_in_slots(record):
    """No instance dictionary; replace, equality, hashing and a pickle
    round trip behave as for any frozen dataclass."""
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))
    same = dataclasses.replace(record)
    assert same is not record and same == record and hash(same) == hash(record)
    changed = dataclasses.replace(record, steps=3)
    assert changed.steps == 3 and changed != record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.steps = 3


class TestPprRun:
    def test_temperature_trace_over_a_thousand_episodes(self):
        config = PPRConfig(episodes=1000)
        result = ppr_run(fast_env(), PolicyLibrary(), config, np.random.default_rng(20))
        assert len(result.log) == 1000
        np.testing.assert_allclose(result.log[-1].temperature, 9.99, atol=1e-12)
        assert result.stats.selection_counts.sum() == 1000

    def test_logged_means_match_recomputed_means(self):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        config = PPRConfig(episodes=300, dqn=DQNConfig(hidden_sizes=(8,)))
        result = ppr_run(fast_env(), library, config, np.random.default_rng(21))
        assert len(result.stats.mean_scores) == len(library) + 1
        scores = np.array([e.score for e in result.log])
        slots = np.array([e.policy_index for e in result.log])
        for slot in range(2):
            if np.any(slots == slot):
                np.testing.assert_allclose(
                    result.stats.mean_scores[slot], scores[slots == slot].mean(), atol=1e-12
                )
                assert result.stats.selection_counts[slot] == int((slots == slot).sum())

    def test_empty_library_never_reuses(self):
        config = PPRConfig(episodes=50, dqn=DQNConfig(hidden_sizes=(8,)))
        result = ppr_run(fast_env(), PolicyLibrary(), config, np.random.default_rng(22))
        assert all(e.policy_index == 0 for e in result.log)

    def test_past_policy_gets_selected(self):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        config = PPRConfig(episodes=60, dqn=DQNConfig(hidden_sizes=(8,)))
        result = ppr_run(fast_env(), library, config, np.random.default_rng(23))
        assert any(e.policy_index == 1 for e in result.log)

    def test_same_seed_reproduces_scores(self):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        config = PPRConfig(episodes=80, dqn=DQNConfig(hidden_sizes=(8,)))
        a = ppr_run(fast_env(), library, config, np.random.default_rng(24))
        b = ppr_run(fast_env(), library, config, np.random.default_rng(24))
        assert [e.score for e in a.log] == [e.score for e in b.log]
        assert [e.policy_index for e in a.log] == [e.policy_index for e in b.log]

    def test_stats_reset_between_runs(self):
        library = PolicyLibrary()
        config = PPRConfig(episodes=30, dqn=DQNConfig(hidden_sizes=(8,)))
        ppr_run(fast_env(), library, config, np.random.default_rng(25))
        result = ppr_run(fast_env(), library, config, np.random.default_rng(26))
        assert result.stats.selection_counts.sum() == 30

    @pytest.mark.parametrize("sizes", [[6, 8, 5], [7, 8, 12]])
    def test_library_policy_of_another_width_is_refused(self, sizes):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        library.append(QNetwork(sizes), "odd")
        env = fast_env()
        message = (f"^library policy 'odd' maps {sizes[0]} inputs to {sizes[-1]} actions, "
                   "but the environment has 6 inputs and 12 actions$")
        with pytest.raises(ValueError, match=message):
            ppr_run(env, library, PPRConfig(episodes=30), np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="no episode yet"):
            env.episode_record()

    def test_slot_zero_acts_greedily_under_reuse_whatever_its_epsilon(self):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        logs = [ppr_run(fast_env(), library, PPRConfig(episodes=30, dqn=DQNConfig(hidden_sizes=(8,)), **eps),
                        np.random.default_rng(28)).log
                for eps in ({}, dict(epsilon_start=0.0, epsilon_min=0.0),
                            dict(epsilon_start=0.5, epsilon_decay=1.0, epsilon_min=0.5))]
        assert any(row.policy_index == 0 for row in logs[0])
        assert logs[1] == logs[0] and logs[2] == logs[0]

    def test_the_log_is_a_run_log_that_pickles_with_the_result(self):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        result = ppr_run(fast_env(), library, PPRConfig(episodes=20, dqn=DQNConfig(hidden_sizes=(8,))),
                         np.random.default_rng(29))
        assert type(result.log) is RunLog and len(result.log) == 20 and result.log.rows is result.log
        back = pickle.loads(pickle.dumps(result))
        assert type(back.log) is RunLog and back.log == result.log
        assert back.policy.params.tobytes() == result.policy.params.tobytes()
        assert np.shares_memory(back.policy.weights[0], back.policy.params)
        assert back.stats.mean_scores.tobytes() == result.stats.mean_scores.tobytes()
        assert back.stats.selection_counts.tolist() == result.stats.selection_counts.tolist()
        assert pickle.loads(pickle.dumps(result.log)) == result.log

    def test_episode_numbers_are_one_based_and_complete(self):
        config = PPRConfig(episodes=25, dqn=DQNConfig(hidden_sizes=(8,)))
        result = ppr_run(fast_env(), PolicyLibrary(), config, np.random.default_rng(27))
        assert [e.episode for e in result.log] == list(range(1, 26))


class TestNonFiniteLearning:
    def test_nan_weight_stops_the_run_naming_the_episode(self, monkeypatch):
        poison_agents(monkeypatch)
        # NaN Q-values make the greedy action 0, which never reaches the
        # threshold: 20-step episodes, so the 64th transition (the first
        # gradient step) comes in episode 4
        env = CircuitEnv(build_environment(0))
        with pytest.raises(FloatingPointError, match=r"^learning went non-finite in episode 4: TD loss is nan$"):
            ppr_run(env, PolicyLibrary(), PPRConfig(episodes=10), np.random.default_rng(0))


class TestPprConfigValidation:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(episodes=-5), "episodes"),
        (dict(temperature_step=-0.01), "temperature_step"),
        (dict(temperature_step=float("nan")), "temperature_step"),
        (dict(temperature_step=float("inf")), "temperature_step"),
        (dict(temperature_init=float("nan")), "temperature_init"),
        (dict(temperature_init=float("-inf")), "temperature_init"),
        (dict(target_update_period=0), "target_update_period"),
        (dict(target_update_period=-3), "target_update_period"),
        (dict(epsilon_start=1.5), "epsilon_start"),
        (dict(epsilon_start=-0.1), "epsilon_start"),
        (dict(epsilon_decay=2.0), "epsilon_decay"),
        (dict(epsilon_decay=float("nan")), "epsilon_decay"),
        (dict(epsilon_min=-0.01), "epsilon_min"),
        (dict(epsilon_min=1.01), "epsilon_min"),
    ])
    def test_rejects_with_the_field_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            PPRConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(target_update_period=1),
        dict(epsilon_start=0.0, epsilon_decay=1.0, epsilon_min=1.0),
    ])
    def test_accepts_the_closed_ends(self, kwargs):
        PPRConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epsilon_start=1.5), "epsilon_start out of [0, 1]: 1.5"),
        (dict(target_update_period=0), "target_update_period must be positive, got 0"),
    ], ids=["epsilon_start", "target_update_period"])
    def test_messages(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PPRConfig(**kwargs)

    def test_zero_episodes_is_allowed(self):
        result = ppr_run(fast_env(), PolicyLibrary(), PPRConfig(episodes=0), np.random.default_rng(0))
        assert result.log == []
