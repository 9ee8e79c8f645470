"""The benchmark's own tests: the oracle against closed forms, each check
against a deliberately corrupted result, the tracer's counts, the speed
reference, and tiny runs of the command.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

H0, CNOT01 = ("h", 0, None), ("cnot", 1, 0)


def solver_parameters():
    """Weights and biases of the Bell solver, as plain arrays."""
    w1 = np.zeros((6, 4))
    w1[2, 0], w1[0, 0], w1[2, 1], w1[0, 1], w1[0, 2], w1[0, 3] = 1, -1, -1, 1, 1, -1
    w2 = np.zeros((4, 12))
    w2[0, 4], w2[1, 4], w2[2, 10], w2[3, 10] = 1, -1, 1, -1
    b2 = np.full(12, -0.5)
    b2[4] = b2[10] = 0.0
    return [w1, w2], [np.zeros(4), b2]


def solved_episode(env_id=3):
    device = oracle.Device(env_id)
    rho, fidelities = device.run([H0, CNOT01])
    return device, dict(gates=[H0, CNOT01], fidelity=fidelities[-1], steps=2,
                        score=fidelities[-1] - 0.02, observation=device.observe(rho))


class TestOracle:
    def test_noiseless_bell_circuit_has_fidelity_one(self):
        _, fidelities = oracle.Device(0).run([H0, CNOT01])
        assert fidelities[-1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 1.0])
    def test_noisy_cnot_after_hadamard(self, p):
        rho = oracle.initial_state()
        for ks in (oracle.kraus_operators(*H0, 0.0), oracle.kraus_operators(*CNOT01, p)):
            rho = sum(k @ rho @ k.conj().T for k in ks)
        assert oracle.bell_fidelity(rho) == pytest.approx(1 - 3 * p / 4, abs=1e-14)

    @pytest.mark.parametrize("action", oracle.ACTIONS)
    def test_kraus_sets_are_trace_preserving(self, action):
        ks = oracle.kraus_operators(*action, 0.3)
        assert np.allclose(sum(k.conj().T @ k for k in ks), np.eye(4), atol=1e-14)

    def test_env_3_bell_fidelity_matches_closed_form(self):
        _, fidelities = oracle.Device(3).run([H0, CNOT01])
        assert fidelities[-1] == pytest.approx(1 - 3 * 0.01 / 4, abs=1e-14)

    def test_observation_of_ground_state(self):
        observed = oracle.Device(0).observe(oracle.initial_state())
        assert np.allclose(observed, [0, 0, 0.98, 0, 0, 0.98], atol=1e-15)


class TestCheckEpisode:
    def test_correct_episode_passes(self):
        device, episode = solved_episode()
        assert checks.check_episode(device, **episode) == []

    @pytest.mark.parametrize("field,delta", [("fidelity", 1e-6), ("score", 1e-6),
                                             ("observation", 1e-6)])
    def test_perturbed_result_is_flagged(self, field, delta):
        device, episode = solved_episode()
        episode[field] = episode[field] + delta
        assert checks.check_episode(device, **episode)

    def test_wrong_noise_rate_is_flagged(self):
        device, episode = solved_episode(env_id=0)
        # the program reporting a noiseless fidelity on a noisy device
        assert checks.check_episode(oracle.Device(3), **episode)

    def test_early_end_below_threshold_is_flagged(self):
        device = oracle.Device(3)
        rho, fidelities = device.run([H0])
        problems = checks.check_episode(device, [H0], fidelities[-1], 1,
                                        fidelities[-1] - 0.01, device.observe(rho))
        assert any("ended early" in p for p in problems)

    def test_episode_running_past_the_threshold_is_flagged(self):
        device = oracle.Device(3)
        gates = [H0, CNOT01, ("z", 1, None)]
        rho, fidelities = device.run(gates)
        problems = checks.check_episode(device, gates, fidelities[-1], 3,
                                        fidelities[-1] - 0.03, device.observe(rho))
        assert any("oracle ends it after 2" in p for p in problems)

    def test_step_count_not_matching_gates_is_flagged(self):
        device, episode = solved_episode()
        episode["steps"] = 3
        assert checks.check_episode(device, **episode)


class TestCheckPolicy:
    @pytest.mark.parametrize("env_id", sorted(oracle.ENV_NOISE))
    def test_bell_solver_passes(self, env_id):
        weights, biases = solver_parameters()
        assert checks.check_policy(oracle.Device(env_id), weights, biases) == []

    def test_policy_that_never_places_a_cnot_is_flagged(self):
        weights, biases = solver_parameters()
        biases[1][10:] = -10.0
        assert checks.check_policy(oracle.Device(3), weights, biases)


def test_check_repeat_flags_any_difference():
    first = {"steps": 10, "episodes": 2, "final_score": 0.97, "digest": "ab"}
    assert checks.check_repeat(first, dict(first)) == []
    for key, value in [("steps", 11), ("final_score", 0.9700000000000001), ("digest", "ac")]:
        assert checks.check_repeat(first, first | {key: value})


def test_read_snapshot_round_trips_save_policy(tmp_path):
    from qasrl.network import QNetwork, save_policy

    net = QNetwork([6, 5, 12], rng=np.random.default_rng(3))
    save_policy(net, tmp_path / "p.qnet")
    weights, biases = oracle.read_snapshot(tmp_path / "p.qnet")
    for mine, theirs in zip(weights + biases, net.weights + net.biases):
        assert np.array_equal(mine, theirs)


class TestTracer:
    @pytest.fixture(params=["scratch", "rollout", "curriculum"])
    def traced(self, request, tmp_path):
        import qasrl.env
        import workloads

        original = qasrl.env.apply_gate
        plain = workloads.WORKLOADS[request.param](1, workloads.TINY, tmp_path / "a")
        plain.run()
        workload = workloads.WORKLOADS[request.param](1, workloads.TINY, tmp_path / "b")
        tracer = tracing.Tracer().install()
        try:
            workload.run()
        finally:
            tracer.uninstall()
        assert qasrl.env.apply_gate is original
        return plain.summary(), workload.summary(), tracer

    def test_tracing_changes_no_result(self, traced):
        plain, summary, _ = traced
        assert summary == plain

    def test_counts_agree_with_the_workload(self, traced):
        _, summary, tracer = traced
        table = tracer.table()
        steps, episodes = summary["steps"], summary["episodes"]
        assert table["env.CircuitEnv.step.calls"] == steps
        assert table["env.CircuitEnv.reset.calls"] == episodes
        assert table["quantum.apply_gate.calls"] == steps
        assert table["quantum.pauli_expectations.calls"] == steps + episodes
        assert table["quantum.initial_state.calls"] == episodes
        assert table["dqn.optimize.calls"] in (0, steps)
        assert table["ppr.episodes"] in (0, episodes)
        assert tracer.arrays()["episode"].max() == episodes

    def test_spans_nest_and_self_time_is_positive(self, traced):
        _, _, tracer = traced
        spans = tracer.arrays()
        child = np.nonzero(spans["parent"] >= 0)[0]
        parent = spans["parent"][child]
        assert (spans["start_ns"][child] >= spans["start_ns"][parent]).all()
        assert (spans["end_ns"][child] <= spans["end_ns"][parent]).all()
        table = tracer.table()
        assert all(table[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


class TestReference:
    @pytest.mark.parametrize("name", ["scratch", "rollout", "curriculum"])
    def test_interleaved_chunks_change_no_result(self, name, tmp_path, monkeypatch):
        import qasrl.env
        import workloads

        original = qasrl.env.CircuitEnv.step
        plain = workloads.WORKLOADS[name](1, workloads.TINY, tmp_path / "a")
        plain.run()
        workload = workloads.WORKLOADS[name](1, workloads.TINY, tmp_path / "b")
        monkeypatch.setattr(reference, "EVERY_S", 0.0)  # a chunk before every step
        timed = reference.Reference().install()
        try:
            workload.run()
        finally:
            timed.uninstall()
        assert qasrl.env.CircuitEnv.step is original
        assert workload.summary() == plain.summary()
        assert timed.chunks == workload.summary()["steps"]

    def test_speed_is_one_at_the_reference_chunk_time(self):
        timed = reference.Reference()
        timed.chunks, timed.seconds = 40, 40 * reference.CHUNK_S
        assert timed.speed == pytest.approx(1.0)
        timed.seconds *= 1.6  # a phase in which the machine runs 60% slower
        assert timed.speed == pytest.approx(1 / 1.6)

    def test_run_times_each_chunk(self):
        timed = reference.Reference()
        timed.run(3)
        assert timed.chunks == 3 and timed.seconds > 0 and math.isfinite(timed.speed)


def run_command(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["scratch", "rollout", "curriculum"])
def test_tiny_run_prints_every_metric_of_benchmark_json(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_command(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = bench["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_command(tmp_path, "rollout", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
