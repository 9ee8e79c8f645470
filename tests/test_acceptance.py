"""Acceptance suite: the eight shipping checks, one test each.

Each test prints a single PASS/FAIL line with its margins.  The
training-heavy checks (2 through 4) share one module-scoped batch of
runs: five seeded curricula across the six noise stages plus matched
from-scratch baselines on stages 2 through 5.
"""

import time

import numpy as np
import pytest

from conftest import finite_difference_max_rel_err, random_density_matrix
from qasrl.env import CircuitEnv
from qasrl.experiments import ExperimentConfig, build_environment, run_single
from qasrl.ppr import (
    PolicyLibrary,
    PPRConfig,
    ReuseStats,
    ppr_run,
    softmax_select,
)
from qasrl.quantum import (
    DensityMatrix,
    GateAction,
    GateKind,
    NoiseSpec,
    apply_gate,
    bell_state,
    fidelity,
    pauli_expectations,
)

WINDOW = 50
EPISODES = 1000
SEEDS = range(5)
H0, CNOT01 = 4, 10


def report(number: int, label: str, passed: bool, detail: str) -> None:
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}; {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def full_window_rolling(scores: np.ndarray, window: int = WINDOW) -> np.ndarray:
    """Mean over complete trailing windows; entry j covers episodes
    j+1 .. j+window."""
    sums = np.cumsum(np.concatenate(([0.0], scores)))
    return (sums[window:] - sums[:-window]) / window


def episode_to_threshold(scores: np.ndarray, threshold: float) -> int:
    """First episode at which a full rolling window clears the
    threshold; one past the end if it never does."""
    rolled = full_window_rolling(scores)
    hits = np.nonzero(rolled >= threshold)[0]
    return int(hits[0] + WINDOW) if len(hits) else len(scores) + 1


def child_seed(seed: int, env_id: int) -> int:
    return seed * 1000 + env_id


@pytest.fixture(scope="module")
def training_traces():
    """Score traces for five curricula plus from-scratch baselines.

    curriculum[seed][env_id] and scratch[(seed, env_id)] are arrays of
    per-episode scores; each stage env_id of a curriculum trains with
    the library of stages 0 .. env_id-1.
    """
    curriculum: dict[int, dict[int, np.ndarray]] = {}
    scratch: dict[tuple[int, int], np.ndarray] = {}
    for seed in SEEDS:
        library = PolicyLibrary()
        curriculum[seed] = {}
        for env_id in range(6):
            seed_k = child_seed(seed, env_id)
            env = CircuitEnv(build_environment(env_id))
            config = PPRConfig(episodes=EPISODES, use_epsilon_greedy=(env_id == 0))
            result = ppr_run(env, library, config, np.random.default_rng(seed_k))
            library.append(result.policy, f"env-{env_id}")
            curriculum[seed][env_id] = np.array([e.score for e in result.log])
        for env_id in (2, 3, 4, 5):
            seed_k = child_seed(seed, env_id)
            env = CircuitEnv(build_environment(env_id))
            config = PPRConfig(episodes=EPISODES, use_epsilon_greedy=True)
            result = ppr_run(env, PolicyLibrary(), config, np.random.default_rng(seed_k))
            scratch[(seed, env_id)] = np.array([e.score for e in result.log])
    return curriculum, scratch


def test_criterion_1_exact_bell_solution():
    env = CircuitEnv(build_environment(0))
    env.reset()
    env.step(H0)
    result = env.step(CNOT01)
    record = env.episode_record()
    fidelity_err = abs(result.fidelity - 1.0)
    score_exact = record.score == result.fidelity - 0.02
    times = []
    for _ in range(30):
        start = time.perf_counter()
        env.reset()
        env.step(H0)
        env.step(CNOT01)
        times.append(time.perf_counter() - start)
    millis = float(np.median(times)) * 1e3
    passed = fidelity_err <= 1e-9 and result.done and record.steps == 2 and score_exact and millis < 1.0
    report(
        1,
        "exact two-gate solution",
        passed,
        f"fidelity err {fidelity_err:.1e}, score {record.score!r} == fidelity - 0.02: "
        f"{score_exact}, median episode time {millis:.3f} ms",
    )


def test_criterion_2_from_scratch_convergence(training_traces):
    curriculum, _ = training_traces
    hits, tails, good = [], [], 0
    for seed in SEEDS:
        scores = curriculum[seed][0]
        rolled = full_window_rolling(scores)
        hit = episode_to_threshold(scores, 0.95)
        tail_min = rolled[800 - WINDOW:].min()
        ok = hit <= 800 and tail_min >= 0.95
        good += ok
        hits.append(hit)
        tails.append(tail_min)
    report(
        2,
        "from-scratch convergence on the noise-free stage",
        good >= 4,
        f"{good}/5 seeds reach rolling mean >= 0.95 by episode 800 and hold it; "
        f"reached at {hits}, tail minima {[f'{t:.3f}' for t in tails]}",
    )


def test_criterion_3_reuse_speedup(training_traces):
    curriculum, scratch = training_traces
    reach_ok = True
    reach_detail = []
    for env_id in (1, 2, 3, 4):
        hits = [episode_to_threshold(curriculum[s][env_id], 0.9) for s in SEEDS]
        n_ok = sum(h <= 300 for h in hits)
        reach_ok = reach_ok and n_ok >= 4
        reach_detail.append(f"env{env_id} {n_ok}/5 (at {hits})")
    median_ok = True
    median_detail = []
    for env_id in (2, 3, 4):
        reuse = np.median([episode_to_threshold(curriculum[s][env_id], 0.9) for s in SEEDS])
        base = np.median([episode_to_threshold(scratch[(s, env_id)], 0.9) for s in SEEDS])
        median_ok = median_ok and reuse < base
        median_detail.append(f"env{env_id} {reuse:.0f} vs {base:.0f}")
    report(
        3,
        "reuse reaches competence faster",
        reach_ok and median_ok,
        "rolling mean >= 0.9 by episode 300: " + ", ".join(reach_detail)
        + "; median episodes-to-threshold reuse vs scratch: " + ", ".join(median_detail),
    )


def test_criterion_4_noisiest_stage_robustness(training_traces):
    curriculum, scratch = training_traces
    reuse = np.median([curriculum[s][5][-100:].mean() for s in SEEDS])
    base = np.median([scratch[(s, 5)][-100:].mean() for s in SEEDS])
    report(
        4,
        "reuse beats scratch on the noisiest stage",
        reuse > base,
        f"median final-100 mean score {reuse:.4f} (reuse) vs {base:.4f} (scratch)",
    )


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(12345)
    worst = finite_difference_max_rel_err(rng, [6, 16, 16, 12], n_cases=1000)
    report(
        5,
        "backprop matches finite differences",
        worst < 1e-4,
        f"max relative error {worst:.2e} over 1000 random cases, bound 1e-4",
    )


def test_criterion_6_channel_physics():
    rng = np.random.default_rng(777)
    worst_trace = worst_herm = 0.0
    min_eig = 0.0
    actions = [GateAction(kind, 0) for kind in GateKind if kind is not GateKind.CNOT]
    actions.append(GateAction(GateKind.CNOT, 1, control=0))
    for action in actions:
        for p in (0.0, 0.005, 0.01, 0.5, 1.0):
            noise = NoiseSpec(gate_error={action.kind: p}, meas_error=0.0)
            state = DensityMatrix(2, random_density_matrix(rng, 2))
            out = apply_gate(state, action, noise).elements
            worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
            worst_herm = max(worst_herm, np.abs(out - out.conj().T).max())
            min_eig = min(min_eig, np.linalg.eigvalsh(out).min())
    worst_pauli = 0.0
    paulis = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    eye = np.eye(2)
    for _ in range(100):
        state = DensityMatrix(2, random_density_matrix(rng, 2))
        got = pauli_expectations(state)
        want = []
        for qubit in range(2):
            for name in ("X", "Y", "Z"):
                op = np.kron(paulis[name], eye) if qubit == 0 else np.kron(eye, paulis[name])
                want.append(np.trace(state.elements @ op).real)
        worst_pauli = max(worst_pauli, np.abs(got - np.array(want)).max())
    target = bell_state()
    worst_linear = 0.0
    for _ in range(20):
        a = rng.uniform()
        r1 = random_density_matrix(rng, 2)
        r2 = random_density_matrix(rng, 2)
        mixed = DensityMatrix(2, a * r1 + (1 - a) * r2)
        combined = a * fidelity(DensityMatrix(2, r1), target) + (1 - a) * fidelity(
            DensityMatrix(2, r2), target
        )
        worst_linear = max(worst_linear, abs(fidelity(mixed, target) - combined))
    passed = (
        worst_trace <= 1e-12
        and worst_herm <= 1e-12
        and min_eig >= -1e-9
        and worst_pauli <= 1e-12
        and worst_linear <= 1e-12
    )
    report(
        6,
        "channel and observable physics",
        passed,
        f"trace err {worst_trace:.1e}, hermiticity err {worst_herm:.1e}, min eigenvalue "
        f"{min_eig:.1e}, observable err {worst_pauli:.1e}, fidelity linearity err {worst_linear:.1e}",
    )


def test_criterion_7_reuse_arithmetic_exactness():
    rng = np.random.default_rng(999)
    worst_mean = 0.0
    for _ in range(20):
        stats = ReuseStats.fresh(1)
        scores = rng.uniform(-0.2, 1.0, size=int(rng.integers(1, 300)))
        for s in scores:
            stats.record(0, s)
        worst_mean = max(worst_mean, abs(stats.mean_scores[0] - scores.mean()))
    worst_norm = 0.0
    worst_uniform = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 8))
        values = rng.normal(size=n)
        probs, _ = softmax_select(values, rng.uniform(0.0, 10.0), rng)
        worst_norm = max(worst_norm, abs(probs.sum() - 1.0))
        flat, _ = softmax_select(values, 0.0, rng)
        worst_uniform = max(worst_uniform, np.abs(flat - 1.0 / n).max())
    schedule = PPRConfig(temperature_init=0.0, temperature_step=0.01, follow_prob=1.0, follow_decay=0.95)
    worst_follow = max(
        abs(schedule.follow_probability(t) - 1.0 * 0.95**t) for t in range(26)
    )
    worst_temp = 0.0
    for episode in range(1, 1001):
        worst_temp = max(worst_temp, abs(schedule.temperature(episode) - (0.0 + episode * 0.01)))
    passed = max(worst_mean, worst_norm, worst_uniform, worst_follow, worst_temp) <= 1e-12
    report(
        7,
        "reuse arithmetic exactness",
        passed,
        f"running mean err {worst_mean:.1e}, softmax norm err {worst_norm:.1e}, "
        f"uniformity err {worst_uniform:.1e}, follow decay err {worst_follow:.1e}, "
        f"temperature ramp err {worst_temp:.1e}",
    )


def test_criterion_8_deterministic_runlog(tmp_path):
    def one(out):
        config = ExperimentConfig(
            env_id=1, mode="from_scratch", seed=11, episodes=120, out=str(out)
        )
        run_single(config)
        return (out / "runlog.csv").read_bytes()

    first = one(tmp_path / "a")
    second = one(tmp_path / "b")
    report(
        8,
        "identical seed and config give identical logs",
        first == second,
        f"two runs, {len(first)} bytes each, byte-identical: {first == second}",
    )
