"""Correctness checks on what the program reports, against the oracle.

Each function takes plain data (gate tuples, floats, weight arrays) and
returns a list of problems, empty when the result is right, so that a
deliberately corrupted result can be fed in directly.
"""

import numpy as np

import oracle

THRESHOLD = 0.95       # fidelity that ends an episode
MAX_STEPS = 20         # step budget of an episode
STEP_PENALTY = 0.01    # score = fidelity - STEP_PENALTY * steps
MAX_SOLUTION_GATES = 3  # a trained policy must reach THRESHOLD within this many gates
TOLERANCE = 1e-9


def check_episode(device: oracle.Device, gates, fidelity: float, steps: int,
                  score: float, observation) -> list[str]:
    """Replay one episode's gates through the oracle.

    The final fidelity and observation must match the oracle's, the score
    must be fidelity - STEP_PENALTY * steps, and the episode must end at
    the first gate that reaches THRESHOLD, or after MAX_STEPS gates if
    none does.
    """
    problems = []
    if steps != len(gates) or steps < 1:
        return [f"episode reports {steps} steps but holds {len(gates)} gates"]
    rho, fidelities = device.run(gates)
    if abs(fidelities[-1] - fidelity) > TOLERANCE:
        problems.append(f"fidelity {fidelity!r}, oracle {fidelities[-1]!r}")
    if abs(score - (fidelity - STEP_PENALTY * steps)) > TOLERANCE:
        problems.append(f"score {score!r} is not fidelity {fidelity!r} - {STEP_PENALTY} * {steps}")
    if steps < MAX_STEPS and fidelity < THRESHOLD:
        problems.append(f"episode ended early at step {steps} with fidelity {fidelity!r}")
    crossings = [i + 1 for i, f in enumerate(fidelities) if f >= THRESHOLD]
    expected_steps = crossings[0] if crossings else MAX_STEPS
    if steps != expected_steps:
        problems.append(f"episode ended after {steps} steps, oracle ends it after {expected_steps}")
    gap = float(np.max(np.abs(np.asarray(observation, dtype=float) - device.observe(rho))))
    if not gap <= TOLERANCE:
        problems.append(f"final observation differs from the oracle's by {gap!r}")
    return problems


def check_policy(device: oracle.Device, weights, biases) -> list[str]:
    """Roll a trained policy out greedily on the oracle device: it must
    reach THRESHOLD within MAX_SOLUTION_GATES gates."""
    rho = oracle.initial_state()
    gates = []
    for _ in range(MAX_SOLUTION_GATES):
        action = oracle.ACTIONS[oracle.greedy_action(weights, biases, device.observe(rho))]
        gates.append(action)
        rho = device.apply(rho, action)
        if oracle.bell_fidelity(rho) >= THRESHOLD:
            return []
    return [f"env {device.env_id}: greedy policy plays {gates} and reaches fidelity "
            f"{oracle.bell_fidelity(rho):.6f} < {THRESHOLD}"]


def check_repeat(first: dict, later: dict) -> list[str]:
    """A round repeats the first round's inputs, so its counts, final
    score and per-episode digest must repeat exactly."""
    return [
        f"{key} {later[key]!r} differs from the first round's {first[key]!r}"
        for key in ("steps", "episodes", "final_score", "digest")
        if later[key] != first[key]
    ]
