"""Golden trajectories: the exact bytes of ``runlog.csv`` for two short fixed runs.

A refactor that keeps the numerics keeps these checksums.  A change that
alters the numerics on purpose records the new checksums here and says
why in CHANGES.md.
"""

import copy
import hashlib
from pathlib import Path

import numpy as np

from conftest import bell_solver_network
from qasrl.experiments import ExperimentConfig, run_single
from qasrl.ppr import PolicyLibrary, save_library, softmax_select

SCRATCH_ENV3_SEED0 = "3939ac37b5f0333e4dd54399d16b8c88da061600939b32d284b7f73f7da0b643"
PPR_ENV1_SEED0 = "cd046cf878cda98b2526fae66238d8ce0e520925df9c6dbbe41f0ef2a0c2fecc"


def runlog_sha256(config: ExperimentConfig) -> str:
    run_single(config)
    return hashlib.sha256((Path(config.out) / "runlog.csv").read_bytes()).hexdigest()


def test_from_scratch_run(tmp_path):
    config = ExperimentConfig(env_id=3, seed=0, episodes=200, out=str(tmp_path / "run"))
    assert runlog_sha256(config) == SCRATCH_ENV3_SEED0


def test_ppr_stage_with_one_policy_library(tmp_path):
    library = PolicyLibrary()
    library.append(bell_solver_network(), "env-0")
    save_library(library, tmp_path / "lib")
    config = ExperimentConfig(env_id=1, mode="ppr", library=str(tmp_path / "lib"), seed=0,
                              episodes=200, out=str(tmp_path / "run"))
    assert runlog_sha256(config) == PPR_ENV1_SEED0


def test_softmax_select_draws_as_rng_choice():
    # softmax_select inverts the CDF itself; it must draw the slot rng.choice
    # would and leave the generator in the same state, or trajectories move.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=1 + seed % 7)
        temperature = float(rng.uniform(0.0, 20.0))
        twin = copy.deepcopy(rng)
        for _ in range(4):
            probs, slot = softmax_select(scores, temperature, rng)
            assert slot == int(twin.choice(scores.size, p=probs))
        assert rng.bit_generator.state == twin.bit_generator.state
