"""Golden trajectories: the exact bytes of ``runlog.csv`` for two short fixed
runs, and of the default ``config.txt``.

A refactor that keeps the numerics keeps these checksums.  A change that
alters the numerics on purpose records the new checksums here and says
why in CHANGES.md.

The pins hold on numpy's bundled OpenBLAS (0.3.31) under its SkylakeX,
Haswell and Zen kernels.  The kernels without fused multiply-add,
Sandybridge and Prescott (``OPENBLAS_CORETYPE``), round their products
otherwise, so ``test_from_scratch_run`` has a second pin for them, chosen
when ``bench_record.blas_core()`` names one of them; every other kernel,
one it cannot name included, is held to the first.
``test_from_scratch_run_without_fma`` reruns that config under the
Sandybridge kernel and checks what holds on any kernel: the episode
count, finite scores, and a saved policy that solves env 3.
``test_learner_bits_under_haswell`` reruns the learner's bit-for-bit tests
under the Haswell kernel, where a row's bits depend on a product's row count,
and ``test_learner_bits_under_sandybridge`` under the Sandybridge kernel.
"""

import copy
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qasrl
from conftest import bell_solver_network
from test_bench_record import bench_record
from qasrl.dqn import select_action_greedy
from qasrl.env import CircuitEnv
from qasrl.experiments import ExperimentConfig, RunLog, run_single
from qasrl.network import load_policy
from qasrl.ppr import PolicyLibrary, save_library, softmax_select

DEFAULT_CONFIG_TXT = "96e2e124b2bcbc54033fbd7958bf2dad6908f9024687ee108d86730e75209f7a"
SCRATCH_ENV3_SEED0 = "3939ac37b5f0333e4dd54399d16b8c88da061600939b32d284b7f73f7da0b643"
SCRATCH_ENV3_SEED0_WITHOUT_FMA = "303e25b3b311f89af1ab16c880c8b0f2eb40f82129250d5fdad26e8fe0853e38"
# The kernels without fused multiply-add, as blas_core() names them; it calls Prescott Katmai.
PRE_FMA_KERNELS = ("Sandybridge", "Katmai")
PPR_ENV1_SEED0 = "cd046cf878cda98b2526fae66238d8ce0e520925df9c6dbbe41f0ef2a0c2fecc"


def runlog_sha256(config: ExperimentConfig) -> str:
    run_single(config)
    return hashlib.sha256((Path(config.out) / "runlog.csv").read_bytes()).hexdigest()


def test_from_scratch_run(tmp_path):
    config = ExperimentConfig(env_id=3, seed=0, episodes=200, out=str(tmp_path / "run"))
    pin = SCRATCH_ENV3_SEED0_WITHOUT_FMA if bench_record.blas_core() in PRE_FMA_KERNELS else SCRATCH_ENV3_SEED0
    assert runlog_sha256(config) == pin


def blas_kernel_environment(kernel: str) -> dict:
    """This process's environment with OpenBLAS forced onto ``kernel``, one BLAS thread, and qasrl importable."""
    return dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join([str(Path(qasrl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def test_from_scratch_run_without_fma(tmp_path):
    """test_from_scratch_run's config in a process on OpenBLAS's Sandybridge
    kernel, which has no fused multiply-add, with one BLAS thread.  Its run
    must be whole and its policy must still solve env 3 greedily; where the
    process reports that kernel (off x86 OpenBLAS ignores the setting), its
    bytes must also be the pre-FMA pin."""
    out = tmp_path / "run"
    env = blas_kernel_environment("Sandybridge")
    script = ("import runpy, sys; from qasrl.experiments import ExperimentConfig, run_single; "
              "run_single(ExperimentConfig(env_id=3, seed=0, episodes=200, out=sys.argv[1])); "
              "print(runpy.run_path(sys.argv[2])['blas_core']())")
    kernel = subprocess.run([sys.executable, "-c", script, str(out), bench_record.__file__], env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    if kernel == "Sandybridge":
        assert hashlib.sha256((out / "runlog.csv").read_bytes()).hexdigest() == SCRATCH_ENV3_SEED0_WITHOUT_FMA
    scores = RunLog.from_csv(out / "runlog.csv").scores()
    assert len(scores) == 200 and np.isfinite(scores).all()
    policy, circuit = load_policy(out / "policy.qnet"), CircuitEnv(ExperimentConfig(env_id=3).env_config())
    observation, step = circuit.reset(), None
    while step is None or not step.done:
        step = circuit.step(select_action_greedy(policy, observation))
        observation = step.observation
    assert step.fidelity >= circuit.config.fidelity_threshold


def run_learner_bit_tests(kernel: str) -> None:
    """The target-value and agent tests of test_dqn.py and the bit-for-bit
    tests of test_network.py in a process on OpenBLAS's ``kernel``, with one
    BLAS thread; each compares the learner's products with plain ``@``
    formulas at batch sizes 1, 63, 64 and random."""
    if bench_record.blas_core() == "unknown":
        pytest.skip("this numpy's BLAS does not name its kernel")
    tests = Path(__file__).parent
    for path, selection in (("test_dqn.py", "TestTargetValues or TestAgent"),
                            ("test_network.py", "TestBitIdenticalToPlainFormulas")):
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", path, "-k", selection],
                              cwd=tests, env=blas_kernel_environment(kernel), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_learner_bits_under_haswell():
    """run_learner_bit_tests on the Haswell kernel, which OpenBLAS also runs
    on Zen.  There the last row of a product with an odd row count of 3 or
    more gets other bits than in a full product, so these pass only if every
    target value comes from a product of the workspace's rows."""
    run_learner_bit_tests("Haswell")


def test_learner_bits_under_sandybridge():
    """run_learner_bit_tests on the Sandybridge kernel, which has no fused
    multiply-add: every product shape of ``forward`` and the backward pass
    must give the bits of ``@`` there too, not only on the FMA kernels."""
    run_learner_bit_tests("Sandybridge")


def test_ppr_stage_with_one_policy_library(tmp_path):
    library = PolicyLibrary()
    library.append(bell_solver_network(), "env-0")
    save_library(library, tmp_path / "lib")
    config = ExperimentConfig(env_id=1, mode="ppr", library=str(tmp_path / "lib"), seed=0,
                              episodes=200, out=str(tmp_path / "run"))
    assert runlog_sha256(config) == PPR_ENV1_SEED0


def test_default_config_file(tmp_path, monkeypatch):
    """Written in the working directory, so its cwd-relative out keeps its text."""
    monkeypatch.chdir(tmp_path)
    ExperimentConfig().to_file("config.txt")
    assert hashlib.sha256((tmp_path / "config.txt").read_bytes()).hexdigest() == DEFAULT_CONFIG_TXT


def test_softmax_select_draws_as_rng_choice():
    # softmax_select must draw the slot rng.choice draws and leave the
    # generator in the same state, or trajectories move.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=1 + seed % 7)
        temperature = float(rng.uniform(0.0, 20.0))
        twin = copy.deepcopy(rng)
        for _ in range(4):
            probs, slot = softmax_select(scores, temperature, rng)
            assert slot == int(twin.choice(scores.size, p=probs))
        assert rng.bit_generator.state == twin.bit_generator.state
