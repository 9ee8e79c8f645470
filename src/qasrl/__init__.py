"""Quantum circuit architecture search with deep Q-learning and policy reuse."""

from .quantum import (
    GateAction,
    GateKind,
    NoiseSpec,
    TargetState,
    apply_gate,
    bell_state,
    density_matrix,
    fidelity,
    initial_state,
    pauli_coordinates,
    pauli_expectations,
)
from .env import CircuitEnv, EnvConfig, EpisodeRecord, StepResult, enumerate_actions
from .network import (AdamState, QNetwork, Workspace, adam_step, clone_parameters, load_policy,
                      mse_loss_and_grad, save_policy)
from .dqn import (
    DQNAgent,
    DQNConfig,
    ReplayMemory,
    compute_targets,
    optimize,
    select_action_epsilon_greedy,
    select_action_greedy,
    update_target,
)
from .ppr import (
    PolicyLibrary,
    PPRConfig,
    PPRRunResult,
    ReuseStats,
    RunLog,
    load_library,
    pi_exploration_episode,
    ppr_run,
    q_learning_episode,
    save_library,
    softmax_select,
)
from .experiments import (
    ENVIRONMENT_NOISE,
    ExperimentConfig,
    build_environment,
    emit_plot,
    run_curriculum,
    run_single,
)

__version__ = "0.1.0"
