"""Spans around the calls into each layer of ``qasrl``, from outside.

``Tracer.install`` replaces each listed function with a wrapper at the
name its callers resolve: ``env.py`` imported ``apply_gate`` by name, so
the wrapper goes on ``qasrl.env.apply_gate``; methods are wrapped on
their class.  Each span records its layer, start, end, parent span and
the episode in progress when it opened.  Spans stay in memory in flat
arrays and are written out once, by ``save``.
"""

import importlib
from array import array
from time import perf_counter_ns

import numpy as np

# (layer metric prefix, "module" or "module:Class" whose attribute callers
# resolve, attribute name).  A layer called from several modules appears
# once per module; every wrapper of one layer records under one name.
TARGETS = (
    ("quantum.apply_gate", "qasrl.env", "apply_gate"),
    ("quantum.pauli_expectations", "qasrl.env", "pauli_expectations"),
    ("quantum.fidelity", "qasrl.env", "fidelity"),
    ("quantum.initial_state", "qasrl.env", "initial_state"),
    ("env.CircuitEnv.step", "qasrl.env:CircuitEnv", "step"),
    ("env.CircuitEnv.reset", "qasrl.env:CircuitEnv", "reset"),
    ("network.QNetwork.forward", "qasrl.network:QNetwork", "forward"),
    ("network.mse_loss_and_grad", "qasrl.dqn", "mse_loss_and_grad"),
    ("network.adam_step", "qasrl.dqn", "adam_step"),
    ("network.clone_parameters", "qasrl.dqn", "clone_parameters"),
    ("network.clone_parameters", "qasrl.ppr", "clone_parameters"),
    ("network.save_policy", "qasrl.experiments", "save_policy"),
    ("network.save_policy", "qasrl.ppr", "save_policy"),
    ("network.load_policy", "qasrl.experiments", "load_policy"),
    ("network.load_policy", "qasrl.ppr", "load_policy"),
    ("dqn.optimize", "qasrl.dqn", "optimize"),
    ("dqn.ReplayMemory.sample", "qasrl.dqn:ReplayMemory", "sample"),
    ("dqn.ReplayMemory.push", "qasrl.dqn:ReplayMemory", "push"),
    ("dqn.compute_targets", "qasrl.dqn", "compute_targets"),
    ("dqn.select_action_greedy", "qasrl.dqn", "select_action_greedy"),
    ("dqn.select_action_greedy", "qasrl.ppr", "select_action_greedy"),
    ("dqn.select_action_epsilon_greedy", "qasrl.dqn", "select_action_epsilon_greedy"),
    ("dqn.select_action_epsilon_greedy", "qasrl.ppr", "select_action_epsilon_greedy"),
    ("dqn.update_target", "qasrl.dqn", "update_target"),
    ("ppr.softmax_select", "qasrl.ppr", "softmax_select"),
    ("ppr.q_learning_episode", "qasrl.ppr", "q_learning_episode"),
    ("ppr.pi_exploration_episode", "qasrl.ppr", "pi_exploration_episode"),
    ("ppr.save_library", "qasrl.experiments", "save_library"),
    ("ppr.load_library", "qasrl.experiments", "load_library"),
    ("experiments.run_curriculum", "qasrl.experiments", "run_curriculum"),
    ("experiments.run_single", "qasrl.experiments", "run_single"),
    ("experiments.RunLog.to_csv", "qasrl.experiments:RunLog", "to_csv"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
_STAT_UNITS = {"calls": "count", "p50_us": "us", "p99_us": "us", "self_s": "s"}
# Counts kept next to the spans; Tracer.table defines them.
COUNTS = {
    "network.QNetwork.forward.rows": "count",
    "dqn.optimize.grad_steps": "count",
    "dqn.optimize.step_ratio": "ratio",
    "ppr.episodes": "count",
    "ppr.reuse_episodes": "count",
}
# Every per-layer metric and its unit.
METRICS = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in _STAT_UNITS.items()} | COUNTS

_EPISODE_LOOPS = (LAYERS.index("ppr.q_learning_episode"), LAYERS.index("ppr.pi_exploration_episode"))
_RESET = LAYERS.index("env.CircuitEnv.reset")
_FORWARD = LAYERS.index("network.QNetwork.forward")
_OPTIMIZE = LAYERS.index("dqn.optimize")


class Tracer:
    """Records one span per call into a wrapped layer."""

    def __init__(self):
        self.layer = array("h")
        self.parent = array("q")
        self.episode = array("q")
        self.start = array("q")
        self.end = array("q")
        self.forward_rows = 0
        self.grad_steps = 0
        self._open: list[int] = []
        self._episode = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for layer, owner_path, attr in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(LAYERS.index(layer), original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer: int, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else -1
            # A new episode starts in an episode loop of ppr, or at a reset
            # called outside one (the rollout workload loops over episodes itself).
            if layer in _EPISODE_LOOPS or (
                layer == _RESET and (parent < 0 or tracer.layer[parent] not in _EPISODE_LOOPS)
            ):
                tracer._episode += 1
            span = len(tracer.layer)
            tracer.layer.append(layer)
            tracer.parent.append(parent)
            tracer.episode.append(tracer._episode)
            tracer.end.append(0)
            tracer._open.append(span)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter_ns()
                tracer._open.pop()
            if layer == _FORWARD:
                tracer.forward_rows += 1 if np.ndim(args[1]) == 1 else len(args[1])
            elif layer == _OPTIMIZE and result is not None:
                tracer.grad_steps += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "episode": np.frombuffer(self.episode, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span as arrays, with the layer names they index."""
        np.savez_compressed(path, layer_names=np.array(LAYERS), **self.arrays())

    def table(self) -> dict[str, float]:
        """Per-layer metrics: calls, median and 99th-percentile call time,
        and self time (span time minus the time of its direct children);
        plus input rows through QNetwork.forward, gradient steps taken by
        optimize and their ratio to optimize calls, and episodes driven by
        ppr (all of them, and those steered by a past policy)."""
        spans = self.arrays()
        duration = spans["end_ns"] - spans["start_ns"]
        child = spans["parent"] >= 0
        children_ns = np.bincount(spans["parent"][child], weights=duration[child],
                                  minlength=len(duration))
        self_ns = duration - children_ns
        out = {}
        for index, layer in enumerate(LAYERS):
            mine = spans["layer"] == index
            calls = int(mine.sum())
            out[f"{layer}.calls"] = calls
            if calls:
                p50, p99 = np.percentile(duration[mine], [50, 99]) / 1e3
            else:
                p50 = p99 = 0.0
            out[f"{layer}.p50_us"] = float(p50)
            out[f"{layer}.p99_us"] = float(p99)
            out[f"{layer}.self_s"] = float(self_ns[mine].sum() / 1e9)
        optimize_calls = out["dqn.optimize.calls"]
        reuse = out["ppr.pi_exploration_episode.calls"]
        out["network.QNetwork.forward.rows"] = self.forward_rows
        out["dqn.optimize.grad_steps"] = self.grad_steps
        out["dqn.optimize.step_ratio"] = self.grad_steps / optimize_calls if optimize_calls else 0.0
        out["ppr.episodes"] = out["ppr.q_learning_episode.calls"] + reuse
        out["ppr.reuse_episodes"] = reuse
        return out
