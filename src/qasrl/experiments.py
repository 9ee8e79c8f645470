"""Experiment drivers: canned noisy environments, config files, runs, curriculum, plots.

The six numbered environments share the two-qubit Bell target and only
differ in which gates carry depolarizing error.  A curriculum trains
them in order, banking each trained policy into a library that later
environments reuse.
"""

import dataclasses
import os
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dqn import DQNConfig
from .env import CircuitEnv, EnvConfig
from .network import QNetwork, file_error, load_policy, save_policy, write_file
from .ppr import CSV_COLUMNS, PolicyLibrary, PPRConfig, RunLog, ppr_run, load_library, save_library
from .quantum import GateKind, NoiseSpec

# Gate error rates per environment id; readout error is 0.01 everywhere.
ENVIRONMENT_NOISE: dict[int, dict[GateKind, float]] = {
    0: {},
    1: {GateKind.PAULI_X: 0.01},
    2: {GateKind.PAULI_X: 0.01, GateKind.HADAMARD: 0.01},
    3: {GateKind.PAULI_X: 0.01, GateKind.CNOT: 0.01},
    4: {GateKind.PAULI_X: 0.005, GateKind.HADAMARD: 0.005, GateKind.CNOT: 0.005},
    5: {GateKind.PAULI_X: 0.01, GateKind.HADAMARD: 0.01, GateKind.CNOT: 0.005},
}


def build_environment(env_id: int) -> EnvConfig:
    """EnvConfig for one of the numbered noise settings: ``ExperimentConfig``'s default for ``env_id``."""
    return ExperimentConfig(env_id=env_id).env_config()


@dataclass
class ExperimentConfig:
    """Flat, file-round-trippable description of one run.

    ``env_id`` picks a row of the noise table; individual ``error_*``
    fields override single gates when set.  Serializes to key = value
    lines; "none" stands for None.  Defaults are those of the configs
    the fields feed.
    """

    # the run, mapped by hand; episodes feeds PPRConfig
    env_id: int = 0
    mode: str = "from_scratch"
    library: str | None = None
    seed: int = 0
    episodes: int = PPRConfig.episodes
    out: str = "runs/latest"
    # EnvConfig, meas_error and error_* through its NoiseSpec
    fidelity_threshold: float = EnvConfig.fidelity_threshold
    max_steps: int = EnvConfig.max_steps
    step_penalty: float = EnvConfig.step_penalty
    meas_error: float = 0.01
    error_rot_pi4: float | None = None
    error_x: float | None = None
    error_y: float | None = None
    error_z: float | None = None
    error_h: float | None = None
    error_cnot: float | None = None
    # DQNConfig, hidden1 and hidden2 as its hidden_sizes, but target_update_period feeds PPRConfig
    gamma: float = DQNConfig.gamma
    batch_size: int = DQNConfig.batch_size
    min_replay: int = DQNConfig.min_replay
    replay_capacity: int = DQNConfig.replay_capacity
    target_update_period: int = PPRConfig.target_update_period
    learning_rate: float = DQNConfig.learning_rate
    adam_beta1: float = DQNConfig.adam_beta1
    adam_beta2: float = DQNConfig.adam_beta2
    hidden1: int = DQNConfig.hidden_sizes[0]
    hidden2: int = DQNConfig.hidden_sizes[1]
    # PPRConfig: slot 0's exploration, then the reuse schedule
    epsilon_start: float = PPRConfig.epsilon_start
    epsilon_decay: float = PPRConfig.epsilon_decay
    epsilon_min: float = PPRConfig.epsilon_min
    temperature_init: float = PPRConfig.temperature_init
    temperature_step: float = PPRConfig.temperature_step
    follow_prob: float = PPRConfig.follow_prob
    follow_decay: float = PPRConfig.follow_decay
    _PATHS = ("library", "out")  # a config file names these relative to its own directory

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if not self.out:
            raise ValueError("out must name the output directory, got ''")
        if self.mode not in ("from_scratch", "ppr"):
            raise ValueError(f"mode must be from_scratch or ppr, got {self.mode!r}")
        if self.mode == "ppr" and not self.library:
            raise ValueError("ppr mode needs --library pointing at a policy library")
        if self.mode == "from_scratch" and self.library:
            raise ValueError("from_scratch mode does not take a library")
        # Building the run's configs here makes every range check fire when this config is made.
        self.env_config()
        self.ppr_config()

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {'none' if value is None else value}")
        return "\n".join(lines) + "\n"

    def to_file(self, path) -> None:
        """to_text, with ``library`` and ``out`` named relative to the file's directory."""
        paths = {name: os.path.relpath(value, Path(path).parent) for name in self._PATHS if (value := vars(self)[name])}
        write_file(path, dataclasses.replace(self, **paths).to_text().encode("utf-8"))

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
        values, line_of = {}, {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not key = value: {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in fields_by_name:
                raise ValueError(f"unknown config key {key!r}")
            if key in line_of:
                raise ValueError(f"config line {lineno} ({key}): key already given on line {line_of[key]}")
            line_of[key] = lineno
            try:
                values[key] = _parse_value(raw, fields_by_name[key].type)
            except ValueError as exc:
                raise ValueError(f"config line {lineno} ({key}): {exc}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """from_text on a file's content, ``library`` and ``out`` taken relative to the file; errors name the file."""
        try:
            config = cls.from_text(Path(path).read_text())
        except ValueError as exc:
            raise file_error(path, exc) from None
        where = os.path.dirname(path)
        return dataclasses.replace(config, **{name: os.path.normpath(os.path.join(where, value))
                                              for name in cls._PATHS if (value := vars(config)[name])})

    def env_config(self) -> EnvConfig:
        """The numbered environment's noise table row with this config's
        ``error_*`` overrides over it, its ``meas_error`` and environment fields."""
        if self.env_id not in ENVIRONMENT_NOISE:
            raise ValueError(f"unknown environment id {self.env_id}; choose 0..{len(ENVIRONMENT_NOISE) - 1}")
        overrides = {kind: p for kind in GateKind if (p := getattr(self, f"error_{kind.value}")) is not None}
        noise = NoiseSpec({**ENVIRONMENT_NOISE[self.env_id], **overrides}, self.meas_error)
        return EnvConfig(noise=noise, **self._shared_with(EnvConfig))

    def ppr_config(self) -> PPRConfig:
        dqn = DQNConfig(hidden_sizes=(self.hidden1, self.hidden2), **self._shared_with(DQNConfig))
        return PPRConfig(use_epsilon_greedy=(self.mode == "from_scratch"), dqn=dqn,
                         **self._shared_with(PPRConfig))

    def _shared_with(self, config_class) -> dict:
        """This config's values for the fields ``config_class`` has under the same name."""
        return {f.name: vars(self)[f.name] for f in dataclasses.fields(config_class)
                if f.name in vars(self)}


def _parse_value(raw: str, ftype):
    if isinstance(ftype, types.UnionType):  # X | None: "none" or an X
        if raw.lower() == "none":
            return None
        ftype = next(a for a in typing.get_args(ftype) if a is not type(None))
    return ftype(raw)


def run_single(config: ExperimentConfig, library: PolicyLibrary | None = None) -> tuple[RunLog, QNetwork]:
    """Execute one run, write runlog.csv, policy.qnet and config.txt under config.out and
    return (log, policy); a ppr run reuses ``library``, by default the one at config.library,
    and is refused if it holds no policy."""
    if library is None:
        library = load_library(config.library) if config.library else PolicyLibrary()
    if config.mode == "ppr" and not library:
        raise ValueError(f"{Path(config.library) / 'manifest.json'}: library holds no policy to reuse")
    env = CircuitEnv(config.env_config())
    result = ppr_run(env, library, config.ppr_config(), np.random.default_rng(config.seed))
    out = Path(config.out)
    result.log.to_csv(out / "runlog.csv")
    save_policy(result.policy, out / "policy.qnet")
    config.to_file(out / "config.txt")
    return result.log, result.policy


def run_curriculum(seed: int, output_dir, episodes: int = ExperimentConfig.episodes) -> list[tuple[int, RunLog]]:
    """Train environments 0..5 in order, then save all six policies to ``library/``.

    Env 0 trains from scratch; later ones reuse the library built so far,
    held in memory, and first save it to their own ``library/`` directory,
    which their config.txt names, so that file reruns the stage.  A stage
    whose config.txt exists, which run_single writes last, is done: once that
    file shows this seed and episode count, its log and policy are read back
    from runlog.csv, at 12 significant digits, and policy.qnet, and that log
    must hold episodes 1..episodes.
    """
    ExperimentConfig(seed=seed, episodes=episodes, out=str(output_dir))  # the checks and messages of qasrl run
    out = Path(output_dir)
    library = PolicyLibrary()
    logs = []
    for env_id in sorted(ENVIRONMENT_NOISE):
        env_out = out / f"env{env_id}"
        config_path = env_out / "config.txt"
        config = ExperimentConfig(
            env_id=env_id,
            mode="from_scratch" if env_id == 0 else "ppr",
            library=str(env_out / "library") if env_id > 0 else None,
            seed=seed * 1000 + env_id,
            episodes=episodes,
            out=str(env_out),
        )
        if config_path.exists():
            done = ExperimentConfig.from_file(config_path)
            if (done.seed, done.episodes) != (config.seed, config.episodes):
                raise ValueError(f"{config_path}: ran with seed {done.seed} and {done.episodes} episodes, "
                                 f"not the seed {config.seed} and {config.episodes} episodes asked for; "
                                 "delete the output directory to start over")
            log, policy = RunLog.from_csv(env_out / "runlog.csv"), load_policy(env_out / "policy.qnet")
            if [row.episode for row in log] != list(range(1, config.episodes + 1)):
                raise ValueError(f"{env_out / 'runlog.csv'}: does not hold episodes 1 to {config.episodes} "
                                 f"of {config_path}; delete the output directory to start over")
        else:
            if config.library:
                save_library(library, config.library)
            log, policy = run_single(config, library)
        library.append(policy, f"env-{env_id}")
        logs.append((env_id, log))
    save_library(library, out / "library")
    return logs


PLOT_WIDTH, PLOT_HEIGHT = 800, 450
SCORE_RGB = (160, 196, 232)    # pale blue: per-episode score
ROLLING_RGB = (230, 110, 20)   # orange: rolling mean
_FRAME_MARGIN = 20             # pixels between the image edge and the axis frame
_FRAME_INSET = 3               # pixels between the frame and the data; keeps 2-px lines inside


def emit_plot(log: RunLog, image_path, window: int = 50):
    """Write an SVG score plot and its rolling-mean CSV, named like it with suffix .rolling.csv.

    The plot is PLOT_WIDTH x PLOT_HEIGHT px: a white background, a black
    frame spanning the episode and score ranges, and two polylines with one
    point per episode at 0.1 px, the scores in SCORE_RGB and their trailing
    ``window`` mean, thicker, in ROLLING_RGB; equal logs give equal bytes.
    No tick labels: the exact values are in the rolling CSV.  Returns
    (rolling_csv_path, image_path).  Raises ValueError, before writing, if
    image_path does not end in .svg or a score is not finite.
    """
    image_path = Path(image_path)
    if image_path.suffix.lower() != ".svg":
        raise ValueError(f"{image_path}: the score plot is written as SVG only; use a .svg file name")
    scores = log.scores()
    if not np.isfinite(scores).all():
        raise ValueError("cannot plot a run log with non-finite scores")
    rolling_csv_path = image_path.with_suffix(".rolling.csv")
    rolling = log.rolling_mean(window)
    lines = ["episode,score_rolling_mean", *(f"{row.episode},{value:.12g}" for row, value in zip(log, rolling))]
    write_file(rolling_csv_path, ("\n".join(lines) + "\n").encode("utf-8"))

    top, left = _FRAME_MARGIN, _FRAME_MARGIN
    bottom, right = PLOT_HEIGHT - 1 - _FRAME_MARGIN, PLOT_WIDTH - 1 - _FRAME_MARGIN
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" height="{PLOT_HEIGHT}">',
           '<rect width="100%" height="100%" fill="white"/>',
           # Half-pixel offsets put the 1-px frame on whole pixels.
           f'<rect x="{left + 0.5}" y="{top + 0.5}" width="{right - left}" height="{bottom - top}" '
           'fill="none" stroke="black"/>']
    if len(log):
        episodes = np.array([row.episode for row in log], dtype=float)
        px = _to_pixels(episodes, episodes.min(), episodes.max(),
                        left + _FRAME_INSET, right - _FRAME_INSET).tolist()
        # y grows downwards, so the score range maps onto bottom..top.
        y_range = (scores.min(), scores.max(), bottom - _FRAME_INSET, top + _FRAME_INSET)
        for values, rgb, width in ((scores, SCORE_RGB, 1), (rolling, ROLLING_RGB, 2)):
            points = [f"{x:.1f},{y:.1f}" for x, y in zip(px, _to_pixels(values, *y_range).tolist())]
            if len(points) == 1:  # a zero-length segment, which round caps draw as a dot
                points *= 2
            svg.append(f'<polyline points="{" ".join(points)}" fill="none" stroke="rgb{rgb}" '
                       f'stroke-width="{width}" stroke-linecap="round" stroke-linejoin="round"/>')
    svg.append("</svg>")
    write_file(image_path, ("\n".join(svg) + "\n").encode("utf-8"))
    return rolling_csv_path, image_path


def _to_pixels(values: np.ndarray, lo: float, hi: float, start: float, stop: float) -> np.ndarray:
    """Map [lo, hi] linearly onto start..stop; a zero-width range maps to the middle.
    Halves keep hi - lo finite for any finite bounds; halving a normal float is exact."""
    if hi / 2 == lo / 2:
        return np.full(len(values), (start + stop) / 2)
    return start + (values / 2 - lo / 2) * ((stop - start) / (hi / 2 - lo / 2))
