"""Experiment drivers: canned noisy environments, run logs, curriculum.

The six numbered environments share the two-qubit Bell target and only
differ in which gates carry depolarizing error.  A curriculum trains
them in order, banking each trained policy into a library that later
environments reuse.
"""

import dataclasses
import struct
import types
import typing
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dqn import DQNConfig
from .env import CircuitEnv, EnvConfig
from .network import load_policy, save_policy
from .ppr import PolicyLibrary, PPRConfig, ppr_run, load_library, save_library
from .quantum import GateKind, NoiseSpec, bell_state

# Gate error rates per environment id; readout error is 0.01 everywhere.
ENVIRONMENT_NOISE: dict[int, dict[GateKind, float]] = {
    0: {},
    1: {GateKind.PAULI_X: 0.01},
    2: {GateKind.PAULI_X: 0.01, GateKind.HADAMARD: 0.01},
    3: {GateKind.PAULI_X: 0.01, GateKind.CNOT: 0.01},
    4: {GateKind.PAULI_X: 0.005, GateKind.HADAMARD: 0.005, GateKind.CNOT: 0.005},
    5: {GateKind.PAULI_X: 0.01, GateKind.HADAMARD: 0.01, GateKind.CNOT: 0.005},
}

MEAS_ERROR = 0.01


def build_environment(env_id: int, meas_error: float = MEAS_ERROR,
                      fidelity_threshold: float = 0.95, max_steps: int = 20,
                      step_penalty: float = 0.01) -> EnvConfig:
    """EnvConfig for one of the numbered noise settings, Bell target."""
    if env_id not in ENVIRONMENT_NOISE:
        raise ValueError(f"unknown environment id {env_id}; choose 0..{len(ENVIRONMENT_NOISE) - 1}")
    noise = NoiseSpec(gate_error=dict(ENVIRONMENT_NOISE[env_id]), meas_error=meas_error)
    return EnvConfig(
        n_qubits=2,
        target=bell_state(),
        noise=noise,
        fidelity_threshold=fidelity_threshold,
        max_steps=max_steps,
        step_penalty=step_penalty,
    )


@dataclass
class ExperimentConfig:
    """Flat, file-round-trippable description of one run.

    ``env_id`` picks a row of the noise table; individual ``error_*``
    fields override single gates when set.  Serializes to key = value
    lines; "none" stands for None.
    """

    env_id: int = 0
    mode: str = "from_scratch"
    library: str | None = None
    seed: int = 0
    episodes: int = 1000
    out: str = "runs/latest"
    # environment
    fidelity_threshold: float = 0.95
    max_steps: int = 20
    step_penalty: float = 0.01
    meas_error: float = 0.01
    error_rot_pi4: float | None = None
    error_x: float | None = None
    error_y: float | None = None
    error_z: float | None = None
    error_h: float | None = None
    error_cnot: float | None = None
    # q-learning
    gamma: float = 0.70
    batch_size: int = 64
    min_replay: int = 64
    replay_capacity: int = 10_000
    target_update_period: int = 10
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    hidden1: int = 64
    hidden2: int = 64
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.02
    # policy reuse
    temperature_init: float = 0.0
    temperature_step: float = 0.01
    follow_prob: float = 1.0
    follow_decay: float = 0.95

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {'none' if value is None else value}")
        return "\n".join(lines) + "\n"

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
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
            values[key] = _parse_value(raw, fields_by_name[key].type)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())

    def gate_errors(self) -> dict[GateKind, float]:
        errors = dict(ENVIRONMENT_NOISE[self.env_id]) if self.env_id in ENVIRONMENT_NOISE else {}
        if self.env_id not in ENVIRONMENT_NOISE:
            raise ValueError(f"unknown environment id {self.env_id}")
        overrides = {
            GateKind.ROT_PI4: self.error_rot_pi4,
            GateKind.PAULI_X: self.error_x,
            GateKind.PAULI_Y: self.error_y,
            GateKind.PAULI_Z: self.error_z,
            GateKind.HADAMARD: self.error_h,
            GateKind.CNOT: self.error_cnot,
        }
        for kind, p in overrides.items():
            if p is not None:
                errors[kind] = p
        return {kind: p for kind, p in errors.items() if p > 0.0}

    def env_config(self) -> EnvConfig:
        return EnvConfig(
            n_qubits=2,
            target=bell_state(),
            noise=NoiseSpec(gate_error=self.gate_errors(), meas_error=self.meas_error),
            fidelity_threshold=self.fidelity_threshold,
            max_steps=self.max_steps,
            step_penalty=self.step_penalty,
        )

    def ppr_config(self) -> PPRConfig:
        if self.mode not in ("from_scratch", "ppr"):
            raise ValueError(f"mode must be from_scratch or ppr, got {self.mode!r}")
        dqn = DQNConfig(
            gamma=self.gamma,
            batch_size=self.batch_size,
            min_replay=self.min_replay,
            replay_capacity=self.replay_capacity,
            target_update_period=self.target_update_period,
            learning_rate=self.learning_rate,
            adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2,
            hidden_sizes=(self.hidden1, self.hidden2),
            epsilon_start=self.epsilon_start,
            epsilon_decay=self.epsilon_decay,
            epsilon_min=self.epsilon_min,
        )
        return PPRConfig(
            episodes=self.episodes,
            temperature_init=self.temperature_init,
            temperature_step=self.temperature_step,
            follow_prob=self.follow_prob,
            follow_decay=self.follow_decay,
            use_epsilon_greedy=(self.mode == "from_scratch"),
            dqn=dqn,
        )


def _parse_value(raw: str, ftype):
    if raw.lower() == "none":
        return None
    base = ftype
    if isinstance(ftype, types.UnionType):
        args = [a for a in typing.get_args(ftype) if a is not type(None)]
        base = args[0]
    if base is bool:
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ValueError(f"expected true/false, got {raw!r}")
    return base(raw)


CSV_COLUMNS = ("episode", "score", "steps", "fidelity", "policy_index", "temperature")
_INT_COLUMNS = {"episode", "steps", "policy_index"}


@dataclass(frozen=True)
class RunRow:
    episode: int
    score: float
    steps: int
    fidelity: float
    policy_index: int
    temperature: float
    wall_clock_ms: float = 0.0


class RunLog:
    """Per-episode results of one run, CSV round-trippable.

    The CSV carries the deterministic columns only (floats at 12
    significant digits), so identical seed and config give identical
    bytes; wall-clock timing stays in memory.
    """

    def __init__(self, rows):
        self.rows: list[RunRow] = list(rows)

    @classmethod
    def from_entries(cls, entries) -> "RunLog":
        return cls(
            RunRow(e.episode, e.score, e.steps, e.fidelity, e.policy_index,
                   e.temperature, e.wall_clock_ms)
            for e in entries
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunLog):
            return NotImplemented
        return self.rows == other.rows

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.rows])

    def to_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                value = getattr(row, col)
                cells.append(str(value) if col in _INT_COLUMNS else format(value, ".12g"))
            lines.append(",".join(cells))
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        lines = Path(path).read_text().splitlines()
        if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
            raise ValueError(f"{path} is not a run log (bad header)")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {lineno}: {len(cells)} cells, expected {len(CSV_COLUMNS)}")
            rows.append(RunRow(*(int(cell) if col in _INT_COLUMNS else float(cell)
                                 for col, cell in zip(CSV_COLUMNS, cells))))
        return cls(rows)

    def rolling_mean(self, window: int = 50) -> np.ndarray:
        """Trailing mean per episode; early episodes average what exists."""
        scores = self.scores()
        sums = np.cumsum(np.concatenate(([0.0], scores)))
        idx = np.arange(len(scores))
        lo = np.maximum(idx - window + 1, 0)
        return (sums[idx + 1] - sums[lo]) / (idx + 1 - lo)


def run_single(config: ExperimentConfig) -> RunLog:
    """Execute one run and write runlog.csv, policy.qnet and config.txt
    under config.out."""
    env = CircuitEnv(config.env_config(), seed=config.seed)
    if config.mode == "ppr":
        if not config.library:
            raise ValueError("ppr mode needs --library pointing at a policy library")
        library = load_library(config.library)
    else:
        if config.library:
            raise ValueError("from_scratch mode does not take a library")
        library = PolicyLibrary()
    result = ppr_run(env, library, config.ppr_config(), np.random.default_rng(config.seed))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    log = RunLog.from_entries(result.log)
    log.to_csv(out / "runlog.csv")
    save_policy(result.policy, out / "policy.qnet")
    config.to_file(out / "config.txt")
    return log


def run_curriculum(seed: int, output_dir, episodes: int = 1000,
                   resume: bool = False) -> list[tuple[int, RunLog]]:
    """Train environments 0..5 in order, banking each policy.

    Env 0 trains from scratch; later environments reuse the library
    built so far.  With ``resume=True``, environments whose policy and
    run log already exist are skipped.
    """
    out = Path(output_dir)
    library_dir = out / "library"
    if resume and (library_dir / "manifest.json").exists():
        library = load_library(library_dir)
    else:
        library = PolicyLibrary()
    logs = []
    for env_id in sorted(ENVIRONMENT_NOISE):
        tag = f"env-{env_id}"
        env_out = out / f"env{env_id}"
        runlog_path = env_out / "runlog.csv"
        if resume and tag in library.tags:
            if not runlog_path.exists():
                raise RuntimeError(
                    f"library holds {tag} but {runlog_path} is missing; "
                    "delete the output directory to restart"
                )
            logs.append((env_id, RunLog.from_csv(runlog_path)))
            continue
        config = ExperimentConfig(
            env_id=env_id,
            mode="from_scratch" if env_id == 0 else "ppr",
            library=str(library_dir) if env_id > 0 else None,
            seed=seed * 1000 + env_id,
            episodes=episodes,
            out=str(env_out),
        )
        log = run_single(config)
        library.append(load_policy(env_out / "policy.qnet"), tag)
        save_library(library, library_dir)
        logs.append((env_id, log))
    return logs


PLOT_WIDTH, PLOT_HEIGHT = 800, 450
SCORE_RGB = (160, 196, 232)    # pale blue: per-episode score
ROLLING_RGB = (230, 110, 20)   # orange: rolling mean
_FRAME_MARGIN = 20             # pixels between the image edge and the axis frame
_FRAME_INSET = 3               # pixels between the frame and the data; keeps 2-px lines inside


def emit_plot(log: RunLog, image_path, rolling_csv_path=None, window: int = 50):
    """Write the rolling-mean CSV and a PNG score plot.

    The plot is a PLOT_WIDTH x PLOT_HEIGHT RGB image: a white background,
    a black axis frame spanning the episode and score ranges, the episode
    scores as a SCORE_RGB polyline and their trailing ``window`` mean as
    a thicker ROLLING_RGB polyline.  It carries no tick labels; the exact
    values are in the rolling CSV.  Returns (rolling_csv_path, image_path).
    Raises ValueError if image_path does not end in .png or a score is
    not finite.
    """
    image_path = Path(image_path)
    if image_path.suffix.lower() != ".png":
        raise ValueError(f"{image_path}: the score plot is written as PNG only; use a .png file name")
    scores = log.scores()
    if not np.isfinite(scores).all():
        raise ValueError("cannot plot a run log with non-finite scores")
    if rolling_csv_path is None:
        rolling_csv_path = image_path.with_suffix(".rolling.csv")
    rolling_csv_path = Path(rolling_csv_path)
    rolling = log.rolling_mean(window)
    lines = ["episode,score_rolling_mean"]
    lines += [
        f"{row.episode},{format(value, '.12g')}"
        for row, value in zip(log.rows, rolling)
    ]
    rolling_csv_path.parent.mkdir(parents=True, exist_ok=True)
    rolling_csv_path.write_text("\n".join(lines) + "\n")

    canvas = np.full((PLOT_HEIGHT, PLOT_WIDTH, 3), 255, dtype=np.uint8)
    top, left = _FRAME_MARGIN, _FRAME_MARGIN
    bottom, right = PLOT_HEIGHT - 1 - _FRAME_MARGIN, PLOT_WIDTH - 1 - _FRAME_MARGIN
    canvas[top:bottom + 1, [left, right]] = 0
    canvas[[top, bottom], left:right + 1] = 0
    if len(log):
        episodes = np.array([row.episode for row in log.rows], dtype=float)
        px = _to_pixels(episodes, episodes.min(), episodes.max(),
                        left + _FRAME_INSET, right - _FRAME_INSET)
        # Rows grow downwards, so the score range maps onto bottom..top.
        y_range = (scores.min(), scores.max(), bottom - _FRAME_INSET, top + _FRAME_INSET)
        _draw_polyline(canvas, px, _to_pixels(scores, *y_range), SCORE_RGB, 1)
        _draw_polyline(canvas, px, _to_pixels(rolling, *y_range), ROLLING_RGB, 2)
    image_path.parent.mkdir(parents=True, exist_ok=True)
    image_path.write_bytes(_encode_png(canvas))
    return rolling_csv_path, image_path


def _to_pixels(values: np.ndarray, lo: float, hi: float, start: float, stop: float) -> np.ndarray:
    """Map [lo, hi] linearly onto start..stop; a zero-width range maps to the middle.
    Halves keep hi - lo finite for any finite bounds; halving a normal float is exact."""
    if hi / 2 == lo / 2:
        return np.full(len(values), (start + stop) / 2)
    return start + (values / 2 - lo / 2) * ((stop - start) / (hi / 2 - lo / 2))


def _draw_polyline(canvas: np.ndarray, px: np.ndarray, py: np.ndarray, rgb, thickness: int) -> None:
    """Colour the pixels along the segments joining consecutive (px, py)
    points, ``thickness`` rows tall.  Each segment is sampled once per
    pixel of its longer side, all segments in one vectorised pass."""
    # A trailing zero-length segment closes the list, so one point still draws.
    dx = np.append(np.diff(px), 0.0)
    dy = np.append(np.diff(py), 0.0)
    counts = np.ceil(np.maximum(np.abs(dx), np.abs(dy))).astype(int) + 1
    segment = np.repeat(np.arange(len(px)), counts)
    position = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    t = position / np.maximum(counts - 1, 1)[segment]
    cols = np.rint(px[segment] + t * dx[segment]).astype(int)
    rows = np.rint(py[segment] + t * dy[segment]).astype(int)
    for offset in range(thickness):
        canvas[rows + offset, cols] = rgb


def _encode_png(rgb: np.ndarray) -> bytes:
    """8-bit RGB PNG of an (height, width, 3) uint8 array.  It holds only
    IHDR, IDAT and IEND, so equal pixels always give equal bytes."""
    height, width, _ = rgb.shape
    raw = np.zeros((height, 1 + 3 * width), dtype=np.uint8)  # leading 0: filter type None
    raw[:, 1:] = rgb.reshape(height, 3 * width)

    def chunk(kind: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw.tobytes()))
            + chunk(b"IEND", b""))
