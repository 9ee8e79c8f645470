"""Experiment harness tests: noise schedule, config round-trips, run
artifacts, determinism, curriculum resume, the SVG score plot, and the
CLI entry point."""

import dataclasses
import itertools
import os
import re
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qasrl.experiments
import qasrl.ppr
from conftest import bell_solver_network, poison_agents
from qasrl.cli import main
from qasrl.dqn import DQNConfig
from qasrl.env import CircuitEnv, EnvConfig
from qasrl.experiments import (
    CSV_COLUMNS,
    ENVIRONMENT_NOISE,
    PLOT_HEIGHT,
    PLOT_WIDTH,
    ROLLING_RGB,
    SCORE_RGB,
    ExperimentConfig,
    RunLog,
    build_environment,
    emit_plot,
    run_curriculum,
    run_single,
)
from qasrl.network import write_file
from qasrl.ppr import PolicyLibrary, PPRConfig, RunRow, load_library, ppr_run, save_library
from qasrl.quantum import GateKind


class TestNoiseSchedule:
    def test_stage_zero_is_gate_noise_free(self):
        config = build_environment(0)
        assert config.noise.gate_error == {}
        assert config.noise.meas_error == 0.01

    def test_stage_table(self):
        x, h, cx = GateKind.PAULI_X, GateKind.HADAMARD, GateKind.CNOT
        assert ENVIRONMENT_NOISE[1] == {x: 0.01}
        assert ENVIRONMENT_NOISE[2] == {x: 0.01, h: 0.01}
        assert ENVIRONMENT_NOISE[3] == {x: 0.01, cx: 0.01}
        assert ENVIRONMENT_NOISE[4] == {x: 0.005, h: 0.005, cx: 0.005}
        assert ENVIRONMENT_NOISE[5] == {x: 0.01, h: 0.01, cx: 0.005}

    def test_every_stage_keeps_readout_error(self):
        for env_id in range(6):
            assert build_environment(env_id).noise.meas_error == 0.01

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError):
            build_environment(6)
        with pytest.raises(ValueError):
            build_environment(-1)


class TestExperimentConfig:
    def test_default_round_trip(self):
        config = ExperimentConfig()
        assert ExperimentConfig.from_text(config.to_text()) == config

    def test_modified_round_trip(self):
        config = ExperimentConfig(
            env_id=3,
            mode="ppr",
            library="runs/lib",
            seed=7,
            episodes=250,
            error_cnot=0.02,
            follow_decay=0.9,
        )
        assert ExperimentConfig.from_text(config.to_text()) == config

    def test_none_survives_round_trip(self):
        config = ExperimentConfig(library=None, error_x=None)
        parsed = ExperimentConfig.from_text(config.to_text())
        assert parsed.library is None
        assert parsed.error_x is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# run setup\n\nenv_id = 2\nseed = 5\n"
        config = ExperimentConfig.from_text(text)
        assert config.env_id == 2
        assert config.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("not_a_field = 1\n")

    def test_file_round_trip(self, tmp_path):
        config = ExperimentConfig(env_id=4, episodes=123, out=str(tmp_path / "run"))
        path = tmp_path / "config.txt"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_file_names_its_library_relative_to_itself(self, tmp_path, monkeypatch):
        config = ExperimentConfig(env_id=1, mode="ppr", library=str(tmp_path / "lib"), out=str(tmp_path / "out"))
        config.to_file(tmp_path / "run" / "config.txt")
        assert "library = ../lib\n" in (tmp_path / "run" / "config.txt").read_text()
        assert ExperimentConfig.from_file(tmp_path / "run" / "config.txt") == config
        monkeypatch.chdir(tmp_path / "run")
        assert ExperimentConfig.from_file("config.txt").library == os.path.join("..", "lib")
        # A file that names its library by an absolute path still finds it.
        (tmp_path / "old.txt").write_text(config.to_text())
        assert ExperimentConfig.from_file(tmp_path / "old.txt") == config

    def test_file_names_its_out_relative_to_itself(self, tmp_path, monkeypatch):
        """By the same rule as its library: a run's own config.txt says out = ."""
        config = ExperimentConfig(out=str(tmp_path / "run"))
        config.to_file(tmp_path / "run" / "config.txt")
        config.to_file(tmp_path / "other.txt")
        assert "\nout = .\n" in (tmp_path / "run" / "config.txt").read_text()
        assert "\nout = run\n" in (tmp_path / "other.txt").read_text()
        assert ExperimentConfig.from_file(tmp_path / "run" / "config.txt") == config
        monkeypatch.chdir(tmp_path / "run")
        assert ExperimentConfig.from_file("config.txt").out == "."
        assert ExperimentConfig.from_file("../other.txt").out == os.path.join("..", "run")

    def test_error_override_beats_stage_table(self):
        config = ExperimentConfig(env_id=1, error_x=0.2)
        assert config.env_config().noise.gate_error.get(GateKind.PAULI_X, 0.0) == 0.2

    @pytest.mark.parametrize("env_id", range(6))
    def test_default_env_config_is_the_numbered_environment(self, env_id):
        assert ExperimentConfig(env_id=env_id).env_config() == build_environment(env_id)

    def test_zero_override_makes_a_gate_noiseless(self):
        noise = ExperimentConfig(env_id=3, error_cnot=0.0).env_config().noise
        assert noise.gate_error.get(GateKind.CNOT, 0.0) == 0.0
        assert noise.gate_error.get(GateKind.PAULI_X, 0.0) == 0.01

    @pytest.mark.parametrize("text, message", [
        ("seed = abc\n", r"^config line 1 \(seed\): invalid literal for int\(\)"),
        ("env_id = 2\n\nerror_x = lots\n", r"^config line 3 \(error_x\): could not convert"),
        ("episodes = none\n", r"^config line 1 \(episodes\): "),
    ], ids=["int", "optional_float", "none_for_a_required_field"])
    def test_parse_error_names_line_and_key(self, text, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("text, message", [
        ("seed = abc\n", r"config line 1 \(seed\): invalid literal for int\(\)"),
        ("foo = 1\n", r"unknown config key 'foo'$"),
        ("seed\n", r"config line 1 is not key = value"),
    ], ids=["value", "unknown_key", "not_key_value"])
    def test_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            ExperimentConfig.from_file(path)

    def test_key_given_twice_names_both_lines(self):
        with pytest.raises(ValueError, match=r"^config line 3 \(seed\): key already given on line 1$"):
            ExperimentConfig.from_text("seed = 1\nepisodes = 5\nseed = 2\n")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="bogus").ppr_config()

    def test_from_scratch_uses_epsilon_greedy(self):
        assert ExperimentConfig(mode="from_scratch").ppr_config().use_epsilon_greedy
        assert not ExperimentConfig(mode="ppr", library="lib").ppr_config().use_epsilon_greedy

    def test_each_routed_field_arrives_in_the_one_config_that_owns_it(self):
        hand_mapped = {"env_id", "mode", "library", "seed", "out", "meas_error", "hidden1", "hidden2",
                       *(f"error_{kind.value}" for kind in GateKind)}
        routed = {"episodes": 7, "fidelity_threshold": 0.9, "max_steps": 12, "step_penalty": 0.02,
                  "gamma": 0.5, "batch_size": 32, "min_replay": 100, "replay_capacity": 500,
                  "target_update_period": 3, "learning_rate": 0.002, "adam_beta1": 0.8, "adam_beta2": 0.99,
                  "epsilon_start": 0.9, "epsilon_decay": 0.95, "epsilon_min": 0.05, "temperature_init": 0.1,
                  "temperature_step": 0.02, "follow_prob": 0.9, "follow_decay": 0.9}
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert names == hand_mapped | routed.keys()
        assert all(value != getattr(ExperimentConfig, name) for name, value in routed.items())
        config = ExperimentConfig(**routed)
        ppr = config.ppr_config()
        owners = {EnvConfig: config.env_config(), DQNConfig: ppr.dqn, PPRConfig: ppr}
        fields_of = {cls: {f.name for f in dataclasses.fields(cls)} for cls in owners}
        assert all(not fields_of[a] & fields_of[b] for a, b in itertools.combinations(owners, 2))
        assert {"epsilon_start", "epsilon_decay", "epsilon_min", "target_update_period"} <= fields_of[PPRConfig]
        for name, value in routed.items():
            (owner,) = [cls for cls in owners if name in fields_of[cls]]
            assert getattr(owners[owner], name) == value, name

    def test_ppr_without_library_in_a_file_names_the_file(self, tmp_path):
        path = tmp_path / "ppr.txt"
        path.write_text("mode = ppr\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ppr mode needs --library"):
            ExperimentConfig.from_file(path)


class TestRunLog:
    def test_csv_round_trip(self, tmp_path):
        rows = RunLog(
            [
                RunRow(episode=1, score=0.98, steps=2, fidelity=0.9999999999, policy_index=0, temperature=0.0),
                RunRow(episode=2, score=-0.2, steps=20, fidelity=0.25, policy_index=2, temperature=0.01),
            ]
        )
        path = tmp_path / "runlog.csv"
        rows.to_csv(path)
        loaded = RunLog.from_csv(path)
        assert loaded == rows

    def test_csv_header(self, tmp_path):
        path = tmp_path / "runlog.csv"
        RunLog([]).to_csv(path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_rolling_mean_constant_series(self):
        log = RunLog(
            [RunRow(episode=i + 1, score=0.5, steps=1, fidelity=0.5, policy_index=0, temperature=0.0) for i in range(120)]
        )
        np.testing.assert_allclose(log.rolling_mean(50), np.full(120, 0.5), atol=1e-12)

    def test_rolling_mean_partial_head(self):
        scores = [1.0, 0.0, 1.0, 0.0]
        log = RunLog(
            [RunRow(episode=i + 1, score=s, steps=1, fidelity=s, policy_index=0, temperature=0.0) for i, s in enumerate(scores)]
        )
        np.testing.assert_allclose(log.rolling_mean(2), [1.0, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rolling_mean_matches_direct_windows(self):
        rng = np.random.default_rng(30)
        scores = rng.uniform(-0.2, 1.0, size=200)
        log = RunLog(
            [RunRow(episode=i + 1, score=s, steps=1, fidelity=0.0, policy_index=0, temperature=0.0) for i, s in enumerate(scores)]
        )
        rolled = log.rolling_mean(50)
        for i in range(200):
            lo = max(0, i - 49)
            np.testing.assert_allclose(rolled[i], scores[lo : i + 1].mean(), atol=1e-10)


def tiny_config(tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(
        env_id=0,
        mode="from_scratch",
        seed=1,
        episodes=6,
        fidelity_threshold=0.45,
        hidden1=8,
        hidden2=8,
        out=str(tmp_path / "run"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def config_file_with(tmp_path, field, value, **kwargs):
    """A config file of tiny_config's text with ``field`` set to ``value``,
    which the constructor itself would refuse."""
    lines = [f"{field} = {value}" if line.startswith(f"{field} = ") else line
             for line in tiny_config(tmp_path, **kwargs).to_text().splitlines()]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRunSingle:
    def test_artifacts_and_row_bounds(self, tmp_path):
        config = tiny_config(tmp_path)
        log, _ = run_single(config)
        assert len(log) == 6
        out = tmp_path / "run"
        assert (out / "runlog.csv").exists()
        assert (out / "policy.qnet").exists()
        assert (out / "config.txt").exists()
        for row in log:
            assert 1 <= row.steps <= 20
            assert -1.0 <= row.fidelity <= 1.0
            assert row.policy_index == 0

    def test_same_seed_is_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path, out=str(tmp_path / "a"), episodes=12)
        config_b = tiny_config(tmp_path, out=str(tmp_path / "b"), episodes=12)
        run_single(config_a)
        run_single(config_b)
        assert (tmp_path / "a" / "runlog.csv").read_bytes() == (tmp_path / "b" / "runlog.csv").read_bytes()

    def test_ppr_mode_requires_library(self, tmp_path):
        with pytest.raises(ValueError, match="ppr mode needs --library"):
            tiny_config(tmp_path, mode="ppr", library=None)

    def test_from_scratch_rejects_library(self, tmp_path):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "solver")
        save_library(library, tmp_path / "lib")
        with pytest.raises(ValueError, match="from_scratch mode does not take a library"):
            tiny_config(tmp_path, library=str(tmp_path / "lib"))

    def test_ppr_mode_runs_with_library(self, tmp_path):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "env-0")
        save_library(library, tmp_path / "lib")
        config = tiny_config(tmp_path, mode="ppr", library=str(tmp_path / "lib"), episodes=20)
        log, _ = run_single(config)
        assert any(row.policy_index == 1 for row in log)

    def test_saved_config_reloads(self, tmp_path):
        config = tiny_config(tmp_path)
        run_single(config)
        reloaded = ExperimentConfig.from_file(tmp_path / "run" / "config.txt")
        assert reloaded == config

    def test_a_from_scratch_run_is_one_ppr_run(self, tmp_path):
        log, _ = run_single(ExperimentConfig(env_id=3, seed=7, episodes=30, out=str(tmp_path / "run")))
        chain = ppr_run(CircuitEnv(build_environment(3)), PolicyLibrary(),
                        PPRConfig(episodes=30, use_epsilon_greedy=True), np.random.default_rng(7))
        assert log.scores().tobytes() == RunLog(chain.log).scores().tobytes()
        assert log == chain.log


    def test_run_single_returns_and_writes_the_log_ppr_run_filled(self, tmp_path, monkeypatch):
        results = []

        def recording_ppr_run(*args):
            results.append(qasrl.ppr.ppr_run(*args))
            return results[-1]

        monkeypatch.setattr(qasrl.experiments, "ppr_run", recording_ppr_run)
        log, policy = run_single(tiny_config(tmp_path))
        assert log is results[0].log and policy is results[0].policy and type(log) is RunLog
        results[0].log.to_csv(tmp_path / "again.csv")
        assert (tmp_path / "run" / "runlog.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


class TestEmitPlot:
    def test_writes_rolling_csv_and_image(self, tmp_path):
        log, _ = run_single(tiny_config(tmp_path, episodes=10))
        rolling_path, image_path = emit_plot(log, tmp_path / "scores.svg", window=4)
        assert rolling_path == tmp_path / "scores.rolling.csv"
        lines = rolling_path.read_text().splitlines()
        assert lines[0] == "episode,score_rolling_mean"
        assert len(lines) == 11
        assert image_path == tmp_path / "scores.svg"
        assert [len(points) for _, points in read_svg(image_path).values()] == [10, 10]


SVG = "{http://www.w3.org/2000/svg}"


def read_svg(path):
    """Parse a score plot, checking its size, white background, black frame
    and that every point is finite and inside the frame; returns
    {stroke rgb: (stroke width, (n, 2) array of x, y points)}."""
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    assert (root.get("width"), root.get("height")) == (str(PLOT_WIDTH), str(PLOT_HEIGHT))
    background, frame, *polylines = root
    assert background.tag == f"{SVG}rect" and background.get("fill") == "white"
    assert (background.get("width"), background.get("height")) == ("100%", "100%")
    assert frame.tag == f"{SVG}rect" and (frame.get("fill"), frame.get("stroke")) == ("none", "black")
    x0, y0, width, height = (float(frame.get(name)) for name in ("x", "y", "width", "height"))
    assert 0 < x0 < x0 + width < PLOT_WIDTH and 0 < y0 < y0 + height < PLOT_HEIGHT
    lines = {}
    for line in polylines:
        assert line.tag == f"{SVG}polyline" and line.get("fill") == "none"
        assert line.get("stroke-linecap") == "round"
        rgb = tuple(int(c) for c in re.fullmatch(r"rgb\((\d+), (\d+), (\d+)\)", line.get("stroke")).groups())
        stroke_width = float(line.get("stroke-width"))
        points = np.array([[float(v) for v in point.split(",")] for point in line.get("points").split()])
        assert np.isfinite(points).all()
        # The stroke, half its width either side of a point, stays off the frame.
        assert (points[:, 0] - stroke_width / 2 > x0).all() and (points[:, 0] + stroke_width / 2 < x0 + width).all()
        assert (points[:, 1] - stroke_width / 2 > y0).all() and (points[:, 1] + stroke_width / 2 < y0 + height).all()
        lines[rgb] = (stroke_width, points)
    return lines


def score_log(scores) -> RunLog:
    return RunLog(
        [RunRow(episode=i + 1, score=s, steps=1, fidelity=0.0, policy_index=0, temperature=0.0) for i, s in enumerate(scores)]
    )


class TestPngWriter:
    def test_valid_png_with_both_lines(self, tmp_path):
        scores = np.random.default_rng(31).uniform(-0.2, 1.0, size=150)
        _, image_path = emit_plot(score_log(scores), tmp_path / "scores.svg", window=20)
        lines = read_svg(image_path)
        assert list(lines) == [SCORE_RGB, ROLLING_RGB]
        (score_width, score_points), (rolling_width, rolling_points) = lines.values()
        assert (score_width, rolling_width) == (1.0, 2.0)
        assert len(score_points) == len(rolling_points) == 150
        assert (np.diff(score_points[:, 0]) > 0).all()
        np.testing.assert_array_equal(score_points[:, 0], rolling_points[:, 0])
        # y grows downwards: the best score is the highest point, the worst the lowest.
        assert score_points[scores.argmax(), 1] == score_points[:, 1].min()
        assert score_points[scores.argmin(), 1] == score_points[:, 1].max()

    @pytest.mark.parametrize("scores", [[0.7], [0.3] * 40, []], ids=["one_row", "flat", "empty"])
    def test_degenerate_logs(self, tmp_path, scores):
        with np.errstate(all="raise"):  # a NaN coordinate or a zero division raises here
            _, image_path = emit_plot(score_log(scores), tmp_path / "scores.svg")
        lines = read_svg(image_path)
        assert list(lines) == ([SCORE_RGB, ROLLING_RGB] if scores else [])
        for _, points in lines.values():
            # One point per episode; a lone point is a zero-length segment, which round caps draw as a dot.
            assert len(points) == max(len(scores), 2)
            assert (points[:, 1] == points[0, 1]).all()

    def test_same_log_gives_identical_bytes(self, tmp_path):
        log = score_log(np.linspace(-0.2, 0.98, 60))
        emit_plot(log, tmp_path / "a.svg")
        emit_plot(log, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.rolling.csv").read_bytes() == (tmp_path / "b.rolling.csv").read_bytes()

    def test_rejects_other_suffixes(self, tmp_path):
        with pytest.raises(ValueError, match="scores.png"):
            emit_plot(score_log([0.5]), tmp_path / "scores.png")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_non_finite_scores(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            emit_plot(score_log([0.5, float("nan")]), tmp_path / "scores.svg")


class Interrupted(Exception):
    """Raised by a patched function to cut a curriculum short."""


def raise_on_call(monkeypatch, owner, name, call):
    """Make ``owner.name`` raise Interrupted on its ``call``-th call."""
    original = getattr(owner, name)
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == call:
            raise Interrupted(f"{name} call {call}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def count_calls(monkeypatch, owner, name, calls=None):
    """Append ``name`` to ``calls`` (a new list by default) on each call of
    ``owner.name``; returns that list."""
    original, calls = getattr(owner, name), [] if calls is None else calls

    def patched(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
    return calls


def curriculum_cut_in_stage_3(monkeypatch, out, seed, episodes):
    """A curriculum interrupted halfway through stage 3's episode loop,
    so stages 0..2 are done and no library/ is written yet."""
    with monkeypatch.context() as patch:
        # One _play_episode call per episode: stage 3 holds calls 3E+1..4E.
        raise_on_call(patch, qasrl.ppr, "_play_episode", 3 * episodes + episodes // 2)
        with pytest.raises(Interrupted):
            run_curriculum(seed=seed, output_dir=out, episodes=episodes)
    assert [(out / f"env{k}" / "config.txt").exists() for k in range(6)] == [True] * 3 + [False] * 3
    assert not (out / "library").exists()


class TestCurriculum:
    def test_six_stages_and_tagged_library(self, tmp_path):
        results = run_curriculum(seed=3, output_dir=tmp_path / "cur", episodes=8)
        assert [env_id for env_id, _ in results] == [0, 1, 2, 3, 4, 5]
        library = load_library(tmp_path / "cur" / "library")
        assert library.tags == [f"env-{k}" for k in range(6)]
        for env_id, log in results:
            assert len(log) == 8
            assert (tmp_path / "cur" / f"env{env_id}" / "runlog.csv").exists()

    def test_resume_skips_completed_stages(self, tmp_path):
        out = tmp_path / "cur"
        run_curriculum(seed=3, output_dir=out, episodes=8)
        before = {k: (out / f"env{k}" / "runlog.csv").read_bytes() for k in range(6)}
        results = run_curriculum(seed=3, output_dir=out, episodes=8)
        after = {k: (out / f"env{k}" / "runlog.csv").read_bytes() for k in range(6)}
        assert before == after
        assert len(results) == 6

    def test_resume_detects_inconsistent_state(self, tmp_path):
        out = tmp_path / "cur"
        run_curriculum(seed=3, output_dir=out, episodes=8)
        (out / "env2" / "runlog.csv").unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(out / "env2" / "runlog.csv"))):
            run_curriculum(seed=3, output_dir=out, episodes=8)

    @pytest.mark.parametrize("cut", ["episode_loop", "after_stage_3"])
    def test_interrupted_curriculum_resumes_to_the_same_bytes(self, tmp_path, monkeypatch, cut):
        out, episodes = tmp_path / "cur", 10
        run_curriculum(seed=5, output_dir=out, episodes=episodes)
        uninterrupted = tree_bytes(out)
        shutil.rmtree(out)
        if cut == "episode_loop":
            curriculum_cut_in_stage_3(monkeypatch, out, 5, episodes)
        else:
            with monkeypatch.context() as patch:
                # Stages 1..4 each save their own library first: the fourth save
                # is stage 4's, after stage 3's files are written.
                raise_on_call(patch, qasrl.experiments, "save_library", 4)
                with pytest.raises(Interrupted):
                    run_curriculum(seed=5, output_dir=out, episodes=episodes)
            assert (out / "env3" / "policy.qnet").read_bytes() == uninterrupted["env3/policy.qnet"]
            assert not (out / "env4" / "config.txt").exists()
        run_curriculum(seed=5, output_dir=out, episodes=episodes)
        assert tree_bytes(out) == uninterrupted

    @pytest.mark.parametrize("seed, episodes", [(3, 5), (4, 4)], ids=["episodes", "seed"])
    def test_resume_refuses_other_settings(self, tmp_path, monkeypatch, seed, episodes):
        out = tmp_path / "cur"
        curriculum_cut_in_stage_3(monkeypatch, out, 3, 4)
        before = tree_bytes(out)
        with pytest.raises(ValueError, match="config.txt: ran with seed 3000 and 4 episodes"):
            run_curriculum(seed=seed, output_dir=out, episodes=episodes)
        assert tree_bytes(out) == before

    def test_resume_names_a_damaged_stage_config(self, tmp_path):
        out = tmp_path / "cur"
        run_curriculum(seed=3, output_dir=out, episodes=4)
        config_path = out / "env2" / "config.txt"
        config_path.write_text(config_path.read_text().replace("seed = 3002", "seed = x"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(config_path))}: config line \\d+ \\(seed\\): "):
            run_curriculum(seed=3, output_dir=out, episodes=4)

    def test_resume_in_a_moved_directory(self, tmp_path):
        run_curriculum(seed=3, output_dir=tmp_path / "a", episodes=4)
        shutil.move(tmp_path / "a", tmp_path / "b")
        before = tree_bytes(tmp_path / "b")
        results = run_curriculum(seed=3, output_dir=tmp_path / "b", episodes=4)
        assert len(results) == 6
        assert tree_bytes(tmp_path / "b") == before

    def test_every_stage_trains_through_run_single_once(self, tmp_path, monkeypatch):
        """A finished directory trains nothing again: no run, no episode, no byte changed."""
        out = tmp_path / "cur"
        runs = count_calls(monkeypatch, qasrl.experiments, "run_single")
        run_curriculum(seed=3, output_dir=out, episodes=4)
        assert len(runs) == 6
        before = tree_bytes(out)
        runs.clear()
        episodes = count_calls(monkeypatch, qasrl.ppr, "_play_episode")
        results = run_curriculum(seed=3, output_dir=out, episodes=4)
        assert (len(runs), len(episodes)) == (0, 0)
        assert [(env_id, len(log)) for env_id, log in results] == [(k, 4) for k in range(6)]
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("seed, episodes", [(4, 4), (3, 5)], ids=["seed", "episodes"])
    def test_finished_directory_refuses_other_settings(self, tmp_path, seed, episodes):
        out = tmp_path / "cur"
        run_curriculum(seed=3, output_dir=out, episodes=4)
        before = tree_bytes(out)
        message = (f"^{re.escape(str(out / 'env0' / 'config.txt'))}: ran with seed 3000 and 4 episodes, "
                   ".*; delete the output directory to start over$")
        with pytest.raises(ValueError, match=message):
            run_curriculum(seed=seed, output_dir=out, episodes=episodes)
        assert tree_bytes(out) == before

    def test_each_stage_reruns_from_its_config_file(self, tmp_path):
        """A stage's config.txt names the library as it stood when the stage trained."""
        out = tmp_path / "cur"
        run_curriculum(seed=0, output_dir=out, episodes=12)
        for k in range(6):
            rerun = tmp_path / f"rerun{k}"
            assert main(["run", "--config", str(out / f"env{k}" / "config.txt"), "--out", str(rerun)]) == 0
            assert (rerun / "runlog.csv").read_bytes() == (out / f"env{k}" / "runlog.csv").read_bytes()
        assert [load_library(out / f"env{k}" / "library").tags for k in range(1, 6)] == [
            [f"env-{j}" for j in range(k)] for k in range(1, 6)]

    def test_stages_rerun_from_another_directory(self, tmp_path, monkeypatch):
        """Run with a relative output directory, each stage's config.txt still
        finds its library when rerun from another working directory."""
        monkeypatch.chdir(tmp_path)
        run_curriculum(seed=0, output_dir="a/cur", episodes=12)
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "b")
        for k in range(6):
            assert main(["run", "--config", f"../a/cur/env{k}/config.txt", "--out", f"rerun{k}"]) == 0
            assert (tmp_path / "b" / f"rerun{k}" / "runlog.csv").read_bytes() == (
                tmp_path / "a" / "cur" / f"env{k}" / "runlog.csv").read_bytes()

    def test_stages_rerun_after_the_directory_moves(self, tmp_path, monkeypatch):
        """Each stage's config.txt names its library relative to itself, so it
        still reruns the stage once the whole output directory has moved."""
        monkeypatch.chdir(tmp_path)
        run_curriculum(seed=0, output_dir="a/cur", episodes=12)
        shutil.move(tmp_path / "a", tmp_path / "b")
        (tmp_path / "c").mkdir()
        monkeypatch.chdir(tmp_path / "c")
        for k in range(6):
            assert main(["run", "--config", f"../b/cur/env{k}/config.txt", "--out", f"rerun{k}"]) == 0
            assert (tmp_path / "c" / f"rerun{k}" / "runlog.csv").read_bytes() == (
                tmp_path / "b" / "cur" / f"env{k}" / "runlog.csv").read_bytes()

    def test_a_stage_config_reruns_into_its_own_directory(self, tmp_path, monkeypatch):
        """Without --out, a stage's config.txt, read from another working
        directory, reruns the stage over its own files with the same bytes."""
        monkeypatch.chdir(tmp_path)
        run_curriculum(seed=0, output_dir="cur", episodes=12)
        before = tree_bytes(tmp_path / "cur" / "env2")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["run", "--config", "../cur/env2/config.txt"]) == 0
        assert list((tmp_path / "elsewhere").iterdir()) == []
        after = tree_bytes(tmp_path / "cur" / "env2")
        assert {name: after[name] for name in before} == before
        assert set(after) - set(before) == {"scores.svg", "scores.rolling.csv"}

    def test_stages_are_the_papers_chain(self, tmp_path):
        """Stage k is the chain built by hand: environment k, epsilon-greedy on
        stage 0 only, rng seed * 1000 + k and the library of stages 0..k-1."""
        seed, episodes, library = 3, 30, PolicyLibrary()
        stages = run_curriculum(seed=seed, output_dir=tmp_path / "cur", episodes=episodes)
        assert [env_id for env_id, _ in stages] == list(range(6))
        for k, log in stages:
            config = PPRConfig(episodes=episodes, use_epsilon_greedy=(k == 0))
            chain = ppr_run(CircuitEnv(build_environment(k)), library, config, np.random.default_rng(seed * 1000 + k))
            library.append(chain.policy, f"env-{k}")
            assert log.scores().tobytes() == RunLog(chain.log).scores().tobytes()
            assert log == chain.log

    def test_a_deleted_library_is_rewritten_without_training(self, tmp_path, monkeypatch):
        """library/ is written from the stages' own files, so deleting it retrains nothing."""
        out = tmp_path / "cur"
        run_curriculum(seed=3, output_dir=out, episodes=4)
        before = tree_bytes(out)
        shutil.rmtree(out / "library")
        runs = count_calls(monkeypatch, qasrl.experiments, "run_single")
        run_curriculum(seed=3, output_dir=out, episodes=4)
        assert runs == []
        assert tree_bytes(out) == before

    def test_each_policy_file_is_written_once_per_library(self, tmp_path, monkeypatch):
        """Six stage policies, stage k's own library of k policies for k = 1..5,
        and the final library of six: 6 + 15 + 6 = 27 snapshots in 6 libraries."""
        calls = []
        for owner, name in [(qasrl.experiments, "save_policy"), (qasrl.ppr, "save_policy"),
                            (qasrl.experiments, "save_library")]:
            count_calls(monkeypatch, owner, name, calls)
        run_curriculum(seed=3, output_dir=tmp_path / "cur", episodes=4)
        assert (calls.count("save_policy"), calls.count("save_library")) == (27, 6)

    def test_library_stays_in_memory(self, tmp_path, monkeypatch):
        calls = []
        for owner, name in [(qasrl.ppr, "load_policy"), (qasrl.experiments, "load_policy"),
                            (qasrl.experiments, "load_library")]:
            count_calls(monkeypatch, owner, name, calls)
        run_curriculum(seed=3, output_dir=tmp_path / "cur", episodes=4)
        assert calls == []
        run_curriculum(seed=3, output_dir=tmp_path / "cur", episodes=4)
        assert calls == ["load_policy"] * 6


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "manifest.json"
    target.write_bytes(b"old")

    def failing_replace(*args, **kwargs):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_file(target, b"new")
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--env", "0",
                "--mode", "from_scratch",
                "--seed", "2",
                "--episodes", "5",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        assert (tmp_path / "run" / "runlog.csv").exists()
        assert "episodes" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        tiny_config(tmp_path).to_file(tmp_path / "config.txt")
        code = main(["run", "--config", str(tmp_path / "config.txt")])
        assert code == 0
        assert (tmp_path / "run" / "runlog.csv").exists()

    def test_bad_mode_with_a_library_names_the_mode(self, tmp_path, capsys):
        """The mode is checked before whether it fits the library."""
        path = tmp_path / "f.txt"
        path.write_text("mode = foo\nlibrary = x\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {path}: mode must be from_scratch or ppr, got 'foo'\n"
        assert not (tmp_path / "run").exists()

    def test_bad_mode_flag_is_the_configs_one_line_error(self, tmp_path, capsys):
        assert main(["run", "--mode", "foo", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: mode must be from_scratch or ppr, got 'foo'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, names_file", [
        (["run", "--episodes", "2", "--out", ""], False),
        (["run", "--config"], True),
        (["curriculum", "--episodes", "2", "--out", ""], False),
    ], ids=["flag", "config_file", "curriculum"])
    def test_empty_out_is_one_line_error(self, tmp_path, capsys, monkeypatch, argv, names_file):
        """An empty out would put the run's files in the working directory."""
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.txt"
        config.write_text("episodes = 2\nout = \n")
        assert main([*argv, *([str(config)] if names_file else [])]) == 1
        prefix = f"{config}: " if names_file else ""
        assert capsys.readouterr().err == f"error: {prefix}out must name the output directory, got ''\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.txt"]

    # 256 PiB and 2.22 EiB: beyond any user address space, so refused at once.
    @pytest.mark.parametrize("field, value", [("replay_capacity", 2**55), ("hidden1", 2**52)])
    def test_impossible_allocation_is_one_line_error(self, tmp_path, capsys, field, value):
        path = config_file_with(tmp_path, field, value)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        sizes = {"replay_capacity": 10_000, "hidden1": 8, "hidden2": 8, field: value}  # tiny_config's, and the one set
        assert err.startswith(f"error: {path}: replay_capacity = {sizes['replay_capacity']}, "
                              f"hidden1 = {sizes['hidden1']}, hidden2 = {sizes['hidden2']}: Unable to allocate ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "runlog.csv").exists()

    def test_bad_config_file_is_one_line_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("seed = abc\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: config line 1 (seed): invalid literal for int() with base 10: 'abc'\n")
        assert not (tmp_path / "run").exists()

    def test_negative_error_override_is_one_line_error(self, tmp_path, capsys):
        path = config_file_with(tmp_path, "error_x", -0.5, env_id=1)
        code = main(["run", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: gate error for x out of [0, 1]: -0.5")
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "runlog.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("target_update_period", 0),
        ("min_replay", -1),
        ("epsilon_start", 1.5),
        ("epsilon_decay", 2.0),
        ("epsilon_min", -0.5),
        ("adam_beta1", 1.0),
        ("adam_beta2", 2.0),
        ("learning_rate", float("inf")),
        ("step_penalty", float("nan")),
        ("step_penalty", 1e307),  # finite, but not over max_steps = 20
        ("temperature_init", float("nan")),
        ("temperature_step", float("inf")),
        ("temperature_step", 1e308),  # finite, but its ramp overflows by episode 6
        ("follow_prob", 1.5),
        ("follow_decay", -0.1),
    ])
    def test_out_of_range_setting_is_one_line_error(self, tmp_path, capsys, field, value):
        path = config_file_with(tmp_path, field, value)
        code = main(["run", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field", ["hidden1", "hidden2"])
    def test_empty_hidden_layer_is_one_line_error(self, tmp_path, capsys, field):
        path = config_file_with(tmp_path, field, 0)
        code = main(["run", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: hidden_sizes must be positive")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, names_file", [
        (["run", "--env", "0", "--seed", "-1"], False),
        (["curriculum", "--seed", "-1", "--episodes", "2"], False),
        (["run", "--config"], True),
    ], ids=["run", "curriculum", "config_file"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, argv, names_file):
        config = tmp_path / "config.txt"
        config.write_text("seed = -1\n")
        code = main([*argv, *([str(config)] if names_file else []), "--out", str(tmp_path / "out")])
        assert code == 1
        prefix = f"{config}: " if names_file else ""
        assert capsys.readouterr().err == f"error: {prefix}seed must not be negative, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_bad_env_returns_error(self, tmp_path, capsys):
        code = main(["run", "--env", "9", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown environment id 9; choose 0..5\n"
        assert not (tmp_path / "run").exists()

    def test_bad_env_in_a_file_names_the_file(self, tmp_path, capsys):
        path = config_file_with(tmp_path, "env_id", 9)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: unknown environment id 9; choose 0..5\n"
        assert not (tmp_path / "run").exists()

    def test_negative_episodes_is_one_line_error(self, tmp_path, capsys):
        code = main(["run", "--env", "0", "--episodes", "-5", "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "episodes" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "runlog.csv").exists()

    def test_broken_library_snapshot_is_one_line_error(self, tmp_path, capsys):
        library = PolicyLibrary()
        library.append(bell_solver_network(), "env-0")
        save_library(library, tmp_path / "lib")
        broken = tmp_path / "lib" / "policy_000.qnet"
        broken.write_bytes(b'{"format_version": 1, "activation": "relu"}\n')
        code = main(["run", "--env", "1", "--mode", "ppr", "--library", str(tmp_path / "lib"),
                     "--episodes", "5", "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(broken) in err and "layer_sizes" in err
        assert err.count("\n") == 1

    def test_ppr_run_with_empty_library_is_one_line_error(self, tmp_path, capsys):
        save_library(PolicyLibrary(), tmp_path / "lib")
        code = main(["run", "--env", "1", "--mode", "ppr", "--library", str(tmp_path / "lib"),
                     "--episodes", "5", "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "lib" / "manifest.json") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_non_finite_learning_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        poison_agents(monkeypatch)
        code = main(["run", "--env", "0", "--episodes", "10", "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: learning went non-finite in episode ")
        assert err.count("\n") == 1

    def test_plot_command(self, tmp_path):
        run_single(tiny_config(tmp_path, episodes=5))
        code = main(
            ["plot", "--log", str(tmp_path / "run" / "runlog.csv"), "--out", str(tmp_path / "scores.svg")]
        )
        assert code == 0
        assert [len(points) for _, points in read_svg(tmp_path / "scores.svg").values()] == [5, 5]

    def test_plot_rejects_non_svg_output(self, tmp_path, capsys):
        score_log([0.5, 0.9]).to_csv(tmp_path / "runlog.csv")
        code = main(["plot", "--log", str(tmp_path / "runlog.csv"), "--out", str(tmp_path / "x.png")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'x.png'}: ")
        assert err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["runlog.csv"]

    def test_plot_into_unwritable_directory_is_one_line_error(self, tmp_path, capsys):
        score_log([0.5, 0.9]).to_csv(tmp_path / "runlog.csv")
        (tmp_path / "blocker").write_text("a file, not a directory")
        out = tmp_path / "blocker" / "scores.svg"
        code = main(["plot", "--log", str(tmp_path / "runlog.csv"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_curriculum_command(self, tmp_path):
        code = main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(tmp_path / "cur")])
        assert code == 0
        assert load_library(tmp_path / "cur" / "library").tags == [f"env-{k}" for k in range(6)]

    def test_curriculum_resume_with_other_episodes_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cur"
        curriculum_cut_in_stage_3(monkeypatch, out, 1, 4)
        before = tree_bytes(out)
        code = main(["curriculum", "--seed", "1", "--episodes", "5", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'env0' / 'config.txt'}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert tree_bytes(out) == before

    def test_curriculum_with_a_missing_stage_file_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "cur"
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "env2" / "runlog.csv").unlink()
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "env2" / "runlog.csv") in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", [
        lambda text: b"\xff" + text,                          # not UTF-8
        lambda text: b"".join(text.splitlines(True)[:2]),     # the header and episode 1 only
        lambda text: text.replace(b"\n3,", b"\n7,", 1),        # episode 3 numbered 7
    ], ids=["not_utf8", "cut_short", "renumbered"])
    def test_curriculum_over_a_damaged_stage_log_is_one_line_error(self, tmp_path, capsys, damage):
        out = tmp_path / "cur"
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        runlog = out / "env2" / "runlog.csv"
        runlog.write_bytes(damage(runlog.read_bytes()))
        before = tree_bytes(out)
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {runlog}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert tree_bytes(out) == before

    def test_curriculum_continues_its_directory(self, tmp_path, capsys):
        """Rerun with the same settings, it prints every stage again and trains
        nothing; with another seed it is one error line and changes nothing."""
        out = tmp_path / "cur"
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        before = tree_bytes(out)
        assert main(["curriculum", "--seed", "1", "--episodes", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == first
        assert [line.split(":")[0] for line in first.splitlines()[:6]] == [f"env {k}" for k in range(6)]
        code = main(["curriculum", "--seed", "2", "--episodes", "4", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'env0' / 'config.txt'}: ran with seed 1000 and 4 episodes")
        assert captured.err.endswith("; delete the output directory to start over\n")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert tree_bytes(out) == before
