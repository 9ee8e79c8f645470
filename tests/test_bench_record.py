"""scripts/bench_record.py: its seed specs, the pair rule that decides
whether a claimed gain is met, the no-regression rule, the acceptance
fixture's setup time read from tier-1, the machine's reference speed, the
claims, workloads and checkouts holding bytecode it refuses, the environment of its
runs, and the BLAS kernel, bytecode setting and code of each side a record names."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

# Quartiles 102.25 and 106.75: a quartile distance of 4.5, 4.3% of the median 104.5.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def metric(better: str, bound: float = 0.2) -> list[dict]:
    """One end-to-end metric "m", as BENCHMARK.json declares it."""
    return [{"name": "m", "unit": "1/s", "better": better, "bound": bound}]


def test_seed_specs():
    assert bench_record.seeds("w=201-203") == ("w", [201, 202, 203])
    assert bench_record.seeds("w=217,218") == ("w", [217, 218])


def result_lines(value: float) -> list[str]:
    """A perfbench run's output; summarize reads the metrics of its last line."""
    return ["setup done", json.dumps({"metrics": {"m": {"value": value, "unit": "1/s"}}, "failed": 0})]


@pytest.mark.parametrize("better", ["higher", "lower"])
@pytest.mark.parametrize("gains, met", [
    ([10.0] * 10, True),
    ([10.0] * 9 + [-10.0], True),        # 9 of 10 pairs
    ([10.0] * 9 + [0.0], True),          # 9 wins and a tie
    ([10.0] * 8 + [0.0, 0.0], False),    # a tie counts for neither side: 8 wins
    ([10.0] * 8 + [-1.0, -1.0], False),  # 8 of 10 pairs
    ([4.0] * 10, False),                 # every pair, but a median gap of 4 < 4.5
], ids=["all", "nine", "nine_and_a_tie", "eight_and_two_ties", "eight", "small_gap"])
def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_quartiles(better, gains, met):
    sign = 1.0 if better == "higher" else -1.0
    pairs = [{"parent": result_lines(p), "change": result_lines(p + sign * gain)}
             for p, gain in zip(PARENT, gains)]
    row = bench_record.summarize(pairs, metric(better), "m")["m"]
    assert row["claim_met"] is met
    assert row["change_better_pairs"] == sum(gain > 0 for gain in gains)
    assert row["ties"] == gains.count(0.0)
    assert "claim_met" not in bench_record.summarize(pairs, metric(better), None)["m"]


@pytest.mark.parametrize("better", ["higher", "lower"])
@pytest.mark.parametrize("worse_by, bound, within, unresolved", [
    (5.0, 0.2, True, False),      # 4.8% worse, bound 20%, spread 4.3%: within
    (31.35, 0.2, False, False),   # 30% worse: beyond the bound
    (2.0, 0.01, False, True),     # 1.9% worse, and a spread of 4.3% over a bound of 1%: unresolved
    (-2.0, 0.01, True, True),     # better in the median, yet no sharper than the spread
    (-20.0, 0.01, True, False),   # every change run better than every parent run: resolved
], ids=["within", "beyond", "unresolved", "better_but_unresolved", "resolved_by_every_run"])
def test_regression_is_the_median_shift_against_the_bound(better, worse_by, bound, within, unresolved):
    sign = 1.0 if better == "higher" else -1.0
    pairs = [{"parent": result_lines(p), "change": result_lines(p - sign * worse_by)} for p in PARENT]
    row = bench_record.summarize(pairs, metric(better, bound), None)["m"]
    assert row["median_shift"] == pytest.approx(-sign * worse_by / 104.5, abs=1e-4)
    assert row["parent_spread"] == pytest.approx(4.5 / 104.5, abs=1e-4)
    assert row["within_bound"] is within
    assert row["unresolved"] is unresolved


def test_a_shift_from_a_zero_median_is_infinite():
    pairs = [{"parent": result_lines(0.0), "change": result_lines(c)} for c in (-1.0, -1.0, 0.0)]
    row = bench_record.summarize(pairs, metric("higher"), None)["m"]
    assert row["median_shift"] == float("-inf") and not row["within_bound"]
    same = bench_record.summarize([{"parent": result_lines(0.0), "change": result_lines(0.0)}], metric("higher"), None)
    assert same["m"]["median_shift"] == 0.0 and same["m"]["within_bound"] and not same["m"]["unresolved"]



def test_summary_gives_each_sides_quartiles_of_the_reference_speed():
    """perfbench prints its reference loop's median speed at 4 digits; the record keeps each side's swing."""
    def timed(value: float, speed: float) -> list[str]:
        return [f"scratch: measured wall time 1.59821 s at a median reference speed of {speed:.4g}",
                *result_lines(value)]

    speeds = [0.70, 0.8654, 0.9, 1.0, 1.23]
    pairs = [{"parent": timed(100.0, speed), "change": timed(101.0, 2 * speed)} for speed in speeds]
    row = bench_record.summarize(pairs, metric("higher"), None)["reference_speed"]
    assert row == {"parent_q1_median_q3": [0.8654, 0.9, 1.0], "change_q1_median_q3": [1.731, 1.8, 2.0]}
    pairs[2]["change"] = result_lines(101.0)
    row = bench_record.summarize(pairs, metric("higher"), None)["reference_speed"]
    assert row == {"parent_q1_median_q3": [0.8654, 0.9, 1.0], "change_q1_median_q3": None}

TIER1_TAIL = """\
============================= slowest 5 durations ==============================
{setup}4.84s call     tests/test_golden.py::test_learner_bits_under_haswell
3.94s call     perfbench/test_perfbench.py::test_tiny_run_prints_every_metric_of_benchmark_json[scratch-0]
0.62s setup    tests/test_experiments.py::TestCli::test_run_command
567 passed in 97.67s (0:01:37)
"""


@pytest.mark.parametrize("setup, seconds", [
    ("45.43s setup    tests/test_acceptance.py::test_criterion_2_from_scratch_convergence\n", 45.43),
    ("", None),
], ids=["with_the_line", "without_it"])
def test_tier1_records_the_acceptance_fixture_setup(setup, seconds):
    lines = TIER1_TAIL.format(setup=setup).splitlines()
    assert bench_record.acceptance_setup_s(lines) == seconds
    assert "--durations=5" in bench_record.TIER1


def test_machine_names_the_blas_kernel_in_use():
    """The kernel follows OPENBLAS_CORETYPE, read in a fresh process; Nehalem's kernel needs only SSE4.2."""
    if bench_record.blas_core() == "unknown":
        pytest.skip("this numpy's BLAS does not name its kernel")
    assert bench_record.machine()["blas_core"] == bench_record.blas_core()
    load = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location('b', sys.argv[1]); "
            "module = importlib.util.module_from_spec(spec); spec.loader.exec_module(module); print(module.blas_core())")
    forced = subprocess.run([sys.executable, "-c", load, str(SCRIPT)], capture_output=True, text=True, check=True,
                            env={**os.environ, "OPENBLAS_CORETYPE": "Nehalem"})
    assert forced.stdout == "Nehalem\n"


@pytest.mark.parametrize("setting", [None, "1"], ids=["cached", "not_cached"])
def test_machine_records_whether_bytecode_is_written(setting):
    """The record says that its runs wrote no bytecode, whether or not the recorder itself writes it."""
    assert bench_record.machine()["dont_write_bytecode"] is True
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if setting:
        env["PYTHONDONTWRITEBYTECODE"] = setting
    load = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location('b', sys.argv[1]); "
            "module = importlib.util.module_from_spec(spec); spec.loader.exec_module(module); "
            "print(module.machine()['dont_write_bytecode'])")
    out = subprocess.run([sys.executable, "-c", load, str(SCRIPT)], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout == "True\n"


def test_every_run_writes_no_bytecode(tmp_path, monkeypatch):
    """Tier-1, the perfbench pairs and the traced runs of both sides all get
    PYTHONDONTWRITEBYTECODE=1, though the recorder's own environment does not set it."""
    dirs = {name: tmp_path / name for name in bench_record.SIDES}
    for d in dirs.values():
        d.mkdir()
    (dirs["change"] / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    perfbench_out = json.dumps({"metrics": {m["name"]: {"value": 1.0} for m in BENCHMARK["end_to_end"]},
                                "failed": 0})
    runs = []

    def fake_run(argv, cwd=None, env=None, **kwargs):
        if argv[0] == "git":
            raise OSError("no git here")
        runs.append((cwd, argv, env))
        stdout = "1 passed in 0.01s" if "pytest" in argv else perfbench_out
        return subprocess.CompletedProcess(argv, 0, stdout + "\n", "")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", str(dirs["parent"]), "--change",
                                      str(dirs["change"]), "--out", str(out), "--note", "n",
                                      "--pairs", "scratch=1-2", "--trace", "rollout=3"])
    bench_record.main()
    tier1 = [(cwd, env) for cwd, argv, env in runs if "pytest" in argv]
    assert [cwd for cwd, _ in tier1] == [dirs["parent"], dirs["change"]]
    assert all(env["PYTHONPATH"] == "src" for _, env in tier1)
    assert len(runs) == 2 + 2 * 2 + 2
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for _, _, env in runs)
    assert json.loads(out.read_text())["machine"]["dont_write_bytecode"] is True


def test_blas_kernel_is_unknown_where_the_library_does_not_name_it(monkeypatch):
    monkeypatch.setattr(bench_record.ctypes, "CDLL", lambda path: object())
    assert bench_record.blas_core() == "unknown"


def git(repo: Path, *argv: str) -> str:
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *argv], capture_output=True, text=True, check=True).stdout


def test_a_record_names_each_sides_commit_and_whether_its_tree_changed(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    git(repo, "add", "a.txt")
    git(repo, "commit", "-q", "-m", "one")
    head = git(repo, "rev-parse", "HEAD").strip()
    assert bench_record.checkout(repo) == {"commit": head, "uncommitted_changes": False}
    (repo / "a.txt").write_text("two\n")
    assert bench_record.checkout(repo) == {"commit": head, "uncommitted_changes": True}
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_record.checkout(plain) == {"commit": "unknown", "uncommitted_changes": "unknown"}


BENCHMARK = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("claim, reason", [
    ("curriculum:peak_rss", "'peak_rss' is not an end-to-end metric"),
    ("curriculum:quantum.apply_gate.calls", "'quantum.apply_gate.calls' is not an end-to-end metric"),
    ("curriculum", "'' is not an end-to-end metric"),
    ("curricula:peak_rss_mb", "'curricula' is not a workload of BENCHMARK.json"),
    ("rollout:peak_rss_mb", "workload 'rollout' has no --pairs"),
], ids=["metric_typo", "per_layer_metric", "no_metric", "workload_typo", "workload_without_pairs"])
def test_a_claim_the_record_cannot_judge_is_one_argparse_error(tmp_path, monkeypatch, capsys, claim, reason):
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", str(tmp_path), "--change", str(SCRIPT.parents[1]),
                                      "--out", str(out), "--note", "n", "--claim", claim,
                                      "--pairs", "scratch=1-2", "curriculum=3-4"])
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main()
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"bench_record.py: error: --claim {claim}: {reason}" + (
        f" ({', '.join(m['name'] for m in BENCHMARK['end_to_end'])})" if "end-to-end" in reason else "")]
    assert not out.exists()


@pytest.mark.parametrize("specs, reason", [
    (["--pairs", "scratch=1-2", "curiculum=3-4"], "--pairs: 'curiculum' is not a workload of BENCHMARK.json"),
    (["--pairs", "scratch=1-2", "--trace", "rolout=5"], "--trace: 'rolout' is not a workload of BENCHMARK.json"),
    (["--pairs", "scratch=1-2", "rollout=3", "scratch=4-5"],
     "--pairs: workload 'scratch' is named twice; give all its seeds in one list"),
], ids=["pairs_typo", "trace_typo", "pairs_twice"])
def test_a_workload_the_record_cannot_run_as_given_is_one_argparse_error(tmp_path, monkeypatch, capsys, specs, reason):
    """Refused before tier-1 or any perfbench run starts."""
    def no_run(*args, **kwargs):
        raise AssertionError("nothing may run")

    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_record, "run", no_run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", str(tmp_path), "--change", str(SCRIPT.parents[1]),
                                      "--out", str(out), "--note", "n", *specs])
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main()
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    defined = "" if "twice" in reason else f" ({', '.join(w['name'] for w in BENCHMARK['workloads'])})"
    assert errors == [f"bench_record.py: error: {reason}{defined}"]
    assert not out.exists()


def test_a_claim_on_a_paired_end_to_end_metric_is_accepted():
    pairs = [bench_record.seeds("curriculum=1-10")]
    assert bench_record.claim_error("curriculum:peak_rss_mb", BENCHMARK, pairs) is None
    assert bench_record.workloads_error(BENCHMARK, pairs, [bench_record.seeds("curriculum=11"),
                                                           bench_record.seeds("curriculum=12")]) is None


@pytest.mark.parametrize("side, sub", [("parent", "src/qasrl"), ("change", "perfbench")])
def test_a_checkout_holding_bytecode_is_one_argparse_error(tmp_path, monkeypatch, capsys, side, sub):
    dirs = {name: tmp_path / name for name in bench_record.SIDES}
    for d in dirs.values():
        (d / "src" / "qasrl").mkdir(parents=True)
        (d / "perfbench").mkdir()
    (dirs["change"] / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    cached = dirs[side] / sub / "__pycache__"
    cached.mkdir()
    (cached / "module.cpython-311.pyc").write_bytes(b"")
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", str(dirs["parent"]), "--change",
                                      str(dirs["change"]), "--out", str(out), "--note", "n", "--pairs", "scratch=1-2"])
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main()
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"bench_record.py: error: {cached} holds compiled bytecode, which lowers perfbench's "
                      "setup_s and peak_rss_mb; remove it"]
    assert not out.exists()
