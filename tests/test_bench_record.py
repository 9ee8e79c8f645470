"""scripts/bench_record.py: its seed specs, the pair rule that decides
whether a claimed gain is met, the no-regression rule, the acceptance
fixture's setup time read from tier-1, and the BLAS kernel and the code
of each side a record names."""

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
