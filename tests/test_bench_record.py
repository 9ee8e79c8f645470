"""scripts/bench_record.py: its seed specs, and the pair rule that decides
whether a claimed gain is met."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

# Quartiles 102.25 and 106.75: a quartile distance of 4.5.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


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
    row = bench_record.summarize(pairs, {"m": better}, "m")["m"]
    assert row["claim_met"] is met
    assert row["change_better_pairs"] == sum(gain > 0 for gain in gains)
    assert row["ties"] == gains.count(0.0)
    assert "claim_met" not in bench_record.summarize(pairs, {"m": better}, None)["m"]
