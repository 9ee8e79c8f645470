"""Benchmark for qasrl: run one workload and print its metrics.

    python3 perfbench/run.py --workload {scratch,rollout,curriculum} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is ``src/qasrl``
of that checkout.  The run repeats whole rounds of the workload, each in
a fresh process pinned to one BLAS/OpenMP thread, starting rounds until
S seconds have passed.  Every round of one run repeats the same inputs,
made from the seed, so its counts and final score must repeat exactly.

With ``--trace 0`` it reports the end-to-end metrics: medians over the
rounds, and over nine set-ups for ``setup_s``, with every time scaled to
the speed of ``reference.py`` measured around it.  With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer table of
the traced ones, plus the tracing overhead (traced minus untraced wall
time); the table and the spans are also written under ``perfbench-out/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks every
workload, for the benchmark's own tests.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("scratch", "rollout", "curriculum")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_score": "score",
}
RUN_LIMIT_S = 170  # a run that has not finished by then is stopped and fails
SETUP_SAMPLES = 9  # set-ups timed per untraced run: one per round, the rest set-up only
MAX_PROBLEMS_SHOWN = 5


class RoundFailed(RuntimeError):
    pass


def worker_env() -> dict:
    """The caller's environment with one BLAS/OpenMP thread and the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_round(args, *flags: str) -> dict:
    """Start one worker process and return its record, with ``setup_s``
    timed from just before the process was started."""
    command = [sys.executable, str(WORKER), args.workload, str(args.seed), str(OUT_DIR), *flags]
    command += ["--tiny"] * args.tiny
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=worker_env(),
                              timeout=max(args.stop_at - time.monotonic(), 0.001))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"the run did not finish within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"a {args.workload} round exited with {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if not Path(record["qasrl"]).resolve().is_relative_to(SRC.resolve()):
        raise RoundFailed(f"the round imported qasrl from {record['qasrl']}, not from {SRC}")
    record["setup_s"] = (record["setup_end"] - spawned) * record["setup_speed"]
    return record


def run_rounds(args) -> list[dict]:
    """Rounds until ``args.seconds`` have passed; with tracing, untraced
    and traced rounds alternate, starting untraced."""
    deadline = time.monotonic() + args.seconds
    rounds = []
    while not rounds or time.monotonic() < deadline or (args.trace and len(rounds) % 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, *["--trace"] * traced) | {"traced": traced})
    return rounds


def count_operations(rounds: list[dict]) -> tuple[int, list[str]]:
    """Every checked result of every round is one operation, and so is
    each later round's repeat of the first round's counts and score."""
    attempted, problems = 0, []
    for record in rounds:
        attempted += len(record["problems"])
        problems += [p for op in record["problems"] if op for p in op[:1]]
    for record in rounds[1:]:
        attempted += 1
        problems += checks.check_repeat(rounds[0]["summary"], record["summary"])[:1]
    return attempted, problems


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """Medians over the rounds; times at the reference speed."""
    walls = [r["wall_s"] * r["speed"] for r in rounds]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "env_steps_per_s": statistics.median(r["summary"]["steps"] / wall
                                             for r, wall in zip(rounds, walls)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "final_score": rounds[0]["summary"]["final_score"],
    }


def per_layer(rounds: list[dict]) -> tuple[dict, dict]:
    """Metric values and units: counts from the first traced round (every
    traced round repeats them), times as medians over traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    values = {}
    for name in tracing.METRICS:
        if name.endswith(("_us", "_s")):
            values[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            values[name] = traced[0]["layers"][name]
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    return values, tracing.METRICS | {"trace.overhead_s": "s"}


def layer_table(values: dict, units: dict) -> str:
    lines = [f"{'layer':42} {'calls':>9} {'p50_us':>10} {'p99_us':>10} {'self_s':>10}"]
    for layer in tracing.LAYERS:
        lines.append(f"{layer:42} {values[layer + '.calls']:>9} "
                     + " ".join(f"{values[f'{layer}.{s}']:>10.4g}" for s in ("p50_us", "p99_us", "self_s")))
    for name in [*tracing.COUNTS, "trace.overhead_s"]:
        lines.append(f"{name:42} {values[name]:.6g} {units[name]}")
    return "\n".join(lines) + "\n"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def measure(args) -> tuple[dict, dict, int, list[str]]:
    """Metric values and units, operations attempted, and the problems
    of those that failed."""
    rounds = run_rounds(args)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.rounds.json").write_text(json.dumps(rounds))
    attempted, problems = count_operations(rounds)
    if args.trace:
        values, units = per_layer(rounds)
        table = layer_table(values, units)
        (OUT_DIR / f"{args.workload}.layers.txt").write_text(table)
        print(table, end="")
    else:
        setups = [r["setup_s"] for r in rounds]
        setups += [run_round(args, "--setup-only")["setup_s"]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        values, units = end_to_end(rounds, setups), END_TO_END
        for name, value in values.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
        print(f"{args.workload}: measured wall time {statistics.median(r['wall_s'] for r in rounds):.6g} s"
              f" at a median reference speed of {statistics.median(r['speed'] for r in rounds):.4g}")
    print(f"{args.workload}: {len(rounds)} rounds, {len(problems)} of {attempted} operations failed")
    return values, units, attempted, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    args.stop_at = time.monotonic() + RUN_LIMIT_S
    # SystemExit makes subprocess.run kill and reap the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "qasrl" / "__init__.py").is_file():
        print(f"perfbench: no qasrl sources at {SRC / 'qasrl'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        values, units, attempted, problems = measure(args)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED: {problem}", file=sys.stderr)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
