"""Record paired perfbench runs of a parent checkout and a change as one BENCH_<n>.json.

    python3 scripts/bench_record.py --parent ../parent --change . --out BENCH_9.json \\
        --note "what the change does" --claim scratch:env_steps_per_s \\
        --pairs scratch=201-210 rollout=211-213 curriculum=214-216 --trace scratch=217,218

Both directories are checkouts holding perfbench/, BENCHMARK.json and
src/qasrl; the record names each side's commit and whether its tree had
uncommitted changes, as it names the machine.  For each seed of a
workload the two sides run

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

one after the other; the side that runs first alternates from pair to pair,
starting with the parent.  Every line a run prints is kept.  Each --trace
seed runs the same command with --trace 1 once per side, and tier-1
(pytest) runs once per checkout, recording the seconds its acceptance
fixture's setup took.  Everything runs one process at a time, and the
record is rewritten after every run, so an interrupted recording keeps
what it measured.  A workload BENCHMARK.json does not define, one named
twice in --pairs, and a checkout whose src/ or perfbench/ holds cached
bytecode are refused before anything runs, and every run gets
PYTHONDONTWRITEBYTECODE=1, so that none is written while it records.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=5"]
# pytest's --durations line for the acceptance suite's setup, which trains its module fixture.
ACCEPTANCE_SETUP = re.compile(r"^([0-9.]+)s setup\s+\S*tests/test_acceptance\.py::")
# The line of a perfbench run that gives the median speed of reference.py around its rounds.
REFERENCE_SPEED = re.compile(r" at a median reference speed of ([0-9.eE+-]+)$")


def seeds(spec: str) -> tuple[str, list[int]]:
    """'scratch=201-210' or 'scratch=217,218' -> ('scratch', [seeds])."""
    workload, _, values = spec.partition("=")
    if "-" in values:
        lo, hi = values.split("-")
        return workload, list(range(int(lo), int(hi) + 1))
    return workload, [int(v) for v in values.split(",")]


def child_env(**extra: str) -> dict[str, str]:
    """The environment of every run: the recorder's own plus ``extra``, and no bytecode written,
    so tier-1 leaves no src/qasrl/__pycache__ for the perfbench runs after it to load."""
    return {**os.environ, **extra, "PYTHONDONTWRITEBYTECODE": "1"}


def run(cwd: Path, argv: list[str], **extra_env: str) -> list[str]:
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, env=child_env(**extra_env))
    if proc.returncode:
        raise SystemExit(f"{cwd}: {' '.join(argv)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.stdout.splitlines()


def acceptance_setup_s(lines: list[str]) -> float | None:
    """Seconds of the acceptance fixture's setup in tier-1's output, None if no --durations line names it."""
    return next((float(m.group(1)) for line in lines if (m := ACCEPTANCE_SETUP.match(line))), None)


def reference_speed(lines: list[str]) -> float | None:
    """The median reference speed a perfbench run printed, None if no line gives it."""
    return next((float(m.group(1)) for line in lines if (m := REFERENCE_SPEED.search(line))), None)


def perfbench(cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return run(cwd, [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", f"{seconds:g}", "--trace", str(trace)])


def values(lines: list[str]) -> dict[str, float]:
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def quartiles(xs) -> list[float]:
    return [round(float(q), 6) for q in np.percentile(xs, [25, 50, 75])]


def relative(delta: float, reference: float) -> float:
    """delta as a fraction of |reference|; infinite for a nonzero delta from a zero reference."""
    if reference:
        return delta / abs(reference)
    return math.copysign(math.inf, delta) if delta else 0.0


def summarize(pairs: list[dict], end_to_end: list[dict], claim: str | None) -> dict:
    """Per end-to-end metric (BENCHMARK.json's entries: name, better, bound):
    each side's quartiles, the pairs the change won or tied, the shift of the
    change's median from the parent's as a fraction of the parent's, whether
    that shift is within the metric's bound, and whether the parent's own
    spread leaves it unresolved.  Under "reference_speed", each side's
    quartiles of the median reference speed its runs printed (None where a
    run printed none): how fast the machine ran while the side was timed."""
    speeds = {side: [reference_speed(pair[side]) for pair in pairs] for side in SIDES}
    out = {"reference_speed": {f"{side}_q1_median_q3": None if None in runs else quartiles(runs)
                               for side, runs in speeds.items()}}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        p = np.array([values(pair["parent"])[name] for pair in pairs])
        c = np.array([values(pair["change"])[name] for pair in pairs])
        sign = 1.0 if metric["better"] == "higher" else -1.0
        q1, med, q3 = np.percentile(p, [25, 50, 75])
        shift, spread = relative(float(np.median(c) - med), med), relative(float(q3 - q1), med)
        row = {"parent_q1_median_q3": quartiles(p), "change_q1_median_q3": quartiles(c),
               "change_better_pairs": int((sign * (c - p) > 0).sum()), "ties": int((c == p).sum()),
               "pairs": len(pairs), "median_shift": round(shift, 4), "parent_spread": round(spread, 4),
               "within_bound": bool(-sign * shift <= bound),
               # A parent spread wider than the bound cannot tell a shift within it from noise,
               # unless every run of the change is better than every run of the parent.
               "unresolved": bool(spread > bound and (sign * c).min() <= (sign * p).max())}
        if name == claim:
            row["claim_met"] = bool(row["change_better_pairs"] >= 0.9 * len(pairs)
                                    and sign * (np.median(c) - med) > q3 - q1)
        out[name] = row
    return out


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs (SkylakeX, Haswell, ...; it follows
    OPENBLAS_CORETYPE), or 'unknown' where that library does not name it."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": blas_core(), "cpu": cpu,
            "cores": os.cpu_count(), "os": platform.system(),
            # Without cached bytecode each perfbench worker compiles qasrl: its setup_s and peak_rss_mb rise.
            "dont_write_bytecode": bool(child_env().get("PYTHONDONTWRITEBYTECODE"))}


def checkout(d: Path) -> dict:
    """The commit checked out in ``d`` and whether its tree has uncommitted changes
    (``git status --porcelain`` prints anything), both 'unknown' where ``d`` is not a git checkout."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(d), *argv], capture_output=True, text=True, check=True).stdout

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return {"commit": "unknown", "uncommitted_changes": "unknown"}
    return {"commit": head.strip(), "uncommitted_changes": bool(status)}


def workloads_error(bench: dict, pairs: list[tuple[str, list[int]]], trace: list[tuple[str, list[int]]]) -> str | None:
    """Why --pairs and --trace cannot run as given, or None when they can: each workload they name
    must be one of BENCHMARK.json's, and --pairs must name each once, since a second list would replace the first."""
    defined = [w["name"] for w in bench["workloads"]]
    for flag, specs in (("--pairs", pairs), ("--trace", trace)):
        if unknown := next((name for name, _ in specs if name not in defined), None):
            return f"{flag}: {unknown!r} is not a workload of BENCHMARK.json ({', '.join(defined)})"
    named = [name for name, _ in pairs]
    if twice := next((name for name in named if named.count(name) > 1), None):
        return f"--pairs: workload {twice!r} is named twice; give all its seeds in one list"
    return None


def claim_error(claim: str, bench: dict, pairs: list[tuple[str, list[int]]]) -> str | None:
    """Why the summaries could not judge ``workload:metric``, or None when they can: the workload
    must be one of BENCHMARK.json's and have --pairs, and the metric one of its end-to-end metrics."""
    workload, _, metric = claim.partition(":")
    if workload not in {w["name"] for w in bench["workloads"]}:
        return f"--claim {claim}: {workload!r} is not a workload of BENCHMARK.json"
    if workload not in {name for name, _ in pairs}:
        return f"--claim {claim}: workload {workload!r} has no --pairs"
    names = [m["name"] for m in bench["end_to_end"]]
    if metric not in names:
        return f"--claim {claim}: {metric!r} is not an end-to-end metric ({', '.join(names)})"
    return None


def bytecode_dir(d: Path) -> Path | None:
    """The first ``__pycache__`` directory under ``d``'s src/ or perfbench/ that holds .pyc files, or None."""
    return next((pyc.parent for sub in ("src", "perfbench") for pyc in sorted((d / sub).glob("**/__pycache__/*.pyc"))),
                None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", required=True, help="what the change does")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--pairs", nargs="+", type=seeds, default=[])
    parser.add_argument("--trace", nargs="*", type=seeds, default=[])
    args = parser.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    if error := workloads_error(bench, args.pairs, args.trace):
        parser.error(error)
    if args.claim and (error := claim_error(args.claim, bench, args.pairs)):
        parser.error(error)
    for cached in filter(None, map(bytecode_dir, dirs.values())):
        parser.error(f"{cached} holds compiled bytecode, which lowers perfbench's setup_s and peak_rss_mb; remove it")
    claim_workload, _, claim_metric = (args.claim or "").partition(":")
    record = {
        "change": args.note,
        "machine": machine(),
        "code": {side: checkout(d) for side, d in dirs.items()},
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {bench['run_seconds']} --trace 0",
            "pairing": "one pair per seed, the two sides one after the other, "
                       "alternating which runs first (the parent in the first pair)",
            "tier1": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
        },
        "regression_rule": "each metric's median_shift no worse than its bound; unresolved where the "
                           "parent's quartile distance over its median exceeds the bound and some run of "
                           "the change is not better than every run of the parent",
        "claim": {"workload": claim_workload, "metric": claim_metric,
                  "rule": "change better in at least 9 of 10 pairs and medians apart "
                          "by more than the parent's quartile distance"} if args.claim else None,
        "src_qasrl_lines": {side: sum(len(p.read_text().splitlines())
                                      for p in sorted((d / "src" / "qasrl").glob("*.py")))
                            for side, d in dirs.items()},
        "tier1": {}, "workloads": {}, "traced": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for side, d in dirs.items():
        start = time.monotonic()
        lines = run(d, TIER1, PYTHONPATH="src")
        record["tier1"][side] = {"summary": lines[-1], "wall_s": round(time.monotonic() - start, 2),
                                 "acceptance_setup_s": acceptance_setup_s(lines)}
        save()
    for workload, workload_seeds in args.pairs:
        pairs = []
        record["workloads"][workload] = {"pairs": pairs}
        for i, seed in enumerate(workload_seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(dirs[side], workload, seed, bench["run_seconds"], 0)
            pairs.append(pair)
            record["workloads"][workload]["summary"] = summarize(
                pairs, bench["end_to_end"], claim_metric if workload == claim_workload else None)
            record["workloads"][workload]["failed_operations_total"] = {
                side: sum(json.loads(pair[side][-1])["failed"] for pair in pairs) for side in SIDES}
            save()
    for workload, workload_seeds in args.trace:
        runs = record["traced"].setdefault(workload, [])
        for i, seed in enumerate(workload_seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            traced = {"seed": seed, "first": order[0]}
            for side in order:
                traced[side] = perfbench(dirs[side], workload, seed, bench["run_seconds"], 1)
            layers = {side: values(traced[side]) for side in SIDES}
            counts = [name for name in layers["parent"] if name.endswith(".calls")]
            traced["calls_differing"] = [name for name in counts
                                         if layers["parent"][name] != layers["change"].get(name)]
            traced["self_s"] = {name[:-len(".self_s")]: {side: round(layers[side][name], 4) for side in SIDES}
                                for name in layers["parent"] if name.endswith(".self_s")
                                and layers["parent"][name] > 0}
            runs.append(traced)
            save()


if __name__ == "__main__":
    main()
