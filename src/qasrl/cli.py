"""Command line front end: run one experiment, the full curriculum, or
re-render a plot from a saved run log."""

import argparse
import dataclasses
import sys
from pathlib import Path

from .experiments import ExperimentConfig, RunLog, emit_plot, run_curriculum, run_single


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qasrl",
        description="Quantum circuit search with deep Q-learning and policy reuse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one policy on one environment")
    run_p.add_argument("--config", help="key = value config file; flags override it")
    run_p.add_argument("--env", dest="env_id", type=int, help="environment id")
    run_p.add_argument("--mode")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--episodes", type=int)
    run_p.add_argument("--library", help="policy library directory (ppr mode)")
    run_p.add_argument("--out", help="output directory")

    cur_p = sub.add_parser("curriculum", help="train environments 0..5 in order")
    cur_p.add_argument("--seed", type=int, default=0)
    cur_p.add_argument("--episodes", type=int, default=ExperimentConfig.episodes)
    cur_p.add_argument("--out", default="runs/curriculum", help="output directory; its finished stages are kept")

    plot_p = sub.add_parser("plot", help="render a score plot from a run log")
    plot_p.add_argument("--log", required=True, help="runlog.csv to read")
    plot_p.add_argument("--out", required=True, help="SVG file to write")
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    config = dataclasses.replace(config, **{f.name: value for f in dataclasses.fields(config)
                                            if (value := getattr(args, f.name, None)) is not None})
    try:
        log, _ = run_single(config)
    except MemoryError as exc:  # numpy's message names none of the settings that sized the arrays
        sizes = ", ".join(f"{name} = {getattr(config, name)}" for name in ("replay_capacity", "hidden1", "hidden2"))
        raise MemoryError(f"{args.config}: {sizes}: {exc}" if args.config else f"{sizes}: {exc}") from None
    out = Path(config.out)
    rolling_csv, image = emit_plot(log, out / "scores.svg")
    final = log.rolling_mean()[-1] if len(log) else float("nan")
    print(f"env {config.env_id} mode {config.mode} seed {config.seed}: "
          f"{len(log)} episodes, final rolling-mean score {final:.4f}")
    print(f"wrote {out / 'runlog.csv'}, {rolling_csv} and {image}")
    return 0


def _cmd_curriculum(args) -> int:
    logs = run_curriculum(args.seed, args.out, episodes=args.episodes)
    for env_id, log in logs:
        final = log.rolling_mean()[-1] if len(log) else float("nan")
        print(f"env {env_id}: {len(log)} episodes, final rolling-mean score {final:.4f}")
    print(f"library at {Path(args.out) / 'library'}")
    return 0


def _cmd_plot(args) -> int:
    log = RunLog.from_csv(args.log)
    rolling_csv, image = emit_plot(log, args.out)
    print(f"wrote {image} and {rolling_csv}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "curriculum": _cmd_curriculum, "plot": _cmd_plot}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
