"""One round of one workload, in the fresh process that ``run.py`` starts.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR [--trace] [--tiny] [--setup-only]

Set-up (the imports, then building the workload) runs first, then
``SETUP_CHUNKS`` reference chunks that give the machine's speed just
after set-up, then the timed section, then the checks; ``--setup-only``
stops after the reference chunks.  Without ``--trace`` the timed section
runs with ``reference.Reference`` interleaved, and its wall time leaves
out the chunks' time.  The last line of standard output is one JSON
object: when set-up ended on the system's monotonic clock (so that the
parent can time set-up from the moment it started this process), the
reference speed after set-up and during the timed section, the timed
wall time, the peak resident set, the workload's summary, one list of
problems per checked operation and, with ``--trace``, the per-layer
table of ``tracing.Tracer``, whose spans are saved under OUT_DIR.
"""

import argparse
import json
import resource
import tempfile
import time
from pathlib import Path

import qasrl

import reference
import tracing
import workloads

SETUP_CHUNKS = 20


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, Path(workdir))
        tracer = tracing.Tracer().install() if args.trace else None
        setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
        reference.chunk()  # warm-up
        at_setup = reference.Reference()
        at_setup.run(SETUP_CHUNKS)
        if args.setup_only:
            print(json.dumps({"qasrl": qasrl.__file__, "setup_end": setup_end,
                              "setup_speed": at_setup.speed}))
            return
        timed = None if args.trace else reference.Reference().install()
        start = time.perf_counter()
        workload.run()
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        if timed is not None:
            timed.uninstall()
            wall_s -= timed.seconds
        problems = workload.check()
        summary = workload.summary()
    layers = None
    if tracer is not None:
        tracer.save(args.out_dir / f"{args.workload}.spans.npz")
        layers = tracer.table()
    print(json.dumps({
        "qasrl": qasrl.__file__,
        "setup_end": setup_end,
        "setup_speed": at_setup.speed,
        "speed": timed.speed if timed is not None else None,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "summary": summary,
        "problems": problems,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
