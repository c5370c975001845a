"""One benchmark process: set a workload up, then (unless --setup-only) time it.

Started by ``run.py`` once per sample so that set-up includes interpreter
start-up and imports, and so that peak memory is this workload's alone.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the parent")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import hostclock
    import pref2constraint
    import tracing
    import workloads

    if not Path(pref2constraint.__file__).resolve().is_relative_to(SRC):
        print(f"imported {pref2constraint.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pilot = workloads.Pilot.load()
        workload = workloads.WORKLOADS[args.workload](pilot, workdir, args.seed)
        setup_wall_s = time.monotonic() - args.spawned_at
        setup_s = hostclock.host_seconds(setup_wall_s, [hostclock.reference_kernel()])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        problems = workloads.check_pilot_golden(pilot, workdir)
        if args.trace:
            # Half the time untraced, half traced: their ratio is the tracing overhead.
            untraced = workload.measure(args.seconds / 2)
            tracer = tracing.Tracer(workloads.kind_of, workloads.FUNCTIONAL_KINDS)
            tracer.install(workloads, getattr(workload, "backend", None))
            m = workload.measure(args.seconds / 2, tracer)
            problems += untraced.problems
        else:
            m = workload.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += m.problems + workload.verify()
        result = dict(
            m.summary(), setup_s=setup_s, setup_wall_s=setup_wall_s, peak_rss_mb=peak_rss_mb, problems=problems
        )
        if args.trace:
            tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            result["layers"] = tracer.summary(m.attempted / workload.items_per_pass)
            result["layers"]["trace.speed_ratio"] = m.items_per_s() / untraced.items_per_s()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
