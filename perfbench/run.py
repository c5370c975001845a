#!/usr/bin/env python3
"""Benchmark of the pref2constraint pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload replicated --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``replicated`` (run + eval over a 520-record
corpus), ``rescore`` (eval over 2964 outputs lines) and ``functional``
(check_functional on four problem kinds).  Each sample runs in its own
process (``worker.py``).  With ``--trace 0`` one process times the workload
for ``--seconds`` and checks its outputs, and six more only set up, for the
median set-up time.  With ``--trace 1`` one process times half the run
untraced and half traced and reports the per-layer metrics.  The last line
of standard output is one JSON object with the metrics named in
BENCHMARK.json; the exit code is 1 when an output check fails and 2 when the
checkout lacks the package or its fixtures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = (
    "BENCHMARK.json",
    "src/pref2constraint/__init__.py",
    "src/pref2constraint/resources/mock/mock_responses.json",
    "tests/goldens/eval_report.json",
)
WORKLOADS = ("replicated", "rescore", "functional")
SETUP_ONLY_SAMPLES = 6  # plus the measuring process: set-up is the median of 7
DEADLINE_S = 170
# Set and dict layouts follow the hash seed, and example selection's speed
# follows them: one replicated pass took 1.9 s under one seed and 2.3 s
# under another.  A fixed seed keeps that from varying between runs.
HASH_SEED = "0"


class ChildFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, deadline: float, trace: int = 0, setup_only: bool = False) -> dict:
    """Run worker.py once and return the JSON object it prints last."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(OUT),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=HASH_SEED),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args.workload} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"not a pref2constraint checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    try:
        run = spawn(args, deadline, trace=args.trace)
        if args.trace:
            values = run["layers"]
            wanted = spec["per_layer"]
        else:
            setups = [run["setup_s"]]
            setups += [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_ONLY_SAMPLES)]
            run["setup_samples_s"] = setups
            values = dict(
                run,
                setup_s=statistics.median(setups),
                ok_ratio=(run["attempted"] - run["failed"]) / run["attempted"],
            )
            wanted = spec["end_to_end"]
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print(f"BENCHMARK.json names metrics this benchmark does not make: {unknown}", file=sys.stderr)
        return 2
    problems = run["problems"]
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    host = {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host,
        worker={key: value for key, value in run.items() if key != "layers"},
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {run['ops']} timed operations, "
        f"{run['latency_samples']} latency samples; {host['cpus']} cpus, Python {host['python']}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
