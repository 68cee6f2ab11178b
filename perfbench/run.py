"""The filesafe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it finds the checkout from its own location and runs
the program from `src/` there.  It starts fresh worker processes one at a
time and waits for each: with `--trace 0`, several that only set the
workload up (for `setup_s`) and then one that measures it untraced; with
`--trace 1`, one that alternates untraced and traced ops and reports the
per-layer metrics.  The last line of output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
seed, per-op samples and the Python version, core count and platform, is
written to `perfbench/out/`.  Without the program's sources next to it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import CORPUS, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_WORKERS = 6
DEADLINE_S = 170.0  # the whole run, set-up workers included


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and decode its last line of output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, stdout=subprocess.PIPE,
        text=True, timeout=max(deadline - monotonic(), 1.0), check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "filesafe" / "cli.py", CORPUS) if not p.exists()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [run_worker([*common, "--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_WORKERS)]
        result = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline,
        )
    except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median([*setups, result["setup_s"]])
    units = metric_units()
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({**summary, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "setup_s_samples": setups,
                   "check_s_samples": result["check_s_samples"],
                   "problems": result["problems"]}, handle, indent=1)
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def metric_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
