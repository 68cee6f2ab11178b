"""One fresh benchmark worker process for one workload.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up time runs from the first line of this file to the moment the
workload's inputs are ready, so it covers importing `filesafe.cli`.  The
worker starts no threads.  Its last line of output is one JSON object;
`run.py` starts it and reads that line.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402  (imports after the set-up clock starts)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(workload, workdir, args)
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, workdir: Path, args) -> dict:
    tracer = Tracer() if args.trace else None
    if tracer is None:
        results = harness.measure(workload, workdir, args.seconds)
        metrics = harness.end_to_end(workload, results)
        # ru_maxrss is in KiB on Linux; read it before the gate allocates.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        results, metrics = harness.measure_traced(workload, workdir, args.seconds, tracer)
    gate_problems = harness.gate(workload, workdir)
    problems = [p for r in results for p in r.problems] + gate_problems
    failed = sum(1 for r in results if r.problems) + (1 if gate_problems else 0)
    if tracer is not None:
        write_spans(tracer, args)
    return {
        "attempted": len(results) + 1,  # the ops, and the gate as one more
        "failed": failed,
        "metrics": metrics,
        "check_s_samples": [r.check_s for r in results],
        "problems": problems[:20],
    }


def write_spans(tracer: Tracer, args) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
