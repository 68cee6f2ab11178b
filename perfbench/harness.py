"""Ops, the correctness gate, and the measurement loops.

An op is one pass over a workload's checks.  Each check calls the public
entry `filesafe.cli.main(["check", ..., "--json", PATH])` in-process with
standard output captured, then reads the written report back with
`json.load`, `Report.from_obj` and `render_text`.  The two parts are timed
separately (`check_s`, `reload_s`) and every answer is compared with the
workload's hand-written expectation.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import filesafe.cli as cli
from filesafe.explorer import Unsafe, oracle_explore, validate_trace
from filesafe.machine import initial_config, is_final, load_fs_spec
from filesafe.report import Report, trace_from_obj
from filesafe.semantics import Bounds, ReadMode, step
from filesafe.syntax import Mode, parse_program

from tracer import DETERMINISTIC_COUNTS, PER_LAYER, Tracer
from workloads import Check, Workload

MIN_OPS = 3          # untraced ops per run, however long each takes
MIN_TRACED_OPS = 2   # traced ops per run, so their counts can be compared
RELOAD_MIN_S = 0.05  # read-back time per op, however small the reports ...
RELOAD_SHARE = 0.1   # ... and at least this share of the op's check time


@dataclass
class OpResult:
    check_s: float = 0.0
    reload_s: float = 0.0
    report_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def verify(check: Check, code: int, stdout: str, obj: dict, text: str) -> list[str]:
    """Every way one check's outputs differ from its expectation."""
    witness = obj.get("witness")
    observed = (
        ("exit code", code, check.exit_code),
        ("stdout", stdout, f"verdict: {check.verdict}\n"),
        ("verdict", obj.get("verdict"), check.verdict),
        ("states", obj.get("states"), check.states),
        ("normal forms", obj.get("normal_forms"), check.normal_forms),
        ("witness steps", len(witness["steps"]) if witness else None, check.witness_steps),
        ("rendered verdict", text.split("\n", 1)[0], f"verdict: {check.verdict}"),
    )
    return [f"{check.label}: {what} {got!r}, expected {want!r}"
            for what, got, want in observed if got != want]


def report_path(workdir: Path, index: int) -> Path:
    return workdir / f"report-{index}.json"


def read_back(report: Path) -> tuple[dict, str]:
    with open(report, encoding="utf-8") as handle:
        obj = json.load(handle)
    return obj, Report.from_obj(obj).render_text()


def run_op(workload: Workload, workdir: Path, main=cli.main,
           repeat_reload: bool = True) -> OpResult:
    """Check every case, then read the reports back.

    With `repeat_reload` the read-back repeats for RELOAD_MIN_S, or
    RELOAD_SHARE of the check time if that is longer, and `reload_s` is
    the time of one pass.  A few-hundred-byte report is then not timed by
    a single file open, and when ops are few and long the read-back still
    samples a good part of the run.
    """
    result = OpResult()
    written = []
    for index, check in enumerate(workload.checks):
        report = report_path(workdir, index)
        report.unlink(missing_ok=True)  # a stale report must not pass for a new one
        out = io.StringIO()
        try:
            start = perf_counter()
            with redirect_stdout(out):
                code = main(check.argv(report))
            result.check_s += perf_counter() - start
            written.append((check, code, out.getvalue(), report))
        except Exception as exc:  # any crash is a failed op, never a skipped one
            result.problems.append(f"{check.label}: {type(exc).__name__}: {exc}")
    loaded = []
    for check, code, stdout, report in written:
        try:
            start = perf_counter()
            obj, text = read_back(report)
            result.reload_s += perf_counter() - start
            result.report_bytes += report.stat().st_size
            result.problems += verify(check, code, stdout, obj, text)
            loaded.append(report)
        except Exception as exc:
            result.problems.append(f"{check.label}: {type(exc).__name__}: {exc}")
    budget = max(RELOAD_MIN_S, RELOAD_SHARE * result.check_s) if repeat_reload else 0.0
    passes = 1
    try:
        while loaded and result.reload_s < budget:
            start = perf_counter()
            for report in loaded:
                read_back(report)
            result.reload_s += perf_counter() - start
            passes += 1
    except Exception as exc:
        result.problems.append(f"read-back pass {passes}: {type(exc).__name__}: {exc}")
    result.reload_s /= passes
    return result


def gate(workload: Workload, workdir: Path) -> list[str]:
    """Checks too slow for every op, run once after the timed region.

    Each unsafe witness written by the last op is replayed with
    `validate_trace` from the program's initial configuration and must end
    stuck; checks marked for it are re-decided by the tree route.
    """
    problems = []
    for index, check in enumerate(workload.checks):
        try:
            problems += _gate_check(check, report_path(workdir, index))
        except Exception as exc:
            problems.append(f"{check.label}: gate {type(exc).__name__}: {exc}")
    return problems


def _gate_check(check: Check, report: Path) -> list[str]:
    problems = []
    program = parse_program(check.program.read_text(encoding="utf-8"),
                            Mode.from_flag(check.mode))
    store, status = load_fs_spec(
        check.fs.read_text(encoding="utf-8") if check.fs else {}, program.files,
    )
    start = initial_config(program, store, status)
    bounds = Bounds(forkfor_max=check.forkfor_max)
    read_mode = ReadMode.from_flag(check.read_mode or "cursor")
    if check.verdict == "unsafe":
        with open(report, encoding="utf-8") as handle:
            trace = trace_from_obj(json.load(handle)["witness"])
        if trace.start != start:
            problems.append(f"{check.label}: witness does not start at the program")
        validate_trace(trace, bounds, read_mode=read_mode)
        if is_final(trace.last) or step(trace.last, bounds, read_mode=read_mode):
            problems.append(f"{check.label}: witness does not end stuck")
    if check.oracle_cross_check:
        verdict = oracle_explore(start, bounds, read_mode=read_mode)
        kind = type(verdict).__name__.lower()
        steps = len(verdict.witness.steps) if isinstance(verdict, Unsafe) else None
        if (kind, steps) != (check.verdict, check.witness_steps):
            problems.append(f"{check.label}: tree route says {kind} ({steps} steps)")
    return problems


def measure(workload: Workload, workdir: Path, seconds: float) -> list[OpResult]:
    """Untraced ops for `seconds`, and at least MIN_OPS of them."""
    results: list[OpResult] = []
    start = perf_counter()
    while len(results) < MIN_OPS or perf_counter() - start < seconds:
        gc.collect()
        results.append(run_op(workload, workdir))
    return results


def end_to_end(workload: Workload, results: list[OpResult]) -> dict[str, float]:
    check_s = statistics.median(r.check_s for r in results)
    return {
        "check_s": check_s,
        "reload_s": statistics.median(r.reload_s for r in results),
        "states_per_s": workload.states_per_op / check_s,
    }


def measure_traced(workload: Workload, workdir: Path, seconds: float, tracer: Tracer):
    """Alternate untraced and traced ops for `seconds`.

    Returns every op's result and the median per-layer metrics.  A traced
    op fails when a deterministic count differs from the first traced op,
    or when a safe check's distinct keys differ from its reported states.
    """
    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    samples: list[dict[str, float]] = []
    traced_main = tracer.span("cli.main", cli.main)
    start = perf_counter()
    while len(traced) < MIN_TRACED_OPS or perf_counter() - start < seconds:
        gc.collect()
        untraced.append(run_op(workload, workdir))
        gc.collect()
        tracer.begin_op(len(traced))
        with tracer.installed():
            result = run_op(workload, workdir, main=traced_main, repeat_reload=False)
        sample = tracer.op_metrics(result.report_bytes)
        sample["trace.check_s"] = result.check_s
        result.problems += trace_problems(workload, tracer, sample, samples[:1])
        traced.append(result)
        samples.append(sample)
    layers = {name: statistics.median(s[name] for s in samples) for name in PER_LAYER}
    layers["trace.overhead_s"] = (
        layers["trace.check_s"] - statistics.median(r.check_s for r in untraced)
    )
    return untraced + traced, layers


def trace_problems(workload: Workload, tracer: Tracer, sample: dict,
                   first: list[dict]) -> list[str]:
    problems = [
        f"{name} is {sample[name]:g}, first traced op had {first[0][name]:g}"
        for name in DETERMINISTIC_COUNTS if first and sample[name] != first[0][name]
    ]
    explores = tracer.op_spans("explorer.explore")
    if len(explores) != len(workload.checks):
        return problems + [f"{len(explores)} explore calls for {len(workload.checks)} checks"]
    for check, span in zip(workload.checks, explores):
        if check.verdict == "safe" and span["distinct"] != check.states:
            problems.append(f"{check.label}: {span['distinct']} distinct keys, "
                            f"report states {check.states}")
    return problems
