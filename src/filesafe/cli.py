"""Command line front end.

    filesafe check prog.wf --mode whilef [--read-mode cursor] [--fs fs.json]
    filesafe run prog.wf --mode whilef [--seed 7 | --first]
    filesafe relax prog.swf [out.wf]

`check` exits 0 for safe, 1 for unsafe, 2 for unknown; `run` exits 0 for
a final run, 1 for stuck, 2 for cutoff.  Usage, parse and spec errors
exit 64, errors writing an output file exit 74 and internal errors exit
70, each with a one-line diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import MissingFileError, ParseError, SpecError
from .explorer import (
    OUTCOME_FINAL, OUTCOME_STUCK, Safe, Unknown, Unsafe, explore, relax_program,
    run_single,
)
from .machine import initial_config, load_fs_spec
from .report import Report, format_trace, trace_to_obj
from .semantics import Bounds, ReadMode
from .syntax import Mode, parse_program, pretty_print


class _OutputError(Exception):
    """Writing an output file failed: not bad input, so not exit 64."""


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _OutputError(exc) from None


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage-error exit code this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("program", help="program source file")
    sub.add_argument("--mode", required=True, choices=[m.value for m in Mode],
                     help="which read form the program uses")
    sub.add_argument("--read-mode", choices=[m.value for m in ReadMode],
                     help="whilef read interpretation (whilef mode only)")
    sub.add_argument("--fs", metavar="PATH", default=None,
                     help="filesystem spec (JSON)")
    sub.add_argument("--forkfor-max", type=int, default=2, metavar="K",
                     help="largest forkfor repetition count (default 2)")
    sub.add_argument("--max-steps", type=int, default=10_000, metavar="N",
                     help="path length bound (default 10000)")
    sub.add_argument("--max-states", type=int, default=1_000_000, metavar="N",
                     help="visited state bound (default 1000000)")
    sub.add_argument("--truthy", action="store_true",
                     help="relax guards: any nonzero value counts as true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser: built on the first call, not at import, then shared."""
    parser = _ArgumentParser(prog="filesafe")
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser,
    )

    check = subs.add_parser(
        "check", help="explore all executions and report a verdict",
    )
    _add_common(check)
    check.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full report as JSON")

    run = subs.add_parser("run", help="execute a single interleaving")
    _add_common(run)
    pick = run.add_mutually_exclusive_group()
    pick.add_argument("--seed", type=int, default=None,
                      help="draw choices from this random seed")
    pick.add_argument("--first", action="store_true",
                      help="always take the first choice (default)")

    relax = subs.add_parser(
        "relax", help="rewrite a safe program into the whilef dialect",
    )
    relax.add_argument("program", help="safe-dialect source file")
    relax.add_argument("output", nargs="?", default=None,
                       help="output path (default: standard output)")
    return parser


def _load(args):
    mode = Mode.from_flag(args.mode)
    if args.read_mode is not None and mode is not Mode.WHILEF:
        raise SpecError("--read-mode applies to whilef programs only")
    read_mode = ReadMode.from_flag(args.read_mode or "cursor")
    with open(args.program, encoding="utf-8") as handle:
        program = parse_program(handle.read(), mode)
    if args.fs is not None:
        with open(args.fs, encoding="utf-8") as handle:
            store, status = load_fs_spec(handle.read(), program.files)
    else:
        store, status = load_fs_spec({}, program.files)
    try:
        bounds = Bounds(
            forkfor_max=args.forkfor_max,
            max_steps_per_path=args.max_steps,
            max_states=args.max_states,
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    config = initial_config(program, store, status)
    return program, config, bounds, read_mode


def cmd_check(args) -> int:
    _, config, bounds, read_mode = _load(args)
    started = time.perf_counter()
    verdict = explore(config, bounds, read_mode=read_mode, truthy=args.truthy)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = Report(
        verdict={Safe: "safe", Unsafe: "unsafe", Unknown: "unknown"}[type(verdict)],
        states=verdict.states_visited if isinstance(verdict, Safe) else None,
        normal_forms=verdict.normal_forms if isinstance(verdict, Safe) else None,
        witness=(
            trace_to_obj(verdict.witness, bounds, read_mode=read_mode, truthy=args.truthy)
            if isinstance(verdict, Unsafe) else None
        ),
        exhausted=verdict.exhausted if isinstance(verdict, Unknown) else None,
        frontier=verdict.frontier if isinstance(verdict, Unknown) else None,
        bounds={
            "forkfor_max": bounds.forkfor_max,
            "max_steps": bounds.max_steps_per_path,
            "max_states": bounds.max_states,
        },
        flags={
            "mode": args.mode,
            "read_mode": read_mode.value,
            "truthy": args.truthy,
        },
        wall_time_ms=round(elapsed_ms, 3),
    )
    if args.json is not None:
        # The text is built before the file is opened, so a report that
        # cannot be encoded leaves no file behind.  Without `indent`, json
        # runs its C encoder.
        _write_file(args.json, json.dumps(report.to_obj(), separators=(",", ":")) + "\n")
        print(f"verdict: {report.verdict}")
    else:
        sys.stdout.write(report.render_text())
    return {"safe": 0, "unsafe": 1, "unknown": 2}[report.verdict]


def cmd_run(args) -> int:
    _, config, bounds, read_mode = _load(args)
    trace = run_single(
        config, bounds, seed=args.seed, read_mode=read_mode, truthy=args.truthy,
    )
    print(*format_trace(trace), sep="\n")
    print(f"outcome: {trace.outcome} after {len(trace.steps)} steps")
    return {OUTCOME_FINAL: 0, OUTCOME_STUCK: 1}.get(trace.outcome, 2)


def cmd_relax(args) -> int:
    with open(args.program, encoding="utf-8") as handle:
        program = parse_program(handle.read(), Mode.SAFE)
    relaxed = relax_program(program)
    text = pretty_print(relaxed) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_file(args.output, text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_relax(args)
    # UnicodeDecodeError: a program or spec file that is not UTF-8.
    # ParseError covers ModeError and NestedForkError.
    except (ParseError, SpecError, MissingFileError, OSError,
            UnicodeDecodeError) as exc:
        print(f"filesafe: {exc}", file=sys.stderr)
        return 64
    except _OutputError as exc:
        print(f"filesafe: {exc}", file=sys.stderr)
        return 74  # EX_IOERR
    except Exception as exc:
        # Last resort, so that no failure exits 1 and reads as "unsafe".
        print(f"filesafe: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
