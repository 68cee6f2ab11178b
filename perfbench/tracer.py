"""Layer tracing from outside the program.

`Tracer.installed()` swaps the names that `filesafe.cli` and
`filesafe.explorer` import for timing wrappers, and puts the originals back
on exit.  Coarse calls (parse, spec load, initial configuration, explore,
report encoding and decoding) become in-memory spans with a parent.  The
calls that fire up to ~10^5 times per check (`step`, `canonical_key`,
`is_final`) are kept only as aggregate time and count.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import filesafe.cli as cli
import filesafe.explorer as explorer
from filesafe.machine import Ctrl
from filesafe.report import Report
from filesafe.syntax import Close, Fork, ForkFor, ForkIf, Open, ReadAt, ReadND

FORK_ITEMS = (Fork, ForkFor, ForkIf)
FILE_ITEMS = (Open, Close, ReadND, ReadAt)

# Counts that must repeat exactly from one traced op to the next.
DETERMINISTIC_COUNTS = (
    "semantics.step.calls",
    "semantics.step.successors",
    "machine.canonical_key.calls",
    "explorer.dup_hits",
)

PER_LAYER = (
    "semantics.step.s", "semantics.step.calls", "semantics.step.successors",
    "semantics.step.fork.s", "semantics.step.fork.successors",
    "semantics.step.expr.s", "semantics.step.file.s",
    "machine.canonical_key.s", "machine.canonical_key.calls",
    "machine.is_final.s",
    "explorer.explore.s", "explorer.explore.self_s",
    "explorer.dup_hits", "explorer.useful_ratio",
    "syntax.parse_program.s", "syntax.parse_program.calls",
    "machine.load_fs_spec.s", "machine.initial_config.s",
    "report.trace_to_obj.s", "report.to_obj.s", "report.bytes",
    "report.from_obj.s", "report.render_text.s",
    "cli.self_s",
    "trace.check_s", "trace.overhead_s",
)


def step_family(config) -> str:
    """The rule family of a step, by the item at the head of the control."""
    head = config.control[0] if config.control else None
    item = head.item if isinstance(head, Ctrl) else None
    if isinstance(item, FORK_ITEMS):
        return "fork"
    if isinstance(item, FILE_ITEMS):
        return "file"
    return "expr"


class Tracer:
    """Spans and aggregate counters for the ops run while installed.

    `totals` holds the current op's aggregates and is cleared by
    `begin_op`; `spans` keeps every op's spans until the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[dict] = []
        self._keys: set[str] | None = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self.totals.clear()

    def op_spans(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["op"] == self.op and s["name"] == name]

    def span(self, name: str, fn):
        """Wrap `fn` so each call records a span under the innermost open one."""
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            record = {"id": len(self.spans), "op": self.op, "name": name,
                      "parent": parent, "start": perf_counter(), "end": None}
            self.spans.append(record)
            self._stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self._stack.pop()
                self.totals[name + ".s"] += record["end"] - record["start"]
                self.totals[name + ".calls"] += 1
        return wrapper

    def _explore(self, fn):
        inner = self.span("explorer.explore", fn)

        def wrapper(*args, **kwargs):
            self._keys = set()
            index = len(self.spans)  # where `inner` records its span
            try:
                return inner(*args, **kwargs)
            finally:
                # Every key explore computes is either the start state, a
                # newly admitted state or a duplicate hit.
                distinct = len(self._keys)
                self.spans[index]["distinct"] = distinct
                self.totals["explorer.distinct"] += distinct
                self.totals["explorer.admitted"] += max(distinct - 1, 0)
                self._keys = None
        return wrapper

    def _step(self, fn):
        totals = self.totals

        def wrapper(config, *args, **kwargs):
            family = step_family(config)
            start = perf_counter()
            out = fn(config, *args, **kwargs)
            elapsed = perf_counter() - start
            totals["semantics.step.s"] += elapsed
            totals["semantics.step.calls"] += 1
            totals["semantics.step.successors"] += len(out)
            totals[f"semantics.step.{family}.s"] += elapsed
            totals[f"semantics.step.{family}.successors"] += len(out)
            return out
        return wrapper

    def _canonical_key(self, fn):
        totals = self.totals

        def wrapper(config):
            start = perf_counter()
            key = fn(config)
            totals["machine.canonical_key.s"] += perf_counter() - start
            totals["machine.canonical_key.calls"] += 1
            if self._keys is not None:
                self._keys.add(key)
            return key
        return wrapper

    def _is_final(self, fn):
        totals = self.totals

        def wrapper(config):
            start = perf_counter()
            out = fn(config)
            totals["machine.is_final.s"] += perf_counter() - start
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        patches = [
            (cli, "parse_program", self.span("syntax.parse_program", cli.parse_program)),
            (cli, "load_fs_spec", self.span("machine.load_fs_spec", cli.load_fs_spec)),
            (cli, "initial_config", self.span("machine.initial_config", cli.initial_config)),
            (cli, "explore", self._explore(cli.explore)),
            (cli, "trace_to_obj", self.span("report.trace_to_obj", cli.trace_to_obj)),
            (explorer, "step", self._step(explorer.step)),
            (explorer, "canonical_key", self._canonical_key(explorer.canonical_key)),
            (explorer, "is_final", self._is_final(explorer.is_final)),
            (Report, "to_obj", self.span("report.to_obj", Report.to_obj)),
            (Report, "render_text", self.span("report.render_text", Report.render_text)),
            (Report, "from_obj",
             staticmethod(self.span("report.from_obj", Report.from_obj))),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapped in patches:
                setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def op_metrics(self, report_bytes: int) -> dict[str, float]:
        """The current op's per-layer metrics, from its spans and totals.

        `trace.check_s` and `trace.overhead_s` are filled in by the caller,
        which also times the untraced ops.
        """
        t = self.totals
        inner = t["semantics.step.s"] + t["machine.canonical_key.s"] + t["machine.is_final.s"]
        main_spans = self.op_spans("cli.main")
        main_ids = {s["id"] for s in main_spans}
        child_s = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in main_ids)
        main_s = sum(s["end"] - s["start"] for s in main_spans)
        successors = t["semantics.step.successors"]
        metrics = {name: t.get(name, 0.0) for name in PER_LAYER}
        metrics.update({
            "explorer.explore.self_s": t["explorer.explore.s"] - inner,
            "explorer.dup_hits": t["machine.canonical_key.calls"] - t["explorer.distinct"],
            "explorer.useful_ratio": t["explorer.admitted"] / successors if successors else 0.0,
            "report.bytes": report_bytes,
            "cli.self_s": main_s - child_s,
        })
        return metrics
