"""Check reports and their JSON form.

The JSON report is lossless: it carries full configurations (control
frames, environment, statuses, file store), so an Unsafe witness can be
deserialized and replayed through the step relation.  Each distinct
syntax node, control frame and rule choice of a witness is stored once,
as a row of its node table, and everything else refers to it by row
index.  Text rendering summarizes the control to its first three frames
to keep traces readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import cycle
from operator import index
from typing import get_args, get_origin, get_type_hints

from .errors import SpecError
from .machine import (
    CLOSED, OPEN, PLUG, Configuration, Ctrl, FileStore, HoleAssign, HoleIf,
    HoleOpLeft, HoleOpRight, HoleRead, Unit, Value, make_configuration,
)
from .semantics import ForkCount, Interleave, OraclePos, RuleInstance, Unique
from .syntax import (
    And, Assign, AtomStmt, BinOp, Fork, ForkFor, ForkIf, If, IntLit, Mode,
    Open, Close, Or, ReadAt, ReadND, Seq, Skip, Var, While, format_node,
)
from .explorer import OUTCOME_CUTOFF, OUTCOME_FINAL, OUTCOME_STUCK, Trace

SCHEMA = "filesafe-report/2"
_VERDICTS = ("safe", "unsafe", "unknown")
_OUTCOMES = (OUTCOME_FINAL, OUTCOME_STUCK, OUTCOME_CUTOFF, None)  # a Trace's outcome
_STATUSES = (OPEN, CLOSED)
_MODES = {mode.value: mode for mode in Mode}


# ---------------------------------------------------------------------------
# Node tables
#
# Syntax nodes, control frames and rule choices share one encoding: a row
# of a node table.  A row is an object whose first key is the tag, then
# one key per dataclass field in declaration order, with tuples written
# as lists.  A field that holds a node holds the index of an earlier row
# instead; the field's declared type, not the JSON value, says which ints
# are references.  Two exceptions keep the schema's names:
# `then_body`/`else_body` are written `then`/`else`, and a `Var` field
# (the assignment target) is written as the bare name.  No two kinds
# share a tag.

_TAGS = {
    "node": {
        IntLit: "int", Var: "var", BinOp: "binop", And: "and", Or: "or",
        Assign: "assign", If: "if", While: "while", Open: "open",
        Close: "close", ReadND: "read-nd", ReadAt: "read-at", Skip: "skip",
        AtomStmt: "stmt", Seq: "seq", Fork: "fork", ForkFor: "forkfor",
        ForkIf: "forkif",
    },
    "frame": {
        Ctrl: "ctrl", HoleOpRight: "hole-op-right", HoleOpLeft: "hole-op-left",
        HoleAssign: "hole-assign", HoleIf: "hole-if", HoleRead: "hole-read",
        Unit: "unit", Value: "value",
    },
    "choice": {
        Unique: "unique", Interleave: "interleave", ForkCount: "fork-count",
        OraclePos: "oracle-pos",
    },
}
_RENAMED = {"then_body": "then", "else_body": "else"}
_SPINES = frozenset({Seq, BinOp, And, Or})  # the classes `_Table.add` walks in a loop


class _Table:
    """The rows of distinct nodes, frames and choices, in order of first occurrence.

    A child's row comes before its parent's.  Nodes are interned, so an
    equal node is the same object, and one dict keyed on the node (by
    identity) finds its row.
    """

    def __init__(self):
        self.rows = []
        self._index = {}

    def add(self, x) -> int:
        """The index of the row of `x`, added after its children's if new.

        A `;` chain is walked down its right spine and an operator run
        down its left spine in a loop, to the first node already in the
        table, and the rows come out in the order recursion would give.
        Rows are built here, not in a helper, so that other nesting costs
        one Python frame per level.
        """
        i = self._index.get(x)
        if i is None:
            todo = [x]
            while type(x) in _SPINES:
                if type(x) is Seq:
                    self.add(x.first)
                    x = x.second
                else:
                    x = x.left
                if x in self._index:
                    break
                todo.append(x)
            for x in reversed(todo):
                tag_key, tag, fields_ = _ENCODE[type(x)]
                row = {tag_key: tag}
                for name, key, encode_value in fields_:
                    row[key] = encode_value(self, getattr(x, name))
                i = self._index[x] = len(self.rows)
                self.rows.append(row)
        return i


def encode(x) -> list:
    """The node table of a syntax node, control frame or rule choice; `x`'s row is last."""
    table = _Table()
    table.add(x)
    return table.rows


def decode(rows) -> list:
    """The objects of the node table `rows`, one per row.

    Rows are read once, in order, and each reference must be the index
    of an earlier row of the kind its field holds, so equal rows decode
    to one shared object.  Raises SpecError for anything `encode` cannot
    have written: a non-object row, an unknown tag, a missing or extra
    key, a value of the wrong JSON type, or a bad reference.
    """
    objects = []
    for row in _check(rows, list, "nodes"):
        obj = None
        if type(row) is dict and row:
            try:
                build, keys = _DECODE[next(iter(row.items()))]
                if len(row) == len(keys) + 1:
                    obj = build(row, objects)
            except (KeyError, TypeError):  # a missing key or a value of the wrong type
                pass
        if obj is None:
            raise SpecError(_diagnose(row))
        objects.append(obj)
    return objects


def _diagnose(row) -> str:
    """Why `row` is not a row that `encode` could have written."""
    if type(row) is not dict or not row:
        return f"expected a node table row, got {row!r:.80}"
    tag_key, tag = next(iter(row.items()))
    entry = _DECODE.get((tag_key, tag)) if type(tag) is str else None
    if entry is None:
        return f"unknown {tag_key:.40} {tag!r:.80}"
    keys = [tag_key, *entry[1]]
    if sorted(row) != sorted(keys):
        return f"{tag_key} {tag!r} needs keys {keys}, got {list(row)}"
    return f"{tag_key} {tag!r} has a value of the wrong type: {row!r:.80}"


def _reference(tag_key: str):
    """The decoder of a reference to an earlier row tagged under `tag_key`."""
    classes = _TAGS[tag_key]

    def decode_reference(value, objects):
        if type(value) is int and 0 <= value < len(objects) and type(objects[value]) in classes:
            return objects[value]
        raise SpecError(f"expected the index of an earlier {tag_key} row, got {value!r:.80}")

    return decode_reference


_REFERENCE = {tag_key: _reference(tag_key) for tag_key in _TAGS}


def _field(hint):
    """(encoder, decoder) of a field of type `hint`.

    An encoder takes the table and the field's value; a decoder takes the
    JSON value and the objects of the rows decoded so far.
    """
    if hint is int:
        return _copy, lambda value, objects: index(value)
    if hint is str:
        return _copy, lambda value, objects: str.__str__(value)  # rejects anything but a string
    if hint is Var:
        return (lambda table, var: var.name), (lambda name, objects: Var(str.__str__(name)))
    if get_origin(hint) is tuple:
        return _tuple_field(get_args(hint))
    return _Table.add, _REFERENCE["node"]


def _copy(table, value):
    return value


def _tuple_field(args):
    """(encoder, decoder) of a `tuple[X, ...]` or `tuple[X, Y]` field, items as `_field`'s."""
    variadic = args[-1] is Ellipsis
    codecs = [_field(arg) for arg in (args[:1] if variadic else args)]

    def encode_items(table, items):
        return [enc(table, item) for (enc, _), item in zip(cycle(codecs), items)]

    def decode_items(value, objects):
        items = _check(value, list, "tuple field")
        if not variadic and len(items) != len(codecs):
            raise SpecError(f"expected {len(codecs)} items, got {items!r:.80}")
        return tuple(dec(item, objects) for (_, dec), item in zip(cycle(codecs), items))

    return encode_items, decode_items


def _build(cls, decoders, row, objects):
    """The `cls` of `row`; `decoders` pairs each key with its field's decoder."""
    return cls(*[decode_value(row[key], objects) for key, decode_value in decoders])


def _fill_tables():
    for tag_key, classes in _TAGS.items():
        for cls, tag in classes.items():
            hints = get_type_hints(cls)
            names = cls.__match_args__
            keys = tuple(_RENAMED.get(name, name) for name in names)
            codecs = [_field(hints[name]) for name in names]
            _ENCODE[cls] = (tag_key, tag, tuple(
                (name, key, enc) for name, key, (enc, _) in zip(names, keys, codecs)
            ))
            decoders = tuple((key, dec) for key, (_, dec) in zip(keys, codecs))
            _DECODE[tag_key, tag] = (partial(_build, cls, decoders), keys)


_ENCODE: dict = {}
_DECODE: dict = {}
_fill_tables()


def _check(value, kind, what):
    if type(value) is not kind:
        json_type = "object" if kind is dict else "array"
        raise SpecError(f"{what} must be a JSON {json_type}, got {value!r:.80}")
    return value


def _unpack(obj, keys, what):
    """The values of a JSON object that must have exactly `keys`, in order."""
    _check(obj, dict, what)
    try:
        if len(obj) == len(keys):
            return [obj[key] for key in keys]
    except KeyError:
        pass
    raise SpecError(f"{what} needs keys {list(keys)}, got {list(obj)}")


def _ints(values) -> bool:
    """Whether each of `values` is an int and not a bool."""
    return {*map(type, values)} <= {int}


# ---------------------------------------------------------------------------
# Configurations and traces

def _config_to_obj(config: Configuration, table: _Table) -> dict:
    return {
        "mode": config.mode.value,
        "control": [table.add(f) for f in config.control],
        "env": {name: value for name, value in config.env},
        "status": {name: st for name, st in config.status},
        "files": {
            name: {"contents": list(data), "cursor": cursor}
            for name, data, cursor in config.store.entries
        },
    }


def _config_from_obj(obj, objects) -> Configuration:
    mode, control, env, status, files = _unpack(
        obj, ("mode", "control", "env", "status", "files"), "configuration",
    )
    known = _MODES.get(mode) if type(mode) is str else None
    if known is None:
        raise SpecError(f"unknown mode {mode!r:.80}")
    entries = []
    for name, entry in sorted(_check(files, dict, "files").items()):
        contents, cursor = _unpack(entry, ("contents", "cursor"), f"file {name!r}")
        if not _ints(_check(contents, list, "contents")):
            raise SpecError(f"contents of file {name!r} must be integers, got {contents!r:.80}")
        if type(cursor) is not int or cursor < 0:
            raise SpecError(
                f"cursor of file {name!r} must be a non-negative integer, got {cursor!r:.80}"
            )
        entries.append((name, tuple(contents), cursor))
    if not _ints(_check(env, dict, "env").values()):
        raise SpecError(f"env values must be integers, got {env!r:.80}")
    if not all(map(_STATUSES.__contains__, _check(status, dict, "status").values())):
        raise SpecError(f"file statuses must be {OPEN!r} or {CLOSED!r}, got {status!r:.80}")
    frame = _REFERENCE["frame"]
    return make_configuration(
        control=[frame(ref, objects) for ref in _check(control, list, "control")],
        env=env,
        status=status,
        store=FileStore(tuple(entries)),
        mode=known,
    )


def trace_to_obj(trace: Trace) -> dict:
    """The JSON object of `trace`: its node table, then configurations that refer to it.

    Consecutive configurations share most of their frames and syntax
    subtrees, and each is one row of the table.
    """
    table = _Table()
    start = _config_to_obj(trace.start, table)
    steps = [
        {
            "rule": rule_instance.rule,
            "choice": table.add(rule_instance.choice),
            "config": _config_to_obj(config, table),
        }
        for rule_instance, config in trace.steps
    ]
    return {"nodes": table.rows, "start": start, "steps": steps, "outcome": trace.outcome}


def trace_from_obj(obj) -> Trace:
    nodes, start, steps, outcome = _unpack(obj, ("nodes", "start", "steps", "outcome"), "trace")
    if outcome not in _OUTCOMES:
        raise SpecError(f"a trace outcome must be one of {_OUTCOMES}, got {outcome!r:.80}")
    objects = decode(nodes)
    return Trace(
        start=_config_from_obj(start, objects),
        steps=tuple(_step_from_obj(entry, objects) for entry in _check(steps, list, "steps")),
        outcome=outcome,
    )


def _step_from_obj(entry, objects):
    rule, choice, config = _unpack(entry, ("rule", "choice", "config"), "trace step")
    if type(rule) is not str:
        raise SpecError(f"a step's rule must be a string, got {rule!r:.80}")
    return (
        RuleInstance(rule, _REFERENCE["choice"](choice, objects)),
        _config_from_obj(config, objects),
    )


# ---------------------------------------------------------------------------
# Text formatting

def format_frame(frame) -> str:
    if isinstance(frame, Ctrl):
        return format_node(frame.item)
    if isinstance(frame, HoleIf):
        # Not PLUG's `if`: the branches print bare, not by the printer's
        # branch rule, and the `/1` trace digest of `bools` pins that text.
        return (
            f"if _ then {format_node(frame.then_body)} "
            f"else {format_node(frame.else_body)}"
        )
    plug = PLUG.get(type(frame))
    if plug is not None:
        # The hole prints as the variable `_`, so the printer adds parentheses.
        return format_node(plug(frame, Var("_")))
    if isinstance(frame, Unit):
        return "()"
    if isinstance(frame, Value):
        return str(frame.n)
    raise TypeError(f"not a frame: {frame!r}")


_SUMMARY_FRAMES = 3


def summarize_control(control, texts=None) -> str:
    """The first `_SUMMARY_FRAMES` frames of `control`, formatted.

    `texts` maps each frame formatted so far to its text, so that
    summaries of controls that share frames format each frame once.
    """
    texts = {} if texts is None else texts
    parts = []
    for frame in control[:_SUMMARY_FRAMES]:
        text = texts.get(frame)
        if text is None:
            text = texts[frame] = format_frame(frame)
        parts.append(text)
    if len(control) > _SUMMARY_FRAMES:
        parts.append("…")
    return " :: ".join(parts)


def format_choice(choice) -> str:
    if isinstance(choice, Unique):
        return "-"
    if isinstance(choice, Interleave):
        return "order=" + "".join(f"({b},{a})" for b, a in choice.order)
    if isinstance(choice, ForkCount):
        return f"k={choice.k}"
    if isinstance(choice, OraclePos):
        return f"n={choice.n}"
    raise TypeError(f"not a choice: {choice!r}")


def format_step(rule_instance: RuleInstance, config: Configuration, texts=None) -> str:
    """One line for a step; `texts` is passed on to `summarize_control`."""
    env_text = ", ".join(f"{n}={v}" for n, v in config.env)
    status_text = ", ".join(f"{n}={s}" for n, s in config.status)
    return (
        f"{rule_instance.rule} [{format_choice(rule_instance.choice)}] "
        f"=> {summarize_control(config.control, texts=texts)} "
        f"| env={{{env_text}}} | files={{{status_text}}}"
    )


def format_trace(trace: Trace) -> list[str]:
    """A start line, then one line per step of `trace`.

    Consecutive configurations share most of their frames, so one memo
    formats each distinct frame once.
    """
    texts = {}
    return [
        f"start: {summarize_control(trace.start.control, texts)}",
        *(format_step(rule_instance, config, texts) for rule_instance, config in trace.steps),
    ]


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Report:
    verdict: str                     # "safe" | "unsafe" | "unknown"
    states: int | None
    normal_forms: int | None
    witness: dict | None             # trace object, present when unsafe
    exhausted: str | None
    frontier: int | None
    bounds: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    def to_obj(self) -> dict:
        return {"schema": SCHEMA, **{name: getattr(self, name) for name in _REPORT_FIELDS}}

    @classmethod
    def from_obj(cls, obj) -> "Report":
        schema = obj.get("schema") if isinstance(obj, dict) else None
        if schema != SCHEMA:
            raise SpecError(f"unsupported report schema {schema!r}")
        _, *values = _unpack(obj, ("schema", *_REPORT_FIELDS), "report")
        for name, value, types in zip(_REPORT_FIELDS, values, _REPORT_TYPES):
            if type(value) not in types:
                raise SpecError(f"report field {name!r} has the wrong type: {value!r:.80}")
        if obj["verdict"] not in _VERDICTS:
            raise SpecError(f"unknown verdict {obj['verdict']!r:.80}")
        return cls(*values)

    def render_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.states is not None:
            lines.append(f"states visited: {self.states}")
        if self.normal_forms is not None:
            lines.append(f"normal forms: {self.normal_forms}")
        if self.exhausted is not None:
            lines.append(f"exhausted: {self.exhausted} (frontier {self.frontier})")
        lines.append("bounds: " + " ".join(
            f"{k}={v}" for k, v in self.bounds.items()
        ))
        lines.append("flags: " + " ".join(
            f"{k}={v}" for k, v in self.flags.items()
        ))
        if self.witness is not None:
            witness = trace_from_obj(self.witness)
            lines.append(f"witness ({len(witness.steps)} steps):")
            lines.extend("  " + line for line in format_trace(witness))
        lines.append(f"wall time: {self.wall_time_ms:.1f} ms")
        return "\n".join(lines) + "\n"


def _json_types(hint) -> tuple[type, ...]:
    """The exact JSON value types a field of type `hint` accepts; a float takes an int."""
    types = get_args(hint) or (hint,)
    return (*types, int) if float in types else types


_REPORT_FIELDS = Report.__match_args__
_REPORT_TYPES = tuple(_json_types(hint) for hint in get_type_hints(Report).values())
