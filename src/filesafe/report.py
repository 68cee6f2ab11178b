"""Check reports and their JSON form.

Every configuration of a run follows from the program, its files and the
nondeterministic choices made along the way, so an Unsafe witness stores
just those: the program body as a node table, its files as a filesystem
spec, the rules it ran under, and one rule and choice per step.
Decoding rebuilds the start configuration and replays each step through
the step relation, so a witness that decodes is a run of its program.
Text rendering summarizes the control to its first three frames to keep
traces readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import cycle
from typing import get_args, get_origin, get_type_hints

from .errors import SpecError
from .machine import Ctrl, Hole, Unit, Value, initial_config, load_fs_spec, plug
from .semantics import _OPS, Bounds, ReadMode, RuleInstance, take
from .syntax import (
    And, Assign, AtomStmt, BinOp, Fork, ForkFor, ForkIf, If, IntLit, Mode,
    Open, Close, Or, Program, ReadAt, ReadND, Seq, Skip, Var, While, format_int,
    format_node,
)
from .explorer import OUTCOME_CUTOFF, OUTCOME_FINAL, OUTCOME_STUCK, Trace

SCHEMA = "filesafe-report/3"
_VERDICTS = ("safe", "unsafe", "unknown")
_OUTCOMES = (OUTCOME_FINAL, OUTCOME_STUCK, OUTCOME_CUTOFF, None)  # a Trace's outcome


# ---------------------------------------------------------------------------
# Node tables
#
# A syntax node is stored as a row of a node table: an object whose first
# key is "node", with the tag as its value, then one key per dataclass
# field in declaration order, with tuples written as lists.  A field that
# holds a node holds the index of an earlier row instead; the field's
# declared type, not the JSON value, says which ints are references.  Two
# exceptions keep the schema's names: `then_body`/`else_body` are written
# `then`/`else`, and a `Var` field (the assignment target) is written as
# the bare name.  Decoding also checks what the types say beyond JSON: a
# reference is to a node of the field's kind, and a `binop` operator is
# one `step` can apply.

_TAGS = {
    IntLit: "int", Var: "var", BinOp: "binop", And: "and", Or: "or",
    Assign: "assign", If: "if", While: "while", Open: "open", Close: "close",
    ReadND: "read-nd", ReadAt: "read-at", Skip: "skip", AtomStmt: "stmt",
    Seq: "seq", Fork: "fork", ForkFor: "forkfor", ForkIf: "forkif",
}
_RENAMED = {"then_body": "then", "else_body": "else"}
_SPINES = frozenset({Seq, BinOp, And, Or})  # the classes `_Table.add` walks in a loop
_FORKS = frozenset({Fork, ForkFor, ForkIf})  # a row of one may not hold another


class _Table:
    """The rows of distinct nodes, in order of first occurrence.

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
                tag, fields_ = _ENCODE[type(x)]
                row = {"node": tag}
                for name, key, encode_value in fields_:
                    row[key] = encode_value(self, getattr(x, name))
                i = self._index[x] = len(self.rows)
                self.rows.append(row)
        return i


def encode(node) -> list:
    """The node table of a syntax node; `node`'s row is last."""
    table = _Table()
    table.add(node)
    return table.rows


def decode(rows) -> list:
    """The nodes of the node table `rows`, one per row.

    Rows are read once, in order, and each reference must be the index
    of an earlier row, so equal rows decode to one shared node.  Raises
    SpecError for anything `encode` cannot have written: a non-object
    row, an unknown tag, a missing or extra key, a value of the wrong
    JSON type, a bad reference, an unknown operator, or a fork-family
    statement that holds another, which the parser forbids.
    """
    objects = []
    forky = set()  # the nodes that are or hold a fork-family statement
    for row in _check(rows, list, "nodes"):
        obj = None
        if type(row) is dict:
            try:
                build, keys = _DECODE[row.get("node")]
                if len(row) == len(keys) + 1:
                    obj = build(row, objects)
            except (KeyError, TypeError):  # a missing key, an unhashable tag or a wrong type
                pass
        if obj is None:
            raise SpecError(_diagnose(row))
        holds_fork = bool(forky) and _holds(obj, forky)
        if holds_fork and type(obj) in _FORKS:
            raise SpecError(f"row {len(objects)}: a {row['node']} may not hold another fork")
        if holds_fork or type(obj) in _FORKS:
            forky.add(obj)
        objects.append(obj)
    return objects


def _holds(node, nodes) -> bool:
    """Whether a field of `node`, or an item of a tuple field, is one of `nodes`.

    Each row's children are decoded before it, so one pass in row order
    marks every node that holds a fork, without walking a shared subtree
    once per path to it.
    """
    values = [getattr(node, name) for name in node.__match_args__]
    for value in values:  # grows by the items of tuple fields
        if type(value) is tuple:
            values.extend(value)
        elif value in nodes:
            return True
    return False


def _diagnose(row) -> str:
    """Why `row` is not a row that `encode` could have written."""
    if type(row) is not dict:
        return f"expected a node table row, got {row!r:.80}"
    tag = row.get("node")
    entry = _DECODE.get(tag) if type(tag) is str else None
    if entry is None:
        return f"unknown node {tag!r:.80}"
    keys = ["node", *entry[1]]
    if sorted(row) != sorted(keys):
        return f"node {tag!r} needs keys {keys}, got {list(row)}"
    return f"node {tag!r} has a value of the wrong type: {row!r:.80}"


def _reference(kinds, value, objects):
    """The node of an earlier row, from its index; its class must be one of `kinds`."""
    if type(value) is int and 0 <= value < len(objects) and type(objects[value]) in kinds:
        return objects[value]
    raise SpecError(f"expected the index of an earlier row of the right kind, got {value!r:.80}")


def _operator(value, objects):
    """A `binop` operator; `&&` and `||` have rows of their own."""
    if type(value) is str and value in _OPS:
        return value
    raise SpecError(f"unknown operator {value!r:.80}")


def _field(hint):
    """(encoder, decoder) of a field of type `hint`.

    An encoder takes the table and the field's value; a decoder takes the
    JSON value and the objects of the rows decoded so far.
    """
    if hint is int or hint is str:
        return _copy, partial(_exact, hint)
    if hint is Var:
        return (lambda table, var: var.name), (lambda name, objs: Var(_exact(str, name, objs)))
    if get_origin(hint) is tuple:
        return _tuple_field(get_args(hint))
    return _Table.add, partial(_reference, frozenset(get_args(hint)))  # a union of node classes


def _exact(kind, value, objects):
    """`value`, a JSON value of exactly the type `kind`: a bool is not an int."""
    if type(value) is kind:
        return value
    raise SpecError(f"expected a JSON {kind.__name__}, got {value!r:.80}")


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
    for cls, tag in _TAGS.items():
        hints = get_type_hints(cls)
        names = cls.__match_args__
        keys = tuple(_RENAMED.get(name, name) for name in names)
        codecs = [
            (_copy, _operator) if (cls, name) == (BinOp, "op") else _field(hints[name])
            for name in names
        ]
        _ENCODE[cls] = (tag, tuple(
            (name, key, enc) for name, key, (enc, _) in zip(names, keys, codecs)
        ))
        decoders = tuple((key, dec) for key, (_, dec) in zip(keys, codecs))
        _DECODE[tag] = (partial(_build, cls, decoders), keys)


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


# ---------------------------------------------------------------------------
# Traces

_WITNESS_KEYS = (
    "mode", "read_mode", "truthy", "forkfor_max", "nodes", "files", "steps", "outcome",
)


def _start(mode: Mode, body, files: dict):
    """The start configuration of `body` over exactly the files of the spec `files`."""
    return initial_config(Program(mode, body, frozenset(files)), *load_fs_spec(files))


def _choice(rule, value):
    """The choice of a step from its JSON value: null, an int, or a fork's [branch, atom] pairs."""
    if value is None or type(value) is int:
        return value
    if rule == "fork" and type(value) is list and all(
        type(pair) is list and list(map(type, pair)) == [int, int] for pair in value
    ):
        return tuple(map(tuple, value))
    raise SpecError(f"a {rule!r:.80} step has no choice {value!r:.80}")


def trace_to_obj(trace: Trace, bounds: Bounds, *, read_mode: ReadMode, truthy: bool) -> dict:
    """The JSON object of `trace`, a run of a program under these rules.

    Raises ValueError unless `trace` starts at the start configuration
    of a program: one whole body at the control head, an empty
    environment and every cursor at 0.
    """
    start = trace.start
    head = start.control[0]  # a literal body is already a value
    body = IntLit(head.n) if type(head) is Value else getattr(head, "item", None)
    files = {
        name: {"status": status, "contents": list(data)}
        for (name, data, _), (_, status) in zip(start.store.entries, start.status)
    }
    if body is None or _start(start.mode, body, files) is not start:
        raise ValueError("a witness must start at the start configuration of its program")
    return {
        "mode": start.mode.value,
        "read_mode": read_mode.value,
        "truthy": truthy,
        "forkfor_max": bounds.forkfor_max,
        "nodes": encode(body),
        "files": files,
        "steps": [  # a fork's order as a list of lists, as JSON reads it back
            [label.rule, list(map(list, label.choice)) if type(label.choice) is tuple
             else label.choice]
            for label, _ in trace.steps
        ],
        "outcome": trace.outcome,
    }


def trace_from_obj(obj) -> Trace:
    """The trace of the witness `obj`, every configuration rebuilt by replay.

    Raises SpecError for a malformed witness, and for a step whose rule
    and choice are not on offer from the configuration before it.
    """
    mode, read_mode, truthy, forkfor_max, nodes, files, steps, outcome = _unpack(
        obj, _WITNESS_KEYS, "witness",
    )
    try:
        mode, read_mode = Mode(mode), ReadMode(read_mode)
    except ValueError as exc:  # Enum's "... is not a valid Mode"
        raise SpecError(str(exc)[:120]) from None
    if type(truthy) is not bool:
        raise SpecError(f"truthy must be true or false, got {truthy!r:.80}")
    if type(forkfor_max) is not int or forkfor_max < 0:
        raise SpecError(f"forkfor_max must be a non-negative integer, got {forkfor_max!r:.80}")
    if outcome not in _OUTCOMES:
        raise SpecError(f"a trace outcome must be one of {_OUTCOMES}, got {outcome!r:.80}")
    objects = decode(nodes)
    if not objects:
        raise SpecError("a witness needs at least one node")
    bounds = Bounds(forkfor_max=forkfor_max)
    config = start = _start(mode, objects[-1], _check(files, dict, "files"))
    replayed = []
    for entry in _check(steps, list, "steps"):
        if type(entry) is not list or len(entry) != 2:
            raise SpecError(f"a step must be a [rule, choice] pair, got {entry!r:.80}")
        rule, value = entry
        taken = take(config, rule, _choice(rule, value), bounds,
                     read_mode=read_mode, truthy=truthy)
        if taken is None:
            raise SpecError(f"step {len(replayed)} {entry!r:.80} is not on offer")
        replayed.append(taken)
        config = taken[1]
    return Trace(start=start, steps=tuple(replayed), outcome=outcome)


# ---------------------------------------------------------------------------
# Text formatting

def format_frame(frame) -> str:
    if isinstance(frame, Ctrl):
        return format_node(frame.item)
    if isinstance(frame, Hole):
        node = frame.node
        if isinstance(node, If):
            # Not the printer's `if`: the branches print bare, not by its
            # branch rule, and the `/1` trace digest of `bools` pins that text.
            return f"if _ then {format_node(node.then_body)} else {format_node(node.else_body)}"
        # The hole prints as the variable `_`, so the printer adds parentheses.
        return format_node(plug(frame, Var("_")))
    if isinstance(frame, Unit):
        return "()"
    if isinstance(frame, Value):
        return format_int(frame.n)
    raise TypeError(f"not a frame: {frame!r}")


_SUMMARY_FRAMES = 3
_SUMMARY_FRAME_CHARS = 200  # a longer frame text is cut, so a step's line stays short


def summarize_control(control, texts=None) -> str:
    """The first `_SUMMARY_FRAMES` frames of `control`, formatted.

    Each frame's text is cut to `_SUMMARY_FRAME_CHARS` characters, the
    last of them `…`.  `texts` maps each frame formatted so far to its
    text, so that summaries of controls that share frames format each
    frame once.
    """
    texts = {} if texts is None else texts
    parts = []
    for frame in control[:_SUMMARY_FRAMES]:
        text = texts.get(frame)
        if text is None:
            text = format_frame(frame)
            if len(text) > _SUMMARY_FRAME_CHARS:
                text = text[:_SUMMARY_FRAME_CHARS - 1] + "…"
            texts[frame] = text
        parts.append(text)
    if len(control) > _SUMMARY_FRAMES:
        parts.append("…")
    return " :: ".join(parts)


def format_choice(rule_instance: RuleInstance) -> str:
    choice = rule_instance.choice
    if choice is None:
        return "-"
    if rule_instance.rule == "fork":
        return "order=" + "".join(f"({b},{a})" for b, a in choice)
    if rule_instance.rule == "forkfor":
        return f"k={choice}"
    return f"n={choice}"


def format_step(rule_instance: RuleInstance, config, texts=None) -> str:
    """One line for a step; `texts` is passed on to `summarize_control`."""
    env_text = ", ".join(f"{n}={format_int(v)}" for n, v in config.env)
    status_text = ", ".join(f"{n}={s}" for n, s in config.status)
    return (
        f"{rule_instance.rule} [{format_choice(rule_instance)}] "
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
