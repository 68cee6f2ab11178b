"""Check reports and their JSON form.

The JSON report is lossless: it carries full configurations (control
frames as structured nodes, environment, statuses, file store), so an
Unsafe witness can be deserialized and replayed through the step
relation.  Text rendering summarizes the control to its first three
frames to keep traces readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter, index
from typing import get_args, get_origin, get_type_hints

from .errors import SpecError
from .machine import (
    Configuration, Ctrl, FileStore, HoleAssign, HoleIf, HoleOpLeft,
    HoleOpRight, HoleRead, Unit, Value, make_configuration,
)
from .semantics import ForkCount, Interleave, OraclePos, RuleInstance, Unique
from .syntax import (
    And, Assign, AtomStmt, BinOp, Fork, ForkFor, ForkIf, If, IntLit, Mode,
    Open, Close, Or, ReadAt, ReadND, Seq, Skip, Stmt, Var, While,
    format_atom, format_stmt,
)
from .explorer import Trace

SCHEMA = "filesafe-report/1"
_VERDICTS = ("safe", "unsafe", "unknown")


# ---------------------------------------------------------------------------
# Nodes, frames and choices
#
# Syntax nodes, control frames and rule choices share one encoding: an
# object whose first key is the tag, then one key per dataclass field in
# declaration order, with tuples written as lists.  Two exceptions keep
# the schema's names: `then_body`/`else_body` are written `then`/`else`,
# and a `Var` field (the assignment target) is written as the bare name.

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


def encode(x) -> dict:
    """The JSON object of a syntax node, control frame or rule choice."""
    tag_key, tag, fields_ = _ENCODE[type(x)]
    obj = {tag_key: tag}
    for name, key, encode_value in fields_:
        value = getattr(x, name)
        obj[key] = value if encode_value is None else encode_value(value)
    return obj


def decode(tag_key: str, obj):
    """Inverse of `encode` for an object tagged under `tag_key`.

    Raises SpecError for anything `encode` cannot have written: a
    non-object where an object belongs, an unknown tag, a missing or
    extra key, or a value of the wrong JSON type.
    """
    return _DECODERS[tag_key](obj)


def _decoder(tag_key: str, table: dict):
    """The decode function for objects tagged under `tag_key`.

    `table` maps each tag to the function that builds the object's
    class and the object's size.
    """
    def decode_tagged(obj):
        try:
            build, size = table[obj[tag_key]]
            if len(obj) == size:
                return build(obj)
        except (KeyError, TypeError):
            pass
        raise SpecError(_diagnose(tag_key, obj))

    return decode_tagged


def _diagnose(tag_key: str, obj) -> str:
    """Why `obj` is not an object that `encode` could have tagged `tag_key`."""
    if type(obj) is not dict:
        return f"expected a {tag_key} object, got {obj!r:.80}"
    tag = obj.get(tag_key)
    if type(tag) is not str or tag not in _DECODE[tag_key]:
        return f"unknown {tag_key} {tag!r:.80}"
    keys = [tag_key, *_KEYS[tag_key, tag]]
    if sorted(obj) != sorted(keys):
        return f"{tag_key} {tag!r} needs keys {keys}, got {list(obj)}"
    return f"{tag_key} {tag!r} has a value of the wrong type: {obj!r:.80}"


def _field(hint):
    """(encoder, decoder) of a field of type `hint`; a None encoder copies the value."""
    if hint is int:
        return None, index
    if hint is str:
        return None, str.__str__  # rejects anything but a string
    if hint is Var:
        return attrgetter("name"), lambda name: Var(str.__str__(name))
    if get_origin(hint) is tuple:
        return _encode_items, _decode_items
    return encode, _DECODERS["node"]


def _encode_items(items: tuple) -> list:
    return [
        _encode_items(v) if type(v) is tuple
        else encode(v) if type(v) in _ENCODE
        else v
        for v in items
    ]


def _decode_items(value) -> tuple:
    # Inside a tuple field every object is a node and every list a tuple.
    return tuple(
        _decode_items(v) if type(v) is list
        else _DECODERS["node"](v) if type(v) is dict
        else v
        for v in _check(value, list, "tuple field")
    )


def _builder(cls, keys, decoders):
    """A function that builds `cls` from the decoded values of `keys`.

    Spelled out for up to three fields, the most any class has, so that
    decoding a node costs one call beyond decoding its fields.  A class
    with more fields fails here, at import.
    """
    if not keys:
        return lambda obj: cls()
    if len(keys) == 1:
        (k0,), (d0,) = keys, decoders
        return lambda obj: cls(d0(obj[k0]))
    if len(keys) == 2:
        (k0, k1), (d0, d1) = keys, decoders
        return lambda obj: cls(d0(obj[k0]), d1(obj[k1]))
    (k0, k1, k2), (d0, d1, d2) = keys, decoders
    return lambda obj: cls(d0(obj[k0]), d1(obj[k1]), d2(obj[k2]))


def _fill_tables():
    for tag_key, classes in _TAGS.items():
        for cls, tag in classes.items():
            hints = get_type_hints(cls)
            names = [f.name for f in fields(cls)]
            keys = tuple(_RENAMED.get(name, name) for name in names)
            codecs = [_field(hints[name]) for name in names]
            _ENCODE[cls] = (tag_key, tag, tuple(
                (name, key, enc) for name, key, (enc, _) in zip(names, keys, codecs)
            ))
            decoders = [dec for _, dec in codecs]
            _DECODE[tag_key][tag] = (_builder(cls, keys, decoders), len(keys) + 1)
            _KEYS[tag_key, tag] = keys


_ENCODE: dict = {}
_DECODE: dict = {tag_key: {} for tag_key in _TAGS}
_KEYS: dict = {}
_DECODERS = {tag_key: _decoder(tag_key, table) for tag_key, table in _DECODE.items()}
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
# Configurations and traces

def config_to_obj(config: Configuration) -> dict:
    return {
        "mode": config.mode.value,
        "control": [encode(f) for f in config.control],
        "env": {name: value for name, value in config.env},
        "status": {name: st for name, st in config.status},
        "files": {
            name: {"contents": list(data), "cursor": cursor}
            for name, data, cursor in config.store.entries
        },
    }


def config_from_obj(obj) -> Configuration:
    mode, control, env, status, files = _unpack(
        obj, ("mode", "control", "env", "status", "files"), "configuration",
    )
    try:
        mode = Mode(mode)
    except ValueError:
        raise SpecError(f"unknown mode {mode!r:.80}") from None
    entries = []
    for name, entry in sorted(_check(files, dict, "files").items()):
        contents, cursor = _unpack(entry, ("contents", "cursor"), f"file {name!r}")
        entries.append((name, tuple(_check(contents, list, "contents")), cursor))
    return make_configuration(
        control=map(_DECODERS["frame"], _check(control, list, "control")),
        env=_check(env, dict, "env"),
        status=_check(status, dict, "status"),
        store=FileStore(tuple(entries)),
        mode=mode,
    )


def trace_to_obj(trace: Trace) -> dict:
    return {
        "start": config_to_obj(trace.start),
        "steps": [
            {
                "rule": rule_instance.rule,
                "choice": encode(rule_instance.choice),
                "control_summary": summarize_control(config.control),
                "config": config_to_obj(config),
            }
            for rule_instance, config in trace.steps
        ],
        "outcome": trace.outcome,
    }


def trace_from_obj(obj) -> Trace:
    start, steps, outcome = _trace_parts(obj)
    return Trace(start=start, steps=tuple(steps), outcome=outcome)


def _trace_parts(obj):
    """The start, a lazy iterator over the steps, and the outcome of a trace.

    Steps decode one at a time, so a caller that formats and drops them
    never holds the whole decoded trace.
    """
    start, steps, outcome = _unpack(obj, ("start", "steps", "outcome"), "trace")
    return config_from_obj(start), map(_step_from_obj, _check(steps, list, "steps")), outcome


def _step_from_obj(entry):
    rule, choice, _, config = _unpack(
        entry, ("rule", "choice", "control_summary", "config"), "trace step",
    )
    return (
        RuleInstance(rule, _DECODERS["choice"](choice)),
        config_from_obj(config),
    )


# ---------------------------------------------------------------------------
# Text formatting

def format_frame(frame) -> str:
    if isinstance(frame, Ctrl):
        return _format_item(frame.item)
    if isinstance(frame, HoleOpRight):
        return f"_ {frame.op} {format_atom(frame.right)}"
    if isinstance(frame, HoleOpLeft):
        return f"{frame.left} {frame.op} _"
    if isinstance(frame, HoleAssign):
        return f"{frame.target} = _"
    if isinstance(frame, HoleIf):
        return (
            f"if _ then {_format_item(frame.then_body)} "
            f"else {_format_item(frame.else_body)}"
        )
    if isinstance(frame, HoleRead):
        return f"{frame.target} = read({frame.file}, _)"
    if isinstance(frame, Unit):
        return "()"
    if isinstance(frame, Value):
        return str(frame.n)
    raise TypeError(f"not a frame: {frame!r}")


def _format_item(item) -> str:
    return format_stmt(item) if isinstance(item, Stmt) else format_atom(item)


def summarize_control(control, limit: int = 3) -> str:
    parts = [format_frame(f) for f in control[:limit]]
    if len(control) > limit:
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


def format_step(rule_instance: RuleInstance, config: Configuration) -> str:
    env_text = ", ".join(f"{n}={v}" for n, v in config.env)
    status_text = ", ".join(f"{n}={s}" for n, s in config.status)
    return (
        f"{rule_instance.rule} [{format_choice(rule_instance.choice)}] "
        f"=> {summarize_control(config.control)} "
        f"| env={{{env_text}}} | files={{{status_text}}}"
    )


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
            start, steps, _ = _trace_parts(self.witness)
            step_lines = ["  " + format_step(*step) for step in steps]
            lines.append(f"witness ({len(step_lines)} steps):")
            lines.append(f"  start: {summarize_control(start.control)}")
            lines.extend(step_lines)
        lines.append(f"wall time: {self.wall_time_ms:.1f} ms")
        return "\n".join(lines) + "\n"


def _json_types(hint) -> tuple[type, ...]:
    """The exact JSON value types a field of type `hint` accepts; a float takes an int."""
    types = get_args(hint) or (hint,)
    return (*types, int) if float in types else types


_REPORT_FIELDS = tuple(f.name for f in fields(Report))
_REPORT_TYPES = tuple(_json_types(hint) for hint in get_type_hints(Report).values())
