"""Machine configurations.

A configuration is a flat control sequence of frames plus a variable
environment, a per-file open/closed status table and a virtual file
store (immutable contents, one read cursor per file).  The control head
is the next thing to execute; the frames behind it are either further
work or holes waiting for a value.

Everything here is immutable and hash-consed: frames, file stores and
configurations subclass `syntax.Interned`, which makes each a frozen
dataclass with identity equality and builds it once per distinct value.
So equal configurations are one object, and comparing or hashing one
costs the same whatever its control holds.  Environments and status
tables are kept as name-sorted tuples, so each value has one
representation to intern.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, Mapping

from .errors import MissingFileError, SpecError, UnknownFileError
from .syntax import (
    Assign, Atom, AtomStmt, BinOp, If, IntLit, Interned, Mode, Program, ReadAt,
    Stmt, Var,
)

OPEN = "o"
CLOSED = "c"


# ---------------------------------------------------------------------------
# Frames

class Ctrl(Interned):
    """An atom or statement awaiting execution."""

    item: Atom | Stmt


class HoleOpRight(Interned):
    """`? op right`: the left operand is being evaluated."""

    op: str
    right: Atom


class HoleOpLeft(Interned):
    """`left op ?`: the right operand is being evaluated."""

    left: int
    op: str


class HoleAssign(Interned):
    """`target = ?`: the assigned value is being evaluated."""

    target: str


class HoleIf(Interned):
    """`if ? then .. else ..`: the guard is being evaluated."""

    then_body: Atom | Stmt
    else_body: Atom | Stmt


class HoleRead(Interned):
    """`target = read(file, ?)`: the position is being evaluated."""

    target: str
    file: str


class Unit(Interned):
    """The completed program, written `()` in traces."""


class Value(Interned):
    """A computed integer at the control head."""

    n: int


Frame = Ctrl | HoleOpRight | HoleOpLeft | HoleAssign | HoleIf | HoleRead | Unit | Value

_UNIT = Unit()

# What each hole frame stands for, given the atom that fills its hole:
# `normalize_control` plugs in a value, and the report printer plugs in
# the variable `_`.
PLUG = {
    HoleOpRight: lambda hole, atom: BinOp(hole.op, atom, hole.right),
    HoleOpLeft: lambda hole, atom: BinOp(hole.op, IntLit(hole.left), atom),
    HoleAssign: lambda hole, atom: Assign(Var(hole.target), atom),
    HoleIf: lambda hole, atom: If(atom, hole.then_body, hole.else_body),
    HoleRead: lambda hole, atom: ReadAt(hole.target, hole.file, atom),
}


def ctrl(item: Atom | Stmt) -> Ctrl:
    """Wrap a control item, unwrapping single-atom statements."""
    if isinstance(item, AtomStmt):
        return Ctrl(item.atom)
    return Ctrl(item)


# ---------------------------------------------------------------------------
# File store

class FileStore(Interned):
    """Immutable file contents plus one read cursor per file."""

    entries: tuple[tuple[str, tuple[int, ...], int], ...]  # (name, contents, cursor)

    @classmethod
    def of(cls, contents: Mapping[str, Iterable[int]]) -> "FileStore":
        entries = tuple(
            (name, tuple(contents[name]), 0) for name in sorted(contents)
        )
        return cls(entries)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.entries)

    def has(self, file: str) -> bool:
        return any(name == file for name, _, _ in self.entries)

    def _entry(self, file: str) -> tuple[str, tuple[int, ...], int]:
        for entry in self.entries:
            if entry[0] == file:
                return entry
        raise UnknownFileError(f"no such file in store: {file!r}")

    def contents(self, file: str) -> tuple[int, ...]:
        return self._entry(file)[1]

    def cursor(self, file: str) -> int:
        return self._entry(file)[2]

    def with_cursor(self, file: str, cursor: int) -> "FileStore":
        self._entry(file)  # raises UnknownFileError
        return FileStore(tuple(
            (name, data, cursor if name == file else cur)
            for name, data, cur in self.entries
        ))


# ---------------------------------------------------------------------------
# Configurations

class Configuration(Interned):
    control: tuple[Frame, ...]
    env: tuple[tuple[str, int], ...]      # sorted by name
    status: tuple[tuple[str, str], ...]   # sorted by name, values "o"/"c"
    store: FileStore
    mode: Mode


def env_get(config: Configuration, name: str) -> int | None:
    """Look a variable up; None marks the unbound case."""
    for var, value in config.env:
        if var == name:
            return value
    return None


def env_bind(env: tuple[tuple[str, int], ...], name: str, value: int):
    d = dict(env)
    d[name] = value
    return tuple(sorted(d.items()))


def status_of(config: Configuration, file: str) -> str | None:
    for name, st in config.status:
        if name == file:
            return st
    return None


def set_status(status: tuple[tuple[str, str], ...], file: str, st: str):
    return tuple((name, st if name == file else old) for name, old in status)


def normalize_control(frames: Iterable[Frame]) -> tuple[Frame, ...]:
    """Canonicalize a control sequence.

    Bare integer literals at the head become values, a value ahead of a
    hole is plugged back into it, a value nobody consumes is dropped,
    and an empty control collapses to the unit frame.  After this, Unit
    and Value appear only as a whole one-frame control.
    """
    frames = list(frames)
    while True:
        if not frames:
            return (_UNIT,)
        head = frames[0]
        if isinstance(head, Ctrl):
            if isinstance(head.item, AtomStmt):
                frames[0] = Ctrl(head.item.atom)
                continue
            if isinstance(head.item, IntLit):
                frames[0] = Value(head.item.n)
                continue
            return tuple(frames)
        if isinstance(head, Value):
            if len(frames) == 1:
                return tuple(frames)
            plug = PLUG.get(type(frames[1]))
            if plug is None:
                # Unconsumed result of an expression statement.
                frames.pop(0)
            else:
                frames[:2] = [Ctrl(plug(frames[1], IntLit(head.n)))]
            continue
        if isinstance(head, Unit) and len(frames) > 1:
            frames.pop(0)
            continue
        return tuple(frames)


def make_configuration(
    control: Iterable[Frame],
    env: Mapping[str, int] | Iterable[tuple[str, int]],
    status: Mapping[str, str] | Iterable[tuple[str, str]],
    store: FileStore,
    mode: Mode,
) -> Configuration:
    """Assemble a configuration with canonical field representations."""
    return Configuration(
        normalize_control(control),
        tuple(sorted(dict(env).items())),
        tuple(sorted(dict(status).items())),
        store,
        mode,
    )


def initial_config(
    program: Program,
    store: FileStore,
    status: Mapping[str, str],
) -> Configuration:
    """The starting configuration: whole body at the control head.

    The store and status must cover every file the program names; the
    configuration is restricted to exactly those files and all cursors
    start at zero.
    """
    status = dict(status)
    for f in sorted(program.files):
        if not store.has(f):
            raise MissingFileError(f"program file {f!r} has no store entry")
        if f not in status:
            raise MissingFileError(f"program file {f!r} has no status entry")
        if status[f] not in (OPEN, CLOSED):
            raise MissingFileError(
                f"program file {f!r} has invalid status {status[f]!r}"
            )
    entries = tuple(
        (name, data, 0) for name, data, _ in store.entries if name in program.files
    )
    return make_configuration(
        control=[ctrl(program.body)],
        env={},
        status={f: status[f] for f in program.files},
        store=FileStore(entries),
        mode=program.mode,
    )


def is_final(config: Configuration) -> bool:
    """Final means the control is exactly unit or a single value."""
    if len(config.control) != 1:
        return False
    return isinstance(config.control[0], (Unit, Value))


def canonical_key(config: Configuration) -> Configuration:
    """The search key of a configuration: the configuration itself.

    Configurations are interned, so equal configurations are the same
    object, and a key compares and hashes by identity.  Search order
    never depends on the hash, since dicts iterate in insertion order.
    """
    return config


# ---------------------------------------------------------------------------
# Filesystem spec documents
#
# {"f": {"status": "o", "contents": [5, 6]}, ...} with both entry fields
# optional; files the program names but the document does not default to
# closed and empty.

def load_fs_spec(
    source: str | dict,
    program_files: Iterable[str] = (),
) -> tuple[FileStore, dict[str, str]]:
    """Parse a filesystem spec document into a store and status map.

    `source` is JSON text or an already-decoded document.  Files listed
    in `program_files` but absent from the document get the defaults.
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SpecError(f"filesystem spec is not valid JSON: {exc}") from None
        except ValueError:  # the only other one: int() past its digit limit
            raise SpecError(
                "filesystem spec has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        except RecursionError:
            raise SpecError("filesystem spec is nested too deeply") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SpecError("filesystem spec must be a JSON object of file entries")
    contents: dict[str, tuple[int, ...]] = {}
    status: dict[str, str] = {}
    for name, entry in doc.items():
        if not isinstance(entry, dict):
            raise SpecError(f"entry for {name!r} must be an object")
        for key in entry:
            if key not in ("status", "contents"):
                raise SpecError(f"unknown key {key!r} in entry for {name!r}")
        st = entry.get("status", CLOSED)
        if st not in (OPEN, CLOSED):
            raise SpecError(
                f"key 'status' of {name!r} must be {OPEN!r} or {CLOSED!r}, got {st!r}"
            )
        data = entry.get("contents", [])
        if not isinstance(data, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in data
        ):
            raise SpecError(f"key 'contents' of {name!r} must be a list of integers")
        contents[name] = tuple(data)
        status[name] = st
    for f in program_files:
        contents.setdefault(f, ())
        status.setdefault(f, CLOSED)
    return FileStore.of(contents), status
