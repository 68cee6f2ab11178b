"""Machine configurations.

A configuration is a flat control sequence of frames plus a variable
environment, a per-file open/closed status table and a virtual file
store (immutable contents, one read cursor per file).  The control head
is the next thing to execute; the frames behind it are either further
work or holes waiting for a value.

Everything here is immutable.  Environments and status tables are kept
as name-sorted tuples so that structural equality and hashing are
canonical for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MissingFileError, SpecError, UnknownFileError
from .syntax import (
    Assign, Atom, AtomStmt, BinOp, If, IntLit, Mode, Program, ReadAt, Stmt, Var,
)

OPEN = "o"
CLOSED = "c"


# ---------------------------------------------------------------------------
# Frames

@dataclass(frozen=True)
class Ctrl:
    """An atom or statement awaiting execution."""

    item: Atom | Stmt


@dataclass(frozen=True)
class HoleOpRight:
    """`? op right`: the left operand is being evaluated."""

    op: str
    right: Atom


@dataclass(frozen=True)
class HoleOpLeft:
    """`left op ?`: the right operand is being evaluated."""

    left: int
    op: str


@dataclass(frozen=True)
class HoleAssign:
    """`target = ?`: the assigned value is being evaluated."""

    target: str


@dataclass(frozen=True)
class HoleIf:
    """`if ? then .. else ..`: the guard is being evaluated."""

    then_body: Atom | Stmt
    else_body: Atom | Stmt


@dataclass(frozen=True)
class HoleRead:
    """`target = read(file, ?)`: the position is being evaluated."""

    target: str
    file: str


@dataclass(frozen=True)
class Unit:
    """The completed program, written `()` in traces."""


@dataclass(frozen=True)
class Value:
    """A computed integer at the control head."""

    n: int


Frame = Ctrl | HoleOpRight | HoleOpLeft | HoleAssign | HoleIf | HoleRead | Unit | Value

_UNIT = Unit()


def ctrl(item: Atom | Stmt) -> Ctrl:
    """Wrap a control item, unwrapping single-atom statements."""
    if isinstance(item, AtomStmt):
        return Ctrl(item.atom)
    return Ctrl(item)


# ---------------------------------------------------------------------------
# File store

@dataclass(frozen=True)
class FileStore:
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

    def contents(self, file: str) -> tuple[int, ...]:
        for name, data, _ in self.entries:
            if name == file:
                return data
        raise UnknownFileError(f"no such file in store: {file!r}")

    def cursor(self, file: str) -> int:
        for name, _, cur in self.entries:
            if name == file:
                return cur
        raise UnknownFileError(f"no such file in store: {file!r}")

    def with_cursor(self, file: str, cursor: int) -> "FileStore":
        if not self.has(file):
            raise UnknownFileError(f"no such file in store: {file!r}")
        return FileStore(tuple(
            (name, data, cursor if name == file else cur)
            for name, data, cur in self.entries
        ))


# ---------------------------------------------------------------------------
# Configurations

@dataclass(frozen=True)
class Configuration:
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
            nxt = frames[1]
            if isinstance(nxt, HoleOpRight):
                plugged = Ctrl(BinOp(nxt.op, IntLit(head.n), nxt.right))
            elif isinstance(nxt, HoleOpLeft):
                plugged = Ctrl(BinOp(nxt.op, IntLit(nxt.left), IntLit(head.n)))
            elif isinstance(nxt, HoleAssign):
                plugged = Ctrl(Assign(Var(nxt.target), IntLit(head.n)))
            elif isinstance(nxt, HoleIf):
                plugged = Ctrl(If(IntLit(head.n), nxt.then_body, nxt.else_body))
            elif isinstance(nxt, HoleRead):
                plugged = Ctrl(ReadAt(nxt.target, nxt.file, IntLit(head.n)))
            else:
                # Unconsumed result of an expression statement.
                frames.pop(0)
                continue
            frames[:2] = [plugged]
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
        control=normalize_control(control),
        env=tuple(sorted(dict(env).items())),
        status=tuple(sorted(dict(status).items())),
        store=store,
        mode=mode,
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

    Configurations are frozen dataclasses over canonical fields, so
    equal keys mean equal configurations and the key hashes in the
    interpreter.  Search order never depends on the hash, since dicts
    iterate in insertion order.
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
