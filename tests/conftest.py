"""Shared fixtures: the bundled corpus manifest and small search helpers."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from filesafe import (
    Bounds,
    Configuration,
    Mode,
    Program,
    ReadMode,
    canonical_key,
    initial_config,
    load_fs_spec,
    parse_program,
    step,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@dataclass(frozen=True)
class CorpusCase:
    """One corpus program plus the flags it is meant to be checked under."""

    name: str
    mode: Mode
    read_mode: ReadMode
    verdict: str  # "safe" or "unsafe" under the canonical flags
    forkfor_max: int = 2

    @property
    def path(self) -> Path:
        ext = "wf" if self.mode is Mode.WHILEF else "swf"
        return CORPUS_DIR / f"{self.name}.{ext}"

    @property
    def fs_path(self) -> Path:
        return CORPUS_DIR / f"{self.name}.fs.json"

    def program(self) -> Program:
        return parse_program(self.path.read_text(), self.mode)

    def config(self) -> Configuration:
        program = self.program()
        source = self.fs_path.read_text() if self.fs_path.exists() else "{}"
        store, status = load_fs_spec(source, program.files)
        return initial_config(program, store, status)

    def bounds(self, **overrides) -> Bounds:
        return Bounds(forkfor_max=self.forkfor_max, **overrides)


_C = ReadMode.CURSOR
_O = ReadMode.ORACLE

CORPUS = tuple(
    CorpusCase(name, mode, rm, verdict)
    for name, mode, rm, verdict in [
        ("skip", Mode.WHILEF, _C, "safe"),
        ("final_value", Mode.WHILEF, _C, "safe"),
        ("arith", Mode.WHILEF, _C, "safe"),
        ("bools", Mode.WHILEF, _C, "safe"),
        ("loop", Mode.WHILEF, _C, "safe"),
        ("guard_stuck", Mode.WHILEF, _C, "unsafe"),
        ("div_zero", Mode.WHILEF, _C, "unsafe"),
        ("open_close", Mode.WHILEF, _C, "safe"),
        ("open_twice", Mode.WHILEF, _C, "unsafe"),
        ("close_twice", Mode.WHILEF, _C, "unsafe"),
        ("close_unopened", Mode.WHILEF, _C, "unsafe"),
        ("read_closed", Mode.WHILEF, _C, "unsafe"),
        ("seq_read", Mode.WHILEF, _C, "safe"),
        ("read_eof", Mode.WHILEF, _C, "safe"),
        ("forkfor_pointer", Mode.WHILEF, _C, "safe"),
        ("fork_race", Mode.WHILEF, _C, "safe"),
        ("forkif_guarded", Mode.WHILEF, _C, "safe"),
        ("oracle_predicate", Mode.WHILEF, _O, "unsafe"),
        ("safe_read", Mode.SAFE, _C, "safe"),
        ("safe_pos_expr", Mode.SAFE, _C, "safe"),
        ("safe_fork", Mode.SAFE, _C, "safe"),
        ("safe_forkif", Mode.SAFE, _C, "safe"),
        ("safe_read_closed", Mode.SAFE, _C, "unsafe"),
        ("safe_neg_pos", Mode.SAFE, _C, "unsafe"),
        ("safe_seq", Mode.SAFE, _C, "safe"),
    ]
)

BY_NAME = {case.name: case for case in CORPUS}


def corpus_case(name: str) -> CorpusCase:
    return BY_NAME[name]


def corpus_cases(*, mode: Mode | None = None, verdict: str | None = None):
    return [
        c
        for c in CORPUS
        if (mode is None or c.mode is mode)
        and (verdict is None or c.verdict == verdict)
    ]


def fired_rules(
    c0: Configuration, bounds: Bounds, *, read_mode: ReadMode = ReadMode.CURSOR
) -> set[str]:
    """Rule names used on any edge of the reachable state graph."""
    seen = {canonical_key(c0)}
    frontier = [c0]
    rules: set[str] = set()
    while frontier:
        config = frontier.pop()
        for inst, succ in step(config, bounds, read_mode=read_mode):
            rules.add(inst.rule)
            key = canonical_key(succ)
            if key not in seen:
                seen.add(key)
                frontier.append(succ)
    return rules


@pytest.fixture
def corpus():
    return CORPUS


@pytest.fixture
def default_digit_limit():
    """Python's default 4,300-digit int/str conversion limit for one test,
    whatever PYTHONINTMAXSTRDIGITS says."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
