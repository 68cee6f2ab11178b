"""Seeded random programs and configurations for property tests.

Generated programs always terminate: the only loops emitted have the
constant guard 0.  That keeps the choice-tree search finite so graph and
tree exploration can be compared verdict for verdict.
"""

from __future__ import annotations

import random

from filesafe import Mode, Program, make_program
from filesafe.machine import (
    Configuration,
    Ctrl,
    FileStore,
    HOLE,
    Hole,
    make_configuration,
)
from filesafe.syntax import (
    And,
    Assign,
    AtomStmt,
    BinOp,
    Close,
    Fork,
    ForkFor,
    ForkIf,
    If,
    IntLit,
    Open,
    Or,
    ReadAt,
    ReadND,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
)

FILES = ("f", "g")
VARS = ("x", "y", "z", "w")
OPS = ("+", "-", "*", "/", "<", "<=", "==", "!=")


def random_expr(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return IntLit(rng.randrange(-2, 4))
    if roll < 0.70:
        return Var(rng.choice(VARS))
    if roll < 0.90:
        return BinOp(
            rng.choice(OPS), random_expr(rng, depth + 1), random_expr(rng, depth + 1)
        )
    node = And if roll < 0.95 else Or
    return node(random_expr(rng, depth + 1), random_expr(rng, depth + 1))


def random_command(rng: random.Random, mode: Mode, depth: int = 0):
    """One atom in statement position.  May get stuck; never diverges."""
    roll = rng.random()
    if roll < 0.40:
        return Assign(Var(rng.choice(VARS)), random_expr(rng))
    if roll < 0.52:
        return Open(rng.choice(FILES))
    if roll < 0.64:
        return Close(rng.choice(FILES))
    if roll < 0.76:
        target = rng.choice(VARS)
        file = rng.choice(FILES)
        if mode is Mode.WHILEF:
            return ReadND(target, rng.choice(VARS), file)
        return ReadAt(target, file, random_expr(rng))
    if roll < 0.86 and depth == 0:
        return If(
            random_expr(rng),
            random_command(rng, mode, depth + 1),
            random_command(rng, mode, depth + 1),
        )
    if roll < 0.92 and depth == 0:
        return While(IntLit(0), random_command(rng, mode, depth + 1))
    return Skip()


def _seq(stmts: list[Stmt]) -> Stmt:
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def random_program(rng: random.Random, mode: Mode) -> Program:
    """A terminating program of at most six atoms, possibly with one fork."""
    n = rng.randrange(1, 7)
    stmts: list[Stmt] = [AtomStmt(random_command(rng, mode)) for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        lo = rng.randrange(0, n - 1)
        hi = rng.randrange(lo + 2, n + 1)
        window = stmts[lo:hi]
        kind = rng.choice(("fork", "forkfor", "forkif"))
        if kind == "fork":
            cut = rng.randrange(1, len(window))
            node: Stmt = Fork((_seq(window[:cut]), _seq(window[cut:])))
        elif kind == "forkfor":
            node = ForkFor(_seq(window))
        else:
            node = ForkIf(tuple((random_expr(rng), s) for s in window))
        stmts[lo:hi] = [node]
    return make_program(mode, _seq(stmts))


def random_store(rng: random.Random) -> FileStore:
    return FileStore.of(
        {
            f: tuple(rng.randrange(0, 9) for _ in range(rng.randrange(0, 4)))
            for f in FILES
        }
    )


def random_safe_config(rng: random.Random) -> Configuration:
    """A fork-free positioned-read configuration, holes and all."""
    frames = [Ctrl(random_command(rng, Mode.SAFE))]
    for _ in range(rng.randrange(0, 3)):
        roll = rng.random()
        if roll < 0.25:
            frames.append(Hole(BinOp(rng.choice(OPS), HOLE, random_expr(rng))))
        elif roll < 0.40:
            left = IntLit(rng.randrange(-2, 4))
            frames.append(Hole(BinOp(rng.choice(OPS), left, HOLE)))
        elif roll < 0.55:
            frames.append(Hole(Assign(Var(rng.choice(VARS)), HOLE)))
        elif roll < 0.70:
            frames.append(
                Hole(If(
                    HOLE,
                    random_command(rng, Mode.SAFE, 1),
                    random_command(rng, Mode.SAFE, 1),
                ))
            )
        elif roll < 0.80:
            frames.append(Hole(ReadAt(rng.choice(VARS), rng.choice(FILES), HOLE)))
        else:
            frames.append(Ctrl(random_command(rng, Mode.SAFE)))
    env = {v: rng.randrange(-1, 4) for v in rng.sample(VARS, rng.randrange(0, 3))}
    status = {f: rng.choice("oc") for f in FILES}
    return make_configuration(frames, env, status, random_store(rng), Mode.SAFE)
