"""The small-step rules.

`step` maps a configuration to every immediate successor, each labeled
with the rule that produced it and the nondeterministic choice it made.
Rules are dispatched so that at most one rule matches any non-fork head;
the fork family and the oracle read are the only sources of multiple
successors.  An empty successor list together with a non-final
classification is how stuckness shows up; nothing raises for it.

Rule names, with their choices where not None:

  lookup               variable to its bound value
  op-freeze-left       start evaluating the left operand of a binop
  op-freeze-right      start evaluating the right operand
  op-apply             combine two literals (division by zero is stuck)
  and-desugar          a && b  ->  if a then b else 0
  or-desugar           a || b  ->  if a then 1 else b
  assign-freeze        start evaluating the assigned value
  assign-apply         bind the target, leave the value on the control
  if-freeze            start evaluating the guard
  if-true / if-false   take a branch on guard exactly 1 / exactly 0
  while-unroll         one conditional unrolling
  open / close         flip the file status, open resets the cursor
  read-nd              whilef read; cursor mode advances the cursor,
                       oracle mode enumerates every position (the int)
  read-at              safe read at an evaluated position
  seq                  split a sequence into two control entries
  fork                 one successor per branch interleaving (its
                       (branch, atom) pairs); with `distinct`, one per
                       distinct laid-out sequence; with `order`, that
                       interleaving alone
  forkfor              one successor per repetition count (the int)
  forkif               wrap every arm in a guarded if, then fork
  skip                 drop the head
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .machine import (
    CLOSED, OPEN, Configuration, Ctrl, FileStore, HoleAssign, HoleIf,
    HoleOpLeft, HoleOpRight, HoleRead, Value, ctrl, env_bind, env_get,
    normalize_control, set_status, status_of,
)
from .syntax import (
    And, Assign, AtomStmt, BinOp, Fork, ForkFor, ForkIf, If, IntLit, Interned,
    Mode, Open, Close, Or, ReadAt, ReadND, Seq, Skip, Var, While, atoms_of,
)


class ReadMode(enum.Enum):
    """How a whilef read picks its position."""

    CURSOR = "cursor"
    ORACLE = "oracle"

    @classmethod
    def from_flag(cls, text: str) -> "ReadMode":
        return cls(text)


@dataclass(frozen=True)
class Bounds:
    """Search limits; forkfor_max caps the repetition choice."""

    forkfor_max: int = 2
    max_steps_per_path: int = 10_000
    max_states: int = 1_000_000

    def __post_init__(self):
        if self.forkfor_max < 0:
            raise ValueError("forkfor_max must be >= 0")
        if self.max_steps_per_path <= 0:
            raise ValueError("max_steps_per_path must be positive")
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")


# ---------------------------------------------------------------------------
# Rule instances

class RuleInstance(Interned):
    """A rule and its nondeterministic choice, as a witness stores it.

    The choice is None for a deterministic rule, the (branch, atom) pairs
    of a fork interleaving, a forkfor count or an oracle read position.
    """

    rule: str
    choice: tuple[tuple[int, int], ...] | int | None = None


# ---------------------------------------------------------------------------
# Reads

def eval_phi(store: FileStore, file: str, n: int) -> int:
    """The value at position n, or the 0 sentinel at or past the end."""
    contents = store.contents(file)  # raises UnknownFileError
    if 0 <= n < len(contents):
        return contents[n]
    return 0


# ---------------------------------------------------------------------------
# Interleavings

def enumerate_interleavings(
    branches: list[list] | tuple, *, distinct: bool = False,
) -> list[tuple[tuple[int, int], ...]]:
    """Every order-preserving shuffle of the branches' atom lists.

    Shuffles are sequences of (branch, atom) index pairs, lexicographic
    in the branch index sequence and duplicate-free.  Empty branches
    contribute nothing.  The count is multinomial:
    (sum of lengths)! / product(lengths!).

    With `distinct`, a branch is taken only while it is behind its
    nearest earlier identical twin.  A pruned shuffle lays out what an
    earlier one did with the twins' roles swapped, so this keeps the
    first shuffle of each distinct laid-out sequence, in the same order.
    """
    sizes = [len(b) for b in branches]
    total = sum(sizes)
    twin = [-1] * len(sizes)  # nearest earlier identical branch
    if distinct:
        for i, branch in enumerate(branches):
            twin[i] = next((j for j in reversed(range(i)) if branches[j] == branch), -1)
    out: list[tuple[tuple[int, int], ...]] = [] if total else [()]  # the one empty shuffle
    order: list[tuple[int, int]] = []
    taken = [0] * len(sizes)
    # A depth-first search on an explicit stack, so that a long branch
    # costs no recursion: `tries` holds, for each place of `order` filled
    # so far and the next one, the first branch still to try there.
    n = len(sizes)
    tries = [0]
    while tries:
        i = tries[-1]
        while i < n and not (taken[i] < sizes[i] and (twin[i] < 0 or taken[twin[i]] > taken[i])):
            i += 1
        if i < n:
            tries[-1] = i + 1
            order.append((i, taken[i]))
            taken[i] += 1
            if len(order) < total:
                tries.append(0)
                continue
            out.append(tuple(order))
        else:
            tries.pop()
            if not order:
                break
        taken[order.pop()[0]] -= 1
    return out


def interleaves(branches: list[list] | tuple, order) -> bool:
    """Whether `order` is one of the shuffles of `enumerate_interleavings(branches)`."""
    taken = [0] * len(branches)
    for i, j in order:
        if not 0 <= i < len(taken) or taken[i] != j:
            return False
        taken[i] += 1
    return taken == [len(b) for b in branches]


# ---------------------------------------------------------------------------
# Step

def _divide(a: int, b: int) -> int | None:
    """Division truncating toward zero, not Python's floor; None for b == 0."""
    if b == 0:
        return None
    return -(-a // b) if (a < 0) != (b < 0) else a // b


# Literal arithmetic; None when the operation has no result.
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def step(
    config: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
    distinct: bool = False,
    order: tuple[tuple[int, int], ...] | None = None,
) -> list[tuple[RuleInstance, Configuration]]:
    """All immediate successors of `config`, in a fixed order.

    `read_mode` selects the whilef read interpretation; `truthy` relaxes
    guard strictness to treat any nonzero guard as true (off by default).
    `distinct` lays out each distinct fork sequence once (see
    `enumerate_interleavings`).  Only the graph search passes it, since it
    keeps just the first label of a state anyway.  With `order`, a fork
    lays out that interleaving alone, or nothing if it is not one; only
    `take` passes it.
    """
    head, *rest = config.control
    if not isinstance(head, Ctrl):
        return []  # a value, unit, or a hole nothing will ever fill

    def succ(rule, control, env=None, status=None, store=None, choice=None):
        return (
            RuleInstance(rule, choice),
            Configuration(
                normalize_control(control),
                config.env if env is None else env,
                config.status if status is None else status,
                config.store if store is None else store,
                config.mode,
            ),
        )

    item = head.item
    match item:
        case Seq(s1, s2):
            return [succ("seq", [ctrl(s1), ctrl(s2), *rest])]

        case Fork(branches):
            atom_lists = [atoms_of(b) for b in branches]
            if order is None:
                orders = enumerate_interleavings(atom_lists, distinct=distinct)
            else:
                orders = [order] if interleaves(atom_lists, order) else []
            frames = [[Ctrl(atom) for atom in atoms] for atoms in atom_lists]
            return [
                succ("fork", [*[frames[i][j] for i, j in inter], *rest], choice=inter)
                for inter in orders
            ]

        case ForkFor(body):
            return [
                succ("forkfor", [Ctrl(Fork((body,) * k) if k else Skip()), *rest],
                     choice=k)
                for k in range(bounds.forkfor_max + 1)
            ]

        case ForkIf(arms):
            branches = tuple(
                AtomStmt(If(guard, body, Skip())) for guard, body in arms
            )
            return [succ("forkif", [Ctrl(Fork(branches)), *rest])]

        case Var(name):
            value = env_get(config, name)
            if value is None:
                return []
            return [succ("lookup", [Value(value), *rest])]

        case BinOp(op, left, right):
            if not isinstance(left, IntLit):
                return [succ(
                    "op-freeze-left",
                    [ctrl(left), HoleOpRight(op, right), *rest],
                )]
            if not isinstance(right, IntLit):
                return [succ(
                    "op-freeze-right",
                    [ctrl(right), HoleOpLeft(left.n, op), *rest],
                )]
            result = _OPS[op](left.n, right.n)
            if result is None:
                return []
            return [succ("op-apply", [Value(int(result)), *rest])]  # a bool as 1/0

        case And(left, right):
            return [succ("and-desugar", [Ctrl(If(left, right, IntLit(0))), *rest])]

        case Or(left, right):
            return [succ("or-desugar", [Ctrl(If(left, IntLit(1), right)), *rest])]

        case Assign(Var(name), value):
            if not isinstance(value, IntLit):
                return [succ(
                    "assign-freeze",
                    [ctrl(value), HoleAssign(name), *rest],
                )]
            return [succ(
                "assign-apply",
                [Value(value.n), *rest],
                env=env_bind(config.env, name, value.n),
            )]

        case If(cond, then_body, else_body):
            if not isinstance(cond, IntLit):
                return [succ(
                    "if-freeze",
                    [ctrl(cond), HoleIf(then_body, else_body), *rest],
                )]
            if cond.n == 1 or (truthy and cond.n != 0):
                return [succ("if-true", [ctrl(then_body), *rest])]
            if cond.n == 0:
                return [succ("if-false", [ctrl(else_body), *rest])]
            return []  # guard strictness: any other value is stuck

        case While(cond, body):
            unrolled = If(
                cond,
                Seq(AtomStmt(body), AtomStmt(While(cond, body))),
                Skip(),
            )
            return [succ("while-unroll", [Ctrl(unrolled), *rest])]

        case Open(f):
            if status_of(config, f) != CLOSED or not config.store.has(f):
                return []
            return [succ(
                "open", rest,
                status=set_status(config.status, f, OPEN),
                store=config.store.with_cursor(f, 0),
            )]

        case Close(f):
            if status_of(config, f) != OPEN:
                return []
            return [succ("close", rest, status=set_status(config.status, f, CLOSED))]

        case ReadND(target, pointer, f):
            if config.mode is not Mode.WHILEF:
                return []
            if status_of(config, f) != OPEN or not config.store.has(f):
                return []
            if read_mode is ReadMode.CURSOR:
                n = config.store.cursor(f)
                env = env_bind(config.env, pointer, n)
                env = env_bind(env, target, eval_phi(config.store, f, n))
                return [succ(
                    "read-nd", rest, env=env,
                    store=config.store.with_cursor(f, n + 1),
                )]
            out = []
            for n in range(len(config.store.contents(f)) + 1):
                env = env_bind(config.env, pointer, n)
                env = env_bind(env, target, eval_phi(config.store, f, n))
                out.append(succ("read-nd", rest, env=env, choice=n))
            return out

        case ReadAt(target, f, pos):
            if config.mode is not Mode.SAFE:
                return []
            if not isinstance(pos, IntLit):
                # Position expressions follow the operand freeze discipline.
                return [succ("read-at", [ctrl(pos), HoleRead(target, f), *rest])]
            if status_of(config, f) != OPEN or not config.store.has(f):
                return []
            if pos.n < 0:
                return []
            env = env_bind(config.env, target, eval_phi(config.store, f, pos.n))
            return [succ("read-at", rest, env=env)]

        case Skip():
            return [succ("skip", rest)]

    return []


def take(
    config: Configuration,
    rule: str,
    choice: tuple[tuple[int, int], ...] | int | None,
    bounds: Bounds,
    *,
    read_mode: ReadMode,
    truthy: bool,
) -> tuple[RuleInstance, Configuration] | None:
    """The (label, successor) of `config` by `rule` under `choice`, or None.

    This is how a recorded step is replayed.  A fork lays out the
    interleaving `choice` alone, and under any other rule, which no fork
    successor can match, none: for `k` identical branches the full
    relation has `k!` times the orders the graph search lays out.
    """
    order = choice if rule == "fork" and type(choice) is tuple else ()
    for label, after in step(config, bounds, read_mode=read_mode, truthy=truthy, order=order):
        if label.rule == rule and label.choice == choice:
            return label, after
    return None
