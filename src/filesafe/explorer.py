"""Reachability search and verdicts.

`explore` does a breadth-first search of the reachable configuration
graph, deduplicated by configuration equality, and decides file safety:
every reachable normal form must be final.  `oracle_explore` answers the same
question by naively unfolding the execution tree with no deduplication
at all; it exists as an independent cross-check and must never be fused
with `explore`.

`relax_program` and `embed_trace` connect the two dialects: a safe
program forgets its read positions to become a whilef program, and any
safe trace replays inside the relaxed program by feeding the forgotten
positions back through the oracle read.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass

from .errors import InvalidTraceError, ModeError, SearchBoundError
from .machine import Configuration, canonical_key, ctrl, is_final, make_configuration
from .semantics import (
    Bounds, ForkCount, Interleave, OraclePos, ReadMode, RuleInstance, step,
)
from .syntax import (
    And, Assign, AtomStmt, BinOp, Fork, ForkFor, ForkIf, If, IntLit, Mode,
    Or, Program, ReadAt, ReadND, Seq, Var, While, make_program,
)

OUTCOME_FINAL = "final"
OUTCOME_STUCK = "stuck"
OUTCOME_CUTOFF = "cutoff"

EXHAUSTED_STEPS = "steps"
EXHAUSTED_STATES = "states"


@dataclass(frozen=True)
class Trace:
    """A start configuration and the labeled steps taken from it."""

    start: Configuration
    steps: tuple[tuple[RuleInstance, Configuration], ...]
    outcome: str | None = None

    @property
    def last(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.start


@dataclass(frozen=True)
class Safe:
    normal_forms: int
    states_visited: int


@dataclass(frozen=True)
class Unsafe:
    witness: Trace
    stuck: Configuration


@dataclass(frozen=True)
class Unknown:
    exhausted: str  # "steps" or "states"
    frontier: int   # states whose expansion was cut off


Verdict = Safe | Unsafe | Unknown


# ---------------------------------------------------------------------------
# Graph search

def explore(
    c0: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> Verdict:
    """Decide file safety by breadth-first reachability.

    Unsafe reports the first stuck configuration in breadth-first order,
    so its witness has minimal length.  Safe means the whole graph was
    explored within bounds and every normal form was final.  Hitting any
    bound without finding a stuck state gives Unknown.
    """
    visited: dict[Configuration, tuple[Configuration | None, RuleInstance | None]] = {}
    cut: Counter[str] = Counter()
    normal_forms = 0
    for config, final in _bfs(c0, bounds, visited, cut, read_mode, truthy):
        if not final:
            return Unsafe(witness=_backtrack(visited, config), stuck=config)
        normal_forms += 1
    if cut:
        exhausted = EXHAUSTED_STATES if cut[EXHAUSTED_STATES] else EXHAUSTED_STEPS
        return Unknown(exhausted=exhausted, frontier=sum(cut.values()))
    return Safe(normal_forms=normal_forms, states_visited=len(visited))


def _bfs(c0, bounds, visited, cut, read_mode, truthy):
    """Breadth-first search of the configuration graph, deduplicated by key.

    Yields (configuration, is final) for each normal form as it is
    dequeued.  Fills `visited` with configuration -> (parent, rule
    instance) for every admitted state, and counts in `cut`, by bound
    name, the states whose expansion a bound cut off.
    """
    key0 = canonical_key(c0)
    visited[key0] = (None, None)
    queue: deque[tuple[Configuration, int]] = deque([(key0, 0)])
    while queue:
        config, depth = queue.popleft()
        if is_final(config):
            yield config, True
            continue
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        if not successors:
            yield config, False
            continue
        if depth >= bounds.max_steps_per_path:
            cut[EXHAUSTED_STEPS] += 1
            continue
        truncated = False
        for rule_instance, succ in successors:
            succ_key = canonical_key(succ)
            if succ_key in visited:
                continue
            if len(visited) >= bounds.max_states:
                truncated = True
                continue
            visited[succ_key] = (config, rule_instance)
            queue.append((succ_key, depth + 1))
        if truncated:
            cut[EXHAUSTED_STATES] += 1


def _backtrack(visited, config) -> Trace:
    steps = []
    while True:
        parent, rule_instance = visited[config]
        if parent is None:
            return Trace(config, tuple(reversed(steps)), OUTCOME_STUCK)
        steps.append((rule_instance, config))
        config = parent


def reachable_normal_forms(
    c0: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> list[Configuration]:
    """Every reachable normal form, final and stuck alike.

    Raises SearchBoundError if the graph does not fit in the bounds, so
    a truncated answer can never be mistaken for the real one.
    """
    cut: Counter[str] = Counter()
    out = [config for config, _ in _bfs(c0, bounds, {}, cut, read_mode, truthy)]
    if cut:
        raise SearchBoundError(f"{', '.join(cut)} bound hit while enumerating normal forms")
    return out


# ---------------------------------------------------------------------------
# Tree search (the independent route)

def oracle_explore(
    c0: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> Verdict:
    """Brute-force reference: unfold the execution tree, no deduplication.

    Intended for small instances.  Where neither route hits a bound this
    agrees with `explore` on the verdict kind.
    """
    arena: list[tuple[Configuration, int, RuleInstance | None]] = [(c0, -1, None)]
    queue: deque[tuple[int, int]] = deque([(0, 0)])  # (arena index, depth)
    normal_forms = 0
    clipped: str | None = None
    frontier = 0
    while queue:
        index, depth = queue.popleft()
        config = arena[index][0]
        if is_final(config):
            normal_forms += 1
            continue
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        if not successors:
            return Unsafe(witness=_arena_trace(arena, index), stuck=config)
        if depth >= bounds.max_steps_per_path:
            clipped = clipped or EXHAUSTED_STEPS
            frontier += 1
            continue
        if len(arena) + len(successors) > bounds.max_states:
            clipped = EXHAUSTED_STATES
            frontier += 1
            continue
        for rule_instance, succ in successors:
            arena.append((succ, index, rule_instance))
            queue.append((len(arena) - 1, depth + 1))
    if clipped is not None:
        return Unknown(exhausted=clipped, frontier=frontier)
    return Safe(normal_forms=normal_forms, states_visited=len(arena))


def _arena_trace(arena, index) -> Trace:
    steps = []
    while True:
        config, parent, rule_instance = arena[index]
        if parent < 0:
            return Trace(config, tuple(reversed(steps)), OUTCOME_STUCK)
        steps.append((rule_instance, config))
        index = parent


def normal_form_traces(
    c0: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> list[Trace]:
    """Every maximal trace of the execution tree, depth-first.

    Each returned trace ends in a normal form and is tagged final or
    stuck.  Raises SearchBoundError when the tree outgrows the bounds.
    """
    nodes = 0

    def expand(config):
        nonlocal nodes
        nodes += 1
        if nodes > bounds.max_states:
            raise SearchBoundError("state bound hit while enumerating traces")
        if is_final(config):
            return None
        return step(config, bounds, read_mode=read_mode, truthy=truthy) or None

    out: list[Trace] = []
    path: list[tuple[RuleInstance, Configuration]] = []

    first = expand(c0)
    if first is None:
        outcome = OUTCOME_FINAL if is_final(c0) else OUTCOME_STUCK
        return [Trace(c0, (), outcome)]
    stack = [iter(first)]
    while stack:
        entry = next(stack[-1], None)
        if entry is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(entry)
        if len(path) > bounds.max_steps_per_path:
            raise SearchBoundError("step bound hit while enumerating traces")
        config = entry[1]
        successors = expand(config)
        if successors is None:
            outcome = OUTCOME_FINAL if is_final(config) else OUTCOME_STUCK
            out.append(Trace(c0, tuple(path), outcome))
            path.pop()
            continue
        stack.append(iter(successors))
    return out


# ---------------------------------------------------------------------------
# Single runs and replay

def run_single(
    c0: Configuration,
    bounds: Bounds,
    *,
    seed: int | None = None,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> Trace:
    """One maximal run.

    With `seed=None` the first successor is taken at every choice point;
    with an integer seed, choices are drawn from random.Random(seed).
    Reproducible either way.  The trace is tagged final, stuck, or
    cutoff when max_steps_per_path ran out.
    """
    rng = random.Random(seed) if seed is not None else None
    config = c0
    steps: list[tuple[RuleInstance, Configuration]] = []
    outcome = OUTCOME_CUTOFF
    for _ in range(bounds.max_steps_per_path):
        if is_final(config):
            outcome = OUTCOME_FINAL
            break
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        if not successors:
            outcome = OUTCOME_STUCK
            break
        pick = 0 if rng is None else rng.randrange(len(successors))
        entry = successors[pick]
        steps.append(entry)
        config = entry[1]
    else:
        if is_final(config):
            outcome = OUTCOME_FINAL
    return Trace(c0, tuple(steps), outcome)


def validate_trace(
    trace: Trace,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> None:
    """Check that every step of `trace` is a real successor, else raise."""
    config = trace.start
    for i, (rule_instance, after) in enumerate(trace.steps):
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        if (rule_instance, after) not in successors:
            raise InvalidTraceError(
                f"step {i} ({rule_instance.rule}) is not a successor of its predecessor"
            )
        config = after


# ---------------------------------------------------------------------------
# Dialect relaxation

def relax_program(program: Program) -> Program:
    """Forget read positions: safe dialect in, whilef dialect out.

    Every positioned read `x = read(f, pos)` becomes `(x, p__i) = read(f)`
    with fresh pointer names numbered in preorder; the position
    expression is dropped, since the free read invents the position.
    """
    if program.mode is not Mode.SAFE:
        raise ModeError("only safe-dialect programs can be relaxed")
    counter = [0]
    body = _relax_stmt(program.body, counter)
    return make_program(Mode.WHILEF, body)


def _fresh(counter) -> str:
    name = f"p__{counter[0]}"
    counter[0] += 1
    return name


def _relax_stmt(stmt, counter):
    match stmt:
        case AtomStmt(atom):
            return AtomStmt(_relax_atom(atom, counter))
        case Seq(first, second):
            return Seq(_relax_stmt(first, counter), _relax_stmt(second, counter))
        case Fork(branches):
            return Fork(tuple(_relax_stmt(b, counter) for b in branches))
        case ForkFor(body):
            return ForkFor(_relax_stmt(body, counter))
        case ForkIf(arms):
            return ForkIf(tuple(
                (_relax_atom(guard, counter), _relax_stmt(s, counter))
                for guard, s in arms
            ))
    raise TypeError(f"not a statement: {stmt!r}")


def _relax_atom(atom, counter):
    match atom:
        case ReadAt(target, file, _):
            # The dropped position subtree is gone entirely; nothing in it
            # is renumbered.
            return ReadND(target, _fresh(counter), file)
        case BinOp(op, left, right):
            return BinOp(op, _relax_atom(left, counter), _relax_atom(right, counter))
        case And(left, right):
            return And(_relax_atom(left, counter), _relax_atom(right, counter))
        case Or(left, right):
            return Or(_relax_atom(left, counter), _relax_atom(right, counter))
        case Assign(target, value):
            return Assign(target, _relax_atom(value, counter))
        case If(cond, then_body, else_body):
            return If(
                _relax_atom(cond, counter),
                _relax_atom(then_body, counter),
                _relax_atom(else_body, counter),
            )
        case While(cond, body):
            return While(_relax_atom(cond, counter), _relax_atom(body, counter))
        case _:
            return atom


def embed_trace(trace: Trace, relaxed: Program) -> Trace:
    """Replay a safe-dialect trace inside its relaxed whilef program.

    The positions the safe trace read at are fed back through the oracle
    read, the fork-family choices are repeated verbatim, and every other
    step is deterministic.  The result is a valid whilef oracle-mode
    trace that ends final exactly when the input did.
    """
    if relaxed.mode is not Mode.WHILEF:
        raise ModeError("embedding targets a whilef-dialect program")
    choices = deque(_safe_trace_choices(trace))
    fork_max = max(
        [c.k for c in choices if isinstance(c, ForkCount)], default=0,
    )
    bounds = Bounds(
        forkfor_max=fork_max,
        max_steps_per_path=len(trace.steps) + 4,
        max_states=1,  # unused by step
    )
    config = make_configuration(
        control=[ctrl(relaxed.body)],
        env=trace.start.env,
        status=trace.start.status,
        store=trace.start.store,
        mode=Mode.WHILEF,
    )
    steps: list[tuple[RuleInstance, Configuration]] = []
    for _ in range(bounds.max_steps_per_path):
        if is_final(config):
            break
        successors = step(config, bounds, read_mode=ReadMode.ORACLE)
        if not successors:
            break
        rule = successors[0][0].rule
        if rule in ("fork", "forkfor", "read-nd"):
            if not choices:
                raise InvalidTraceError(f"no recorded choice left for {rule}")
            wanted = choices.popleft()
            if rule == "read-nd" and not isinstance(wanted, OraclePos):
                raise InvalidTraceError("recorded choice is not a read position")
            entry = next(
                (e for e in successors if e[0].choice == wanted), None,
            )
            if entry is None:
                raise InvalidTraceError(
                    f"recorded choice {wanted!r} is not available for {rule}"
                )
        else:
            if len(successors) != 1:
                raise InvalidTraceError(
                    f"unexpected nondeterminism in rule {rule!r}"
                )
            entry = successors[0]
        steps.append(entry)
        config = entry[1]
    else:
        raise InvalidTraceError("embedding did not terminate alongside the input")
    if choices:
        raise InvalidTraceError("input trace has unused choices")
    ends_final = is_final(config)
    if ends_final != is_final(trace.last):
        raise InvalidTraceError("embedded outcome differs from the input trace")
    outcome = OUTCOME_FINAL if ends_final else OUTCOME_STUCK
    return Trace(
        start=make_configuration(
            [ctrl(relaxed.body)], trace.start.env, trace.start.status,
            trace.start.store, Mode.WHILEF,
        ),
        steps=tuple(steps),
        outcome=outcome,
    )


def _safe_trace_choices(trace: Trace):
    """The ordered choices a safe trace made, as the relaxed program needs them.

    Fork interleavings and forkfor counts transfer index-for-index, and
    every applied read (literal position at the head) becomes an oracle
    position choice.  Positions past the end of the file read the same
    end marker as the end position itself, and only the latter is on
    offer from the oracle, so they are folded together.
    """
    out = []
    config = trace.start
    for rule_instance, after in trace.steps:
        if isinstance(rule_instance.choice, (Interleave, ForkCount)):
            out.append(rule_instance.choice)
        elif rule_instance.rule == "read-at":
            head = config.control[0]
            atom = getattr(head, "item", None)
            if isinstance(atom, ReadAt) and isinstance(atom.pos, IntLit):
                end = len(config.store.contents(atom.file))
                out.append(OraclePos(min(atom.pos.n, end)))
        config = after
    return out
