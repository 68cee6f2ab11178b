"""Reachability search and verdicts.

`explore` does a breadth-first search of the reachable configuration
graph, deduplicated by configuration equality, and decides file safety:
every reachable normal form must be final.  `oracle_explore` answers the same
question by naively unfolding the execution tree with no deduplication
at all; it exists as an independent cross-check and must never be fused
with `explore`.  `normal_form_traces` reads its traces off the same tree
unfolding (`_unfold`), which shares nothing with the graph search (`_bfs`).

`run_single` and `embed_trace` follow one path through the step relation
(`_run`), differing only in how they take each step: `embed_trace`
replays recorded choices through `take`.  `relax_program`
and `embed_trace` connect the two dialects: a safe program forgets its
read positions to become a whilef program, and any safe trace replays
inside the relaxed program by feeding the forgotten positions back
through the oracle read.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import count
from operator import itemgetter

from .errors import InvalidTraceError, ModeError, SearchBoundError
from .machine import Configuration, Ctrl, canonical_key, ctrl, is_final, make_configuration
from .semantics import Bounds, ReadMode, RuleInstance, step, take
from .syntax import (
    And, BinOp, Fork, IntLit, Mode, Or, Program, ReadAt, ReadND, Seq, make_program, rebuild,
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

    Keys are interned configurations, so a `visited` lookup hashes and
    compares by identity.

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
        successors = step(
            config, bounds, read_mode=read_mode, truthy=truthy, distinct=True,
        )
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
    arena: list[tuple[Configuration, int, RuleInstance | None]] = []
    cut: Counter[str] = Counter()
    normal_forms = 0
    for index, final in _unfold(c0, bounds, arena, cut, read_mode, truthy):
        if not final:
            witness = _arena_trace(arena, index, OUTCOME_STUCK)
            return Unsafe(witness=witness, stuck=witness.last)
        normal_forms += 1
    if cut:
        exhausted = EXHAUSTED_STATES if cut[EXHAUSTED_STATES] else EXHAUSTED_STEPS
        return Unknown(exhausted=exhausted, frontier=sum(cut.values()))
    return Safe(normal_forms=normal_forms, states_visited=len(arena))


def _unfold(c0, bounds, arena, cut, read_mode, truthy):
    """Breadth-first unfolding of the execution tree, with no deduplication.

    Yields (arena index, is final) for each leaf as it is dequeued.
    Fills the empty list `arena` with (configuration, parent index, rule
    instance) for every node, the root `c0` at index 0 with parent -1,
    and counts in `cut`, by bound name, the nodes whose expansion a
    bound cut off.
    """
    arena.append((c0, -1, None))
    queue: deque[tuple[int, int]] = deque([(0, 0)])  # (arena index, depth)
    while queue:
        index, depth = queue.popleft()
        config = arena[index][0]
        if is_final(config):
            yield index, True
            continue
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        if not successors:
            yield index, False
            continue
        if depth >= bounds.max_steps_per_path:
            cut[EXHAUSTED_STEPS] += 1
            continue
        if len(arena) + len(successors) > bounds.max_states:
            cut[EXHAUSTED_STATES] += 1
            continue
        for rule_instance, succ in successors:
            arena.append((succ, index, rule_instance))
            queue.append((len(arena) - 1, depth + 1))


def _arena_trace(arena, index, outcome) -> Trace:
    steps = []
    while True:
        config, parent, rule_instance = arena[index]
        if parent < 0:
            return Trace(config, tuple(reversed(steps)), outcome)
        steps.append((rule_instance, config))
        index = parent


def normal_form_traces(
    c0: Configuration,
    bounds: Bounds,
    *,
    read_mode: ReadMode = ReadMode.CURSOR,
    truthy: bool = False,
) -> list[Trace]:
    """Every maximal trace of the execution tree, breadth-first.

    Each returned trace ends in a normal form and is tagged final or
    stuck; shorter traces come first.  Raises SearchBoundError when the
    tree outgrows the bounds.
    """
    arena: list[tuple[Configuration, int, RuleInstance | None]] = []
    cut: Counter[str] = Counter()
    out = [
        _arena_trace(arena, index, OUTCOME_FINAL if final else OUTCOME_STUCK)
        for index, final in _unfold(c0, bounds, arena, cut, read_mode, truthy)
    ]
    if cut:
        raise SearchBoundError(f"{', '.join(cut)} bound hit while enumerating traces")
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
    pick = itemgetter(0) if seed is None else random.Random(seed).choice

    def next_step(config):
        successors = step(config, bounds, read_mode=read_mode, truthy=truthy)
        return pick(successors) if successors else None

    return _run(c0, bounds, next_step)


def _run(c0, bounds, next_step) -> Trace:
    """The maximal run from `c0` that takes the step `next_step(config)` at every step.

    `next_step` gives a (label, successor) pair, or None where the run is
    stuck.  Tagged final or stuck where it ends, or cutoff once
    max_steps_per_path steps are taken short of a final configuration.
    """
    config = c0
    steps: list[tuple[RuleInstance, Configuration]] = []
    while not is_final(config):
        if len(steps) >= bounds.max_steps_per_path:
            return Trace(c0, tuple(steps), OUTCOME_CUTOFF)
        entry = next_step(config)
        if entry is None:
            return Trace(c0, tuple(steps), OUTCOME_STUCK)
        steps.append(entry)
        config = entry[1]
    return Trace(c0, tuple(steps), OUTCOME_FINAL)


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
        taken = take(config, rule_instance.rule, rule_instance.choice, bounds,
                     read_mode=read_mode, truthy=truthy)
        if taken != (rule_instance, after):
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
    fresh = (f"p__{i}" for i in count())
    return make_program(Mode.WHILEF, _relax(program.body, fresh))


def _relax(node, fresh):
    # A dropped position subtree is gone entirely; nothing in it is numbered.
    if isinstance(node, ReadAt):
        return ReadND(node.target, next(fresh), node.file)
    if type(node) is Seq:  # a `;` chain: its items, then its tail, in a loop
        items = []
        while type(node) is Seq:
            items.append(_relax(node.first, fresh))
            node = node.second
        node = _relax(node, fresh)
        for item in reversed(items):
            node = Seq(item, node)
        return node
    if type(node) in (BinOp, And, Or):  # an operator run: down its left spine, in a loop
        run = []
        while type(node) in (BinOp, And, Or):
            run.append(node)
            node = node.left
        node = _relax(node, fresh)
        for link in reversed(run):
            right = _relax(link.right, fresh)
            node = BinOp(link.op, node, right) if type(link) is BinOp else type(link)(node, right)
        return node
    return rebuild(node, lambda child: _relax(child, fresh))


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
    fork_max = max([c.choice for c in choices if c.rule == "forkfor"], default=0)
    bounds = Bounds(
        forkfor_max=fork_max,
        max_steps_per_path=len(trace.steps) + 4,
        max_states=1,  # unused by step
    )
    start = make_configuration(
        [ctrl(relaxed.body)], trace.start.env, trace.start.status,
        trace.start.store, Mode.WHILEF,
    )
    embedded = _run(start, bounds, lambda config: _replay(config, choices, bounds))
    if embedded.outcome == OUTCOME_CUTOFF:
        raise InvalidTraceError("embedding did not terminate alongside the input")
    if choices:
        raise InvalidTraceError("input trace has unused choices")
    if (embedded.outcome == OUTCOME_FINAL) != is_final(trace.last):
        raise InvalidTraceError("embedded outcome differs from the input trace")
    return embedded


def _replay(config, choices, bounds):
    """The oracle-mode step from `config` under the next recorded choice, or None if stuck.

    A fork, a forkfor and an oracle read take the next recorded choice
    (`take`), so a fork lays out the recorded order alone.  Every other
    rule must be deterministic here.
    """
    head = config.control[0]
    if type(head) is Ctrl and type(head.item) is Fork:
        rule = "fork"  # never stuck: its branches have an order
    else:
        successors = step(config, bounds, read_mode=ReadMode.ORACLE)
        if not successors:
            return None
        rule = successors[0][0].rule
        if rule not in ("forkfor", "read-nd"):
            if len(successors) != 1:
                raise InvalidTraceError(f"unexpected nondeterminism in rule {rule!r}")
            return successors[0]
    if not choices:
        raise InvalidTraceError(f"no recorded choice left for {rule}")
    wanted = choices.popleft()
    if rule == "read-nd" and wanted.rule != rule:
        raise InvalidTraceError("recorded choice is not a read position")
    taken = take(config, wanted.rule, wanted.choice, bounds,
                 read_mode=ReadMode.ORACLE, truthy=False)
    if taken is None:
        raise InvalidTraceError(f"recorded choice {wanted.choice!r} is not available for {rule}")
    return taken


def _safe_trace_choices(trace: Trace):
    """The rule instances of a safe trace's choices, as the relaxed program needs them.

    Fork and forkfor steps transfer as they are, and every applied read
    (literal position at the head) becomes an oracle read at that
    position.  Positions past the end of the file read the same
    end marker as the end position itself, and only the latter is on
    offer from the oracle, so they are folded together.
    """
    out = []
    config = trace.start
    for rule_instance, after in trace.steps:
        if rule_instance.rule in ("fork", "forkfor"):
            out.append(rule_instance)
        elif rule_instance.rule == "read-at":
            head = config.control[0]
            atom = getattr(head, "item", None)
            if isinstance(atom, ReadAt) and isinstance(atom.pos, IntLit):
                end = len(config.store.contents(atom.file))
                out.append(RuleInstance("read-nd", min(atom.pos.n, end)))
        config = after
    return out
