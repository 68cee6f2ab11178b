"""Step-rule tests: one example per rule, then cross-cutting properties."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from filesafe import (
    Bounds,
    Mode,
    ReadMode,
    UnknownFileError,
    canonical_key,
    enumerate_interleavings,
    eval_phi,
    make_configuration,
    step,
)
from filesafe.machine import (
    CLOSED,
    OPEN,
    Ctrl,
    FileStore,
    HoleAssign,
    HoleIf,
    HoleOpLeft,
    HoleOpRight,
    HoleRead,
    Unit,
    Value,
    env_get,
    is_final,
    status_of,
)
from filesafe.semantics import interleaves
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
    Var,
    While,
)

from generators import random_program, random_store

B = Bounds(forkfor_max=2)
EMPTY = FileStore.of({})
F56 = FileStore.of({"f": (5, 6)})


def config(frames, env=(), status=(), store=EMPTY, mode=Mode.WHILEF):
    return make_configuration(frames, dict(env), dict(status), store, mode)


def only(succs):
    assert len(succs) == 1, succs
    return succs[0]


def run_to_normal(c, *, read_mode=ReadMode.CURSOR, truthy=False, limit=200):
    """Follow the unique successor chain; fail the test on branching."""
    rules = []
    for _ in range(limit):
        succs = step(c, B, read_mode=read_mode, truthy=truthy)
        if not succs:
            return rules, c
        inst, c = only(succs)
        rules.append(inst.rule)
    raise AssertionError("did not reach a normal form")


# ---------------------------------------------------------------------------
# File contents function

def test_read_function_with_end_marker():
    assert eval_phi(F56, "f", 0) == 5
    assert eval_phi(F56, "f", 1) == 6
    assert eval_phi(F56, "f", 2) == 0  # one past the end
    assert eval_phi(F56, "f", 99) == 0
    with pytest.raises(UnknownFileError):
        eval_phi(F56, "g", 0)


# ---------------------------------------------------------------------------
# Expressions

def test_op_apply_on_literals():
    inst, c = only(step(config([Ctrl(BinOp("+", IntLit(2), IntLit(3)))]), B))
    assert inst.rule == "op-apply" and inst.choice is None
    assert c.control == (Value(5),) and is_final(c)


def test_op_freezes_left_operand_first():
    inst, c = only(step(config([Ctrl(BinOp("+", Var("x"), IntLit(1)))], env={"x": 2}), B))
    assert inst.rule == "op-freeze-left"
    assert c.control == (Ctrl(Var("x")), HoleOpRight("+", IntLit(1)))


def test_op_freezes_right_operand_second():
    inst, c = only(step(config([Ctrl(BinOp("+", IntLit(2), Var("y")))], env={"y": 3}), B))
    assert inst.rule == "op-freeze-right"
    assert c.control == (Ctrl(Var("y")), HoleOpLeft(2, "+"))


def test_operator_evaluation_pipeline():
    c = config([Ctrl(BinOp("+", Var("x"), Var("y")))], env={"x": 2, "y": 3})
    rules, final = run_to_normal(c)
    assert rules == ["op-freeze-left", "lookup", "op-freeze-right", "lookup", "op-apply"]
    assert final.control == (Value(5),)


@pytest.mark.parametrize(
    "op,left,right,expected",
    [
        ("+", 2, 3, 5), ("-", 2, 5, -3), ("*", -3, 4, -12),
        ("/", 7, 2, 3), ("/", -7, 2, -3), ("/", 7, -2, -3), ("/", -7, -2, 3),
        ("<", 3, 5, 1), ("<", 5, 3, 0), ("<=", 5, 5, 1),
        (">", 2, 1, 1), (">=", 1, 2, 0), ("==", 4, 4, 1), ("!=", 4, 4, 0),
    ],
)
def test_operator_results(op, left, right, expected):
    _, c = only(step(config([Ctrl(BinOp(op, IntLit(left), IntLit(right)))]), B))
    assert c.control == (Value(expected),)


def test_division_by_zero_is_stuck():
    assert step(config([Ctrl(BinOp("/", IntLit(1), IntLit(0)))]), B) == []


def test_lookup():
    inst, c = only(step(config([Ctrl(Var("x"))], env={"x": 4}), B))
    assert inst.rule == "lookup" and c.control == (Value(4),)


def test_unbound_lookup_is_stuck():
    assert step(config([Ctrl(Var("x"))]), B) == []


# ---------------------------------------------------------------------------
# Boolean operators desugar to conditionals

def test_and_desugars():
    inst, c = only(step(config([Ctrl(And(Var("a"), Var("b")))]), B))
    assert inst.rule == "and-desugar"
    assert c.control == (Ctrl(If(Var("a"), Var("b"), IntLit(0))),)


def test_or_desugars():
    inst, c = only(step(config([Ctrl(Or(Var("a"), Var("b")))]), B))
    assert inst.rule == "or-desugar"
    assert c.control == (Ctrl(If(Var("a"), IntLit(1), Var("b"))),)


@pytest.mark.parametrize("a,b,conj,disj", [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)])
def test_bool_truth_tables(a, b, conj, disj):
    _, c = run_to_normal(config([Ctrl(And(IntLit(a), IntLit(b)))]))
    assert c.control == (Value(conj),)
    _, c = run_to_normal(config([Ctrl(Or(IntLit(a), IntLit(b)))]))
    assert c.control == (Value(disj),)


def test_bool_operators_short_circuit():
    boom = BinOp("/", IntLit(1), IntLit(0))
    _, c = run_to_normal(config([Ctrl(And(IntLit(0), boom))]))
    assert c.control == (Value(0),)
    _, c = run_to_normal(config([Ctrl(Or(IntLit(1), boom))]))
    assert c.control == (Value(1),)


# ---------------------------------------------------------------------------
# Assignment

def test_assign_apply_binds_and_keeps_the_value():
    inst, c = only(step(config([Ctrl(Assign(Var("x"), IntLit(5)))]), B))
    assert inst.rule == "assign-apply"
    assert env_get(c, "x") == 5
    assert c.control == (Value(5),) and is_final(c)


def test_assign_freezes_compound_values():
    inst, c = only(step(config([Ctrl(Assign(Var("x"), BinOp("+", IntLit(1), IntLit(2))))]), B))
    assert inst.rule == "assign-freeze"
    assert c.control == (Ctrl(BinOp("+", IntLit(1), IntLit(2))), HoleAssign("x"))


def test_assignment_value_feeds_an_enclosing_expression():
    # y = (x = 5) + 1
    c = config([Ctrl(Assign(Var("y"), BinOp("+", Assign(Var("x"), IntLit(5)), IntLit(1))))])
    _, final = run_to_normal(c)
    assert env_get(final, "x") == 5 and env_get(final, "y") == 6


# ---------------------------------------------------------------------------
# Conditionals and loops

def test_if_true_and_if_false():
    inst, c = only(step(config([Ctrl(If(IntLit(1), Assign(Var("x"), IntLit(1)), Skip()))]), B))
    assert inst.rule == "if-true" and c.control == (Ctrl(Assign(Var("x"), IntLit(1))),)
    inst, c = only(step(config([Ctrl(If(IntLit(0), Skip(), Assign(Var("x"), IntLit(2))))]), B))
    assert inst.rule == "if-false" and c.control == (Ctrl(Assign(Var("x"), IntLit(2))),)


def test_if_freezes_compound_guards():
    inst, c = only(step(config([Ctrl(If(Var("b"), Skip(), Skip()))], env={"b": 1}), B))
    assert inst.rule == "if-freeze"
    assert c.control == (Ctrl(Var("b")), HoleIf(Skip(), Skip()))


def test_nonboolean_guard_is_stuck():
    assert step(config([Ctrl(If(IntLit(2), Skip(), Skip()))]), B) == []


def test_truthy_flag_relaxes_guards():
    inst, _ = only(step(config([Ctrl(If(IntLit(2), Skip(), Skip()))]), B, truthy=True))
    assert inst.rule == "if-true"
    inst, _ = only(step(config([Ctrl(If(IntLit(0), Skip(), Skip()))]), B, truthy=True))
    assert inst.rule == "if-false"


def test_while_unrolls_to_a_conditional():
    loop = While(BinOp("<=", Var("x"), IntLit(2)), Assign(Var("x"), BinOp("+", Var("x"), IntLit(1))))
    inst, c = only(step(config([Ctrl(loop)], env={"x": 0}), B))
    assert inst.rule == "while-unroll"
    unrolled = c.control[0].item
    assert isinstance(unrolled, If)
    assert unrolled.then_body == Seq(AtomStmt(loop.body), AtomStmt(loop))
    assert unrolled.else_body == Skip()


def test_bounded_loop_terminates():
    loop = While(BinOp("<=", Var("x"), IntLit(2)), Assign(Var("x"), BinOp("+", Var("x"), IntLit(1))))
    rules, final = run_to_normal(config([Ctrl(loop)], env={"x": 0}))
    assert env_get(final, "x") == 3 and is_final(final)
    assert rules.count("while-unroll") == 4


# ---------------------------------------------------------------------------
# Files

def test_open_marks_open_and_rewinds():
    c = config([Ctrl(Open("f"))], status={"f": CLOSED}, store=F56.with_cursor("f", 2))
    inst, after = only(step(c, B))
    assert inst.rule == "open"
    assert status_of(after, "f") == OPEN and after.store.cursor("f") == 0


def test_open_of_an_open_file_is_stuck():
    assert step(config([Ctrl(Open("f"))], status={"f": OPEN}, store=F56), B) == []


def test_close():
    inst, after = only(step(config([Ctrl(Close("f"))], status={"f": OPEN}, store=F56), B))
    assert inst.rule == "close" and status_of(after, "f") == CLOSED


def test_close_of_a_closed_file_is_stuck():
    assert step(config([Ctrl(Close("f"))], status={"f": CLOSED}, store=F56), B) == []


def test_cursor_read_binds_value_and_position():
    c = config([Ctrl(ReadND("x", "p", "f"))], status={"f": OPEN}, store=F56)
    inst, after = only(step(c, B))
    assert inst.rule == "read-nd" and inst.choice is None
    assert env_get(after, "x") == 5 and env_get(after, "p") == 0
    assert after.store.cursor("f") == 1


def test_cursor_read_past_the_end_yields_the_marker():
    c = config([Ctrl(ReadND("x", "p", "f"))], status={"f": OPEN}, store=F56.with_cursor("f", 2))
    _, after = only(step(c, B))
    assert env_get(after, "x") == 0 and env_get(after, "p") == 2
    assert after.store.cursor("f") == 3  # keeps moving past the end


def test_read_of_a_closed_file_is_stuck():
    assert step(config([Ctrl(ReadND("x", "p", "f"))], status={"f": CLOSED}, store=F56), B) == []


def test_oracle_read_offers_every_position():
    store = FileStore.of({"f": (10, 20, 30)})
    c = config([Ctrl(ReadND("x", "p", "f"))], status={"f": OPEN}, store=store)
    succs = step(c, B, read_mode=ReadMode.ORACLE)
    got = sorted((inst.choice, env_get(after, "p"), env_get(after, "x")) for inst, after in succs)
    assert got == [(0, 0, 10), (1, 1, 20), (2, 2, 30), (3, 3, 0)]
    assert all(inst.rule == "read-nd" and type(inst.choice) is int for inst, _ in succs)
    assert all(after.store.cursor("f") == 0 for _, after in succs)


def test_positioned_read_at_a_literal():
    c = config([Ctrl(ReadAt("x", "f", IntLit(1)))], status={"f": OPEN}, store=F56, mode=Mode.SAFE)
    inst, after = only(step(c, B))
    assert inst.rule == "read-at"
    assert env_get(after, "x") == 6
    assert after.store.cursor("f") == 0  # positioned reads do not move cursors
    assert env_get(after, "p") is None


def test_positioned_read_freezes_its_position():
    c = config([Ctrl(ReadAt("x", "f", Var("i")))], env={"i": 1}, status={"f": OPEN}, store=F56, mode=Mode.SAFE)
    inst, after = only(step(c, B))
    assert inst.rule == "read-at"
    assert after.control == (Ctrl(Var("i")), HoleRead("x", "f"))
    _, final = run_to_normal(after)
    assert env_get(final, "x") == 6


def test_positioned_read_stuck_cases():
    closed = config([Ctrl(ReadAt("x", "f", IntLit(0)))], status={"f": CLOSED}, store=F56, mode=Mode.SAFE)
    assert step(closed, B) == []
    negative = config([Ctrl(ReadAt("x", "f", IntLit(-1)))], status={"f": OPEN}, store=F56, mode=Mode.SAFE)
    assert step(negative, B) == []


def test_positioned_read_past_the_end_yields_the_marker():
    c = config([Ctrl(ReadAt("x", "f", IntLit(9)))], status={"f": OPEN}, store=F56, mode=Mode.SAFE)
    _, after = only(step(c, B))
    assert env_get(after, "x") == 0


def test_read_forms_are_stuck_in_the_other_dialect():
    nd_in_safe = config([Ctrl(ReadND("x", "p", "f"))], status={"f": OPEN}, store=F56, mode=Mode.SAFE)
    assert step(nd_in_safe, B) == []
    at_in_whilef = config([Ctrl(ReadAt("x", "f", IntLit(0)))], status={"f": OPEN}, store=F56)
    assert step(at_in_whilef, B) == []


# ---------------------------------------------------------------------------
# Sequencing and concurrency

def test_seq_lays_out_both_parts():
    inst, c = only(step(config([Ctrl(Seq(AtomStmt(Skip()), AtomStmt(IntLit(1))))]), B))
    assert inst.rule == "seq"
    assert c.control == (Ctrl(Skip()), Ctrl(IntLit(1)))


def test_skip_steps_away():
    inst, c = only(step(config([Ctrl(Skip())]), B))
    assert inst.rule == "skip" and c.control == (Unit(),)


def test_fork_enumerates_interleavings():
    a1, a2 = Assign(Var("x"), IntLit(1)), Assign(Var("y"), IntLit(2))
    b1 = Assign(Var("z"), IntLit(3))
    fork = Fork((Seq(AtomStmt(a1), AtomStmt(a2)), AtomStmt(b1)))
    succs = step(config([Ctrl(fork)]), B)
    assert [inst.rule for inst, _ in succs] == ["fork"] * 3
    orders = [tuple(i for i, _ in inst.choice) for inst, _ in succs]
    assert orders == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    first = succs[0][1]
    assert first.control == (Ctrl(a1), Ctrl(a2), Ctrl(b1))


def test_a_given_order_lays_out_that_interleaving_alone():
    a1, a2 = Assign(Var("x"), IntLit(1)), Assign(Var("y"), IntLit(2))
    b1 = Assign(Var("z"), IntLit(3))
    start = config([Ctrl(Fork((Seq(AtomStmt(a1), AtomStmt(a2)), AtomStmt(b1)))), Ctrl(Skip())])
    for succ in step(start, B):
        assert step(start, B, order=succ[0].choice) == [succ]
    for order in [((0, 1), (0, 0), (1, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1), (1, 0), (1, 0)),
                  ((0, 0), (0, 1), (2, 0)), ((0, 0), (0, 1), (-1, 0)), ()]:
        assert step(start, B, order=order) == []
    # Any other head ignores the order.
    assert step(config([Ctrl(Skip())]), B, order=()) == step(config([Ctrl(Skip())]), B)


def test_single_branch_fork_is_sequential():
    fork = Fork((AtomStmt(Skip()),))
    succs = step(config([Ctrl(fork)]), B)
    assert len(succs) == 1
    assert succs[0][1].control == (Ctrl(Skip()),)


def test_forkfor_offers_counts_up_to_the_bound():
    body = AtomStmt(Assign(Var("x"), IntLit(1)))
    succs = step(config([Ctrl(ForkFor(body))]), B)
    assert [inst.choice for inst, _ in succs] == [0, 1, 2]
    zero, one, two = (after for _, after in succs)
    assert zero.control == (Ctrl(Skip()),)
    assert one.control == (Ctrl(Fork((body,))),)
    assert two.control == (Ctrl(Fork((body, body))),)


def test_forkfor_respects_the_bound():
    body = AtomStmt(Skip())
    succs = step(config([Ctrl(ForkFor(body))]), Bounds(forkfor_max=5))
    assert [inst.choice for inst, _ in succs] == [0, 1, 2, 3, 4, 5]


def test_forkif_wraps_arms_in_guarded_conditionals():
    arms = ((Var("a"), AtomStmt(Assign(Var("x"), IntLit(5)))),
            (IntLit(0), AtomStmt(Skip())))
    inst, after = only(step(config([Ctrl(ForkIf(arms))]), B))
    assert inst.rule == "forkif" and inst.choice is None
    inner = after.control[0].item
    assert isinstance(inner, Fork) and len(inner.branches) == 2
    assert inner.branches[0] == AtomStmt(If(Var("a"), AtomStmt(Assign(Var("x"), IntLit(5))), Skip()))


# ---------------------------------------------------------------------------
# Interleaving enumeration

def brute_force_count(sizes):
    """Distinct shuffles, counted the slow way over labeled positions."""
    labels = [i for i, n in enumerate(sizes) for _ in range(n)]
    return len(set(itertools.permutations(labels)))


def multinomial(sizes):
    return math.factorial(sum(sizes)) // math.prod(math.factorial(n) for n in sizes)


def test_interleaving_examples():
    a = [[IntLit(1), IntLit(2)], [IntLit(3)]]
    out = enumerate_interleavings(a)
    assert len(out) == 3
    assert [tuple(i for i, _ in inter) for inter in out] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(enumerate_interleavings([[IntLit(1)]])) == 1
    assert len(enumerate_interleavings([[IntLit(1)], [IntLit(2)], [IntLit(3)]])) == 6


def test_interleavings_preserve_branch_order():
    out = enumerate_interleavings([[IntLit(1), IntLit(2), IntLit(3)], [IntLit(4)]])
    for inter in out:
        own = [j for i, j in inter if i == 0]
        assert own == sorted(own)


def test_interleaving_count_matches_the_multinomial():
    for total in range(1, 7):
        for cuts in range(2 ** (total - 1)):
            sizes, run = [], 1
            for bit in range(total - 1):
                if cuts >> bit & 1:
                    sizes.append(run)
                    run = 1
                else:
                    run += 1
            sizes.append(run)
            branches = [[IntLit(100 * i + j) for j in range(n)] for i, n in enumerate(sizes)]
            out = enumerate_interleavings(branches)
            assert len(out) == multinomial(sizes) == brute_force_count(sizes)
            assert len(set(out)) == len(out)


def first_layouts(branches, inters):
    """Laid-out atom sequence -> its first shuffle, in first-occurrence order."""
    firsts = {}
    for inter in inters:
        firsts.setdefault(tuple(branches[i][j] for i, j in inter), inter)
    return list(firsts.items())


@st.composite
def fork_branches(draw):
    """Up to five branches of at most 9 atoms in all, drawn from few templates
    over a two-atom pool, so identical branches and shared atoms both occur."""
    atom = st.sampled_from((IntLit(0), IntLit(1)))
    templates = draw(st.lists(st.lists(atom, max_size=3), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=5))
    branches = [list(templates[p]) for p in picks]
    assume(sum(map(len, branches)) <= 9)
    return branches


@settings(max_examples=200, deadline=None)
@given(fork_branches())
def test_distinct_interleavings_keep_the_first_shuffle_of_each_layout(branches):
    full = enumerate_interleavings(branches)
    distinct = enumerate_interleavings(branches, distinct=True)
    remaining = iter(full)
    assert all(inter in remaining for inter in distinct)  # a subsequence
    assert first_layouts(branches, distinct) == first_layouts(branches, full)


@settings(max_examples=200, deadline=None)
@given(fork_branches(), st.randoms(use_true_random=False))
def test_interleaves_accepts_exactly_the_shuffles(branches, rng):
    full = set(enumerate_interleavings(branches))
    assert all(interleaves(branches, inter) for inter in full)
    pairs = [(i, j) for i, branch in enumerate(branches) for j in range(len(branch))]
    for _ in range(20):
        order = tuple(rng.sample(pairs, len(pairs)))
        assert interleaves(branches, order) == (order in full)
    assert not interleaves(branches, (*pairs, (len(branches), 0)))
    if pairs:  # an atom taken twice, and one left out
        assert not interleaves(branches, (*pairs, pairs[-1]))
        assert not interleaves(branches, pairs[1:])


@pytest.mark.parametrize("copies, length, count", [
    (5, 2, 42), (3, 3, 42), (4, 3, 462), (6, 2, 132),
])
def test_identical_branches_lay_out_each_sequence_once(copies, length, count):
    body = [IntLit(j) for j in range(length)]
    branches = [list(body) for _ in range(copies)]
    out = enumerate_interleavings(branches, distinct=True)
    assert len(out) == count == len(first_layouts(branches, out))


def test_distinct_branches_keep_every_interleaving():
    branches = [[IntLit(j) for j in range(7)], [IntLit(10 + j) for j in range(7)]]
    full = enumerate_interleavings(branches)
    assert enumerate_interleavings(branches, distinct=True) == full
    assert len(full) == 3432


# ---------------------------------------------------------------------------
# Bounds

def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(forkfor_max=-1)
    with pytest.raises(ValueError):
        Bounds(max_steps_per_path=0)
    with pytest.raises(ValueError):
        Bounds(max_states=0)


# ---------------------------------------------------------------------------
# Cross-cutting properties

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_only_heads_step_and_contents_never_change(seed):
    rng = random.Random(seed)
    mode = rng.choice((Mode.WHILEF, Mode.SAFE))
    prog = random_program(rng, mode)
    store = random_store(rng)
    status = {f: rng.choice("oc") for f in store.names()}
    c0 = make_configuration([Ctrl(prog.body)], {}, status, store, mode)
    seen = {canonical_key(c0)}
    frontier = [c0]
    while frontier:
        c = frontier.pop()
        for inst, after in step(c, B):
            # file contents are immutable; statuses move only via open/close
            assert after.store.names() == c.store.names()
            for f in c.store.names():
                assert after.store.contents(f) == c.store.contents(f)
            if inst.rule not in ("open", "close"):
                assert after.status == c.status
            key = canonical_key(after)
            if key not in seen:
                seen.add(key)
                frontier.append(after)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fork_free_positioned_configs_are_deterministic(seed):
    from generators import random_safe_config

    c = random_safe_config(random.Random(seed))
    assert len(step(c, B)) <= 1
