"""Search, witness, single-run, and dialect-embedding tests."""

import random

import pytest

from filesafe import (
    Bounds,
    EXHAUSTED_STATES,
    EXHAUSTED_STEPS,
    InvalidTraceError,
    Mode,
    ModeError,
    OUTCOME_CUTOFF,
    OUTCOME_FINAL,
    OUTCOME_STUCK,
    ReadMode,
    Safe,
    SearchBoundError,
    Trace,
    Unknown,
    Unsafe,
    embed_trace,
    explore,
    initial_config,
    is_final,
    normal_form_traces,
    oracle_explore,
    parse_program,
    pretty_print,
    reachable_normal_forms,
    relax_program,
    run_single,
    step,
    validate_trace,
)
from filesafe.machine import Ctrl, FileStore, env_get
from filesafe.report import format_choice
from filesafe.syntax import IntLit, ReadAt, ReadND, Seq, AtomStmt

from conftest import CORPUS, corpus_case, corpus_cases
from generators import random_program, random_store

B = Bounds(forkfor_max=2)


def explored(name, **bound_overrides):
    case = corpus_case(name)
    return explore(case.config(), case.bounds(**bound_overrides), read_mode=case.read_mode)


# ---------------------------------------------------------------------------
# Graph search verdicts

def test_unopened_close_is_stuck_immediately():
    verdict = explored("close_unopened")
    assert isinstance(verdict, Unsafe)
    assert verdict.witness.steps == () and verdict.witness.outcome == OUTCOME_STUCK
    assert verdict.stuck == verdict.witness.start


def test_double_open_witness():
    verdict = explored("open_twice")
    assert isinstance(verdict, Unsafe)
    assert [inst.rule for inst, _ in verdict.witness.steps] == ["seq", "open"]
    assert not is_final(verdict.stuck)


def test_straight_line_read_is_safe():
    verdict = explored("seq_read")
    assert verdict == Safe(normal_forms=1, states_visited=6)


def test_replicated_reader_is_safe_at_several_bounds():
    case = corpus_case("forkfor_pointer")
    for k in (1, 2, 3):
        verdict = explore(case.config(), Bounds(forkfor_max=k))
        assert isinstance(verdict, Safe), k
    assert explored("forkfor_pointer") == Safe(normal_forms=3, states_visited=33)


def test_replicated_reader_final_positions():
    case = corpus_case("forkfor_pointer")
    finals = reachable_normal_forms(case.config(), Bounds(forkfor_max=3))
    ys = {env_get(c, "y") for c in finals} - {None}
    assert ys == {0, 1, 2}  # one published position per repetition count


def test_racing_writers_keep_both_outcomes():
    case = corpus_case("fork_race")
    finals = reachable_normal_forms(case.config(), case.bounds())
    assert {env_get(c, "y") for c in finals} == {3, 4}


def test_whole_corpus_verdicts():
    for case in CORPUS:
        verdict = explore(case.config(), case.bounds(), read_mode=case.read_mode)
        kind = "unsafe" if isinstance(verdict, Unsafe) else "safe" if isinstance(verdict, Safe) else "unknown"
        assert kind == case.verdict, case.name


# ---------------------------------------------------------------------------
# Witnesses

def test_witnesses_replay_and_end_stuck():
    for case in corpus_cases(verdict="unsafe"):
        verdict = explore(case.config(), case.bounds(), read_mode=case.read_mode)
        witness = verdict.witness
        validate_trace(witness, case.bounds(), read_mode=case.read_mode)
        assert witness.start == case.config()
        assert witness.last == verdict.stuck
        assert not is_final(verdict.stuck)
        assert not step(verdict.stuck, case.bounds(), read_mode=case.read_mode)


def test_witnesses_are_minimal():
    # The tree search finds stuck states breadth-first too, independently.
    for case in corpus_cases(verdict="unsafe"):
        graph = explore(case.config(), case.bounds(), read_mode=case.read_mode)
        tree = oracle_explore(case.config(), case.bounds(), read_mode=case.read_mode)
        assert len(graph.witness.steps) == len(tree.witness.steps), case.name


def test_tampered_traces_are_rejected():
    verdict = explored("open_twice")
    inst, after = verdict.witness.steps[-1]
    bad_rule = type(inst)("close", inst.choice)
    tampered = Trace(verdict.witness.start, verdict.witness.steps[:-1] + ((bad_rule, after),))
    with pytest.raises(InvalidTraceError, match="step 1"):
        validate_trace(tampered, B)


# ---------------------------------------------------------------------------
# Bounded search gives up loudly

def test_step_bound_yields_unknown():
    verdict = explored("loop", max_steps_per_path=3)
    assert verdict == Unknown(exhausted=EXHAUSTED_STEPS, frontier=1)


def test_state_bound_yields_unknown():
    verdict = explored("skip", max_states=1)
    assert isinstance(verdict, Unknown) and verdict.exhausted == EXHAUSTED_STATES


def test_safety_is_never_claimed_beyond_the_bounds():
    assert isinstance(explored("seq_read", max_steps_per_path=2), Unknown)


def test_stuck_states_win_over_bound_exhaustion():
    # The bound clips part of the graph, but a stuck state is still found.
    verdict = explored("guard_stuck", max_states=1)
    assert isinstance(verdict, Unsafe)


def test_reachable_normal_forms_refuses_clipped_graphs():
    case = corpus_case("loop")
    with pytest.raises(SearchBoundError):
        reachable_normal_forms(case.config(), case.bounds(max_steps_per_path=3))


# ---------------------------------------------------------------------------
# Tree search

def test_tree_and_graph_verdicts_agree_on_the_corpus():
    for case in CORPUS:
        graph = explore(case.config(), case.bounds(), read_mode=case.read_mode)
        tree = oracle_explore(case.config(), case.bounds(), read_mode=case.read_mode)
        assert type(graph) is type(tree), case.name


def test_every_tree_trace_reaches_a_normal_form():
    case = corpus_case("fork_race")
    traces = normal_form_traces(case.config(), case.bounds())
    assert len(traces) == 2  # one per interleaving
    for trace in traces:
        assert trace.outcome == OUTCOME_FINAL
        validate_trace(trace, case.bounds())
    assert {env_get(t.last, "y") for t in traces} == {3, 4}


def test_tree_traces_tag_stuck_leaves():
    case = corpus_case("guard_stuck")
    traces = normal_form_traces(case.config(), case.bounds())
    assert [t.outcome for t in traces] == [OUTCOME_STUCK]
    assert traces[0].steps == ()


def test_tree_traces_cover_every_interleaving():
    case = corpus_case("forkfor_pointer")
    traces = normal_form_traces(case.config(), case.bounds())
    # repetition counts 0 and 1 run one way each; two copies shuffle 4!/2!2! ways
    assert len(traces) == 8 and all(t.outcome == OUTCOME_FINAL for t in traces)
    assert {env_get(t.last, "y") for t in traces} == {None, 0, 1}


def test_tree_search_respects_bounds():
    case = corpus_case("loop")
    with pytest.raises(SearchBoundError):
        normal_form_traces(case.config(), case.bounds(max_steps_per_path=3))


@pytest.mark.parametrize(
    "name,bound_overrides,verdict",
    [
        ("loop", {"max_steps_per_path": 3}, Unknown(EXHAUSTED_STEPS, 1)),
        ("fork_race", {"max_states": 3}, Unknown(EXHAUSTED_STATES, 1)),
        ("forkfor_pointer", {"max_states": 20}, Unknown(EXHAUSTED_STATES, 7)),
    ],
)
def test_tree_search_gives_up_loudly(name, bound_overrides, verdict):
    case = corpus_case(name)
    bounds = case.bounds(**bound_overrides)
    assert oracle_explore(case.config(), bounds) == verdict
    with pytest.raises(SearchBoundError):
        normal_form_traces(case.config(), bounds)


# ---------------------------------------------------------------------------
# Single runs

def test_single_run_of_skip():
    case = corpus_case("skip")
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_FINAL
    assert [inst.rule for inst, _ in trace.steps] == ["skip"]


def test_single_run_reports_stuck():
    case = corpus_case("guard_stuck")
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_STUCK and trace.steps == ()


def test_single_run_cutoff():
    case = corpus_case("loop")
    trace = run_single(case.config(), case.bounds(max_steps_per_path=5))
    assert trace.outcome == OUTCOME_CUTOFF and len(trace.steps) == 5


def test_single_run_may_use_its_whole_step_budget():
    program = parse_program("x = 1; y = 2", Mode.WHILEF)
    c0 = initial_config(program, FileStore.of({}), {})
    final = run_single(c0, Bounds(forkfor_max=2, max_steps_per_path=3))
    assert final.outcome == OUTCOME_FINAL and len(final.steps) == 3
    cut = run_single(c0, Bounds(forkfor_max=2, max_steps_per_path=2))
    assert cut.outcome == OUTCOME_CUTOFF and len(cut.steps) == 2


def test_single_runs_are_reproducible():
    case = corpus_case("fork_race")
    a = run_single(case.config(), case.bounds(), seed=7)
    b = run_single(case.config(), case.bounds(), seed=7)
    assert a == b
    first = run_single(case.config(), case.bounds())
    again = run_single(case.config(), case.bounds())
    assert first == again


def test_seeds_reach_different_interleavings():
    case = corpus_case("fork_race")
    ys = {
        env_get(run_single(case.config(), case.bounds(), seed=s).last, "y")
        for s in range(20)
    }
    assert ys == {3, 4}


def test_single_runs_validate():
    for case in CORPUS:
        trace = run_single(case.config(), case.bounds(), seed=3, read_mode=case.read_mode)
        validate_trace(trace, case.bounds(), read_mode=case.read_mode)


# ---------------------------------------------------------------------------
# Relaxation: forgetting read positions

def test_relax_requires_the_positioned_dialect():
    with pytest.raises(ModeError):
        relax_program(corpus_case("seq_read").program())


def test_relax_rewrites_reads_and_drops_positions():
    relaxed = relax_program(corpus_case("safe_pos_expr").program())
    assert relaxed.mode is Mode.WHILEF
    assert pretty_print(relaxed) == "open(f); i = 1; (x, p__0) = read(f); close(f); y = x + 1"


def test_relax_numbers_reads_in_program_order():
    prog = parse_program("x = read(f, 0); y = read(g, x); z = read(f, 2)", Mode.SAFE)
    relaxed = relax_program(prog)
    assert pretty_print(relaxed) == "(x, p__0) = read(f); (y, p__1) = read(g); (z, p__2) = read(f)"
    assert relaxed.files == prog.files


def test_relax_drops_reads_inside_positions_unnumbered():
    prog = parse_program("x = read(f, y = read(g, 0)); z = read(f, 1)", Mode.SAFE)
    relaxed = relax_program(prog)
    assert pretty_print(relaxed) == "(x, p__0) = read(f); (z, p__1) = read(f)"
    assert prog.files == {"f", "g"} and relaxed.files == {"f"}


# ---------------------------------------------------------------------------
# Embedding positioned traces into the relaxed program

def embed_case(name):
    case = corpus_case(name)
    program = case.program()
    return case, program, relax_program(program)


def test_embedded_trace_replays_the_read_position():
    case, program, relaxed = embed_case("safe_read")
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_FINAL
    embedded = embed_trace(trace, relaxed)
    validate_trace(embedded, Bounds(forkfor_max=2), read_mode=ReadMode.ORACLE)
    assert embedded.outcome == OUTCOME_FINAL
    assert env_get(embedded.last, "x") == 20
    assert env_get(embedded.last, "p__0") == 1  # the position the original read used


def test_embedding_requires_a_relaxed_target():
    case, program, _ = embed_case("safe_read")
    trace = run_single(case.config(), case.bounds())
    with pytest.raises(ModeError):
        embed_trace(trace, program)


def test_every_final_trace_of_safe_programs_embeds():
    for case in corpus_cases(mode=Mode.SAFE, verdict="safe"):
        relaxed = relax_program(case.program())
        for trace in normal_form_traces(case.config(), case.bounds()):
            assert trace.outcome == OUTCOME_FINAL
            embedded = embed_trace(trace, relaxed)
            assert embedded.outcome == OUTCOME_FINAL
            validate_trace(embedded, Bounds(forkfor_max=2), read_mode=ReadMode.ORACLE)


def test_stuck_for_file_reasons_embeds_stuck():
    # A read of a closed file is stuck in both dialects.
    case, _, relaxed = embed_case("safe_read_closed")
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_STUCK
    embedded = embed_trace(trace, relaxed)
    assert embedded.outcome == OUTCOME_STUCK and embedded.steps == ()


def test_stuck_on_a_negative_position_has_no_counterpart():
    # Position-free reads never demand a negative position, so the stuck
    # positioned trace corresponds to no run of the relaxed program.
    case, _, relaxed = embed_case("safe_neg_pos")
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_STUCK
    with pytest.raises(InvalidTraceError):
        embed_trace(trace, relaxed)


# Safe-dialect source run with file f open, the relaxed source it is
# embedded into, whether its steps are cut to none, and the complaint.
MISMATCHED_EMBEDDINGS = {
    "cut": ("i = 0; while i < 5 do i = i + 1", None, True, "did not terminate"),
    "extra read": ("x = read(f, 0); close(f)", "close(f)", False, "unused choices"),
    "stuck": ("close(f); close(f)", "skip", False, "outcome differs"),
    "fork over read": ("fork { skip, close(f) }", "x = read(f, 0)", False, "not a read position"),
    "three branches": (
        "fork { skip, skip, skip }", "fork { skip, skip }", False, "not available",
    ),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED_EMBEDDINGS))
def test_embedding_rejects_traces_that_do_not_replay(name):
    source, target, cut, message = MISMATCHED_EMBEDDINGS[name]
    program = parse_program(source, Mode.SAFE)
    trace = run_single(initial_config(program, FileStore.of({"f": (7,)}), {"f": "o"}), B)
    if cut:
        trace = Trace(trace.start, ())
    relaxed = relax_program(parse_program(target or source, Mode.SAFE))
    with pytest.raises(InvalidTraceError, match=message):
        embed_trace(trace, relaxed)


# ---------------------------------------------------------------------------
# Annotating observed positions back onto a deterministic run

def annotate_reads(program, positions):
    """Pin every position-free read to the position a run observed."""
    remaining = list(positions)

    def walk(stmt):
        if isinstance(stmt, AtomStmt):
            atom = stmt.atom
            if isinstance(atom, ReadND):
                return AtomStmt(ReadAt(atom.target, atom.file, IntLit(remaining.pop(0))))
            return stmt
        assert isinstance(stmt, Seq)
        first = walk(stmt.first)
        return Seq(first, walk(stmt.second))

    body = walk(program.body)
    assert not remaining
    from filesafe import make_program

    return make_program(Mode.SAFE, body)


def observed_positions(trace):
    """Positions bound by each cursor read along the trace, in order."""
    config = trace.start
    out = []
    for inst, after in trace.steps:
        head = config.control[0]
        if inst.rule == "read-nd" and isinstance(head, Ctrl) and isinstance(head.item, ReadND):
            out.append(env_get(after, head.item.pointer))
        config = after
    return out


@pytest.mark.parametrize("name", ["seq_read", "read_eof"])
def test_observed_positions_make_straight_line_programs_positioned(name):
    case = corpus_case(name)
    trace = run_single(case.config(), case.bounds())
    assert trace.outcome == OUTCOME_FINAL
    pinned = annotate_reads(case.program(), observed_positions(trace))
    c0 = case.config()
    verdict = explore(initial_config(pinned, c0.store, dict(c0.status)), case.bounds())
    assert isinstance(verdict, Safe)


# ---------------------------------------------------------------------------
# Fork pruning: the graph route on the full relation decides the same

def graph_results(c0, bounds, read_mode):
    """explore's verdict and reachable_normal_forms' list (or its error)."""
    try:
        forms = reachable_normal_forms(c0, bounds, read_mode=read_mode)
    except SearchBoundError as exc:
        forms = str(exc)
    return explore(c0, bounds, read_mode=read_mode), forms


def assert_pruning_changes_nothing(monkeypatch, c0, bounds, read_mode=ReadMode.CURSOR):
    pruned = graph_results(c0, bounds, read_mode)
    with monkeypatch.context() as m:
        m.setattr(
            "filesafe.explorer.step",
            lambda config, bounds, *, distinct=False, **kw: step(config, bounds, **kw),
        )
        full = graph_results(c0, bounds, read_mode)
    assert pruned == full


TIGHT = {"max_states": 7, "max_steps_per_path": 4}


@pytest.mark.parametrize("read_mode", list(ReadMode))
@pytest.mark.parametrize("tight", [False, True])
def test_fork_pruning_keeps_corpus_results(monkeypatch, read_mode, tight):
    for case in CORPUS:
        bounds = case.bounds(**TIGHT) if tight else case.bounds()
        assert_pruning_changes_nothing(monkeypatch, case.config(), bounds, read_mode)


@pytest.mark.parametrize("tight", [False, True])
def test_fork_pruning_keeps_random_program_results(monkeypatch, tight):
    rng = random.Random(24680)
    bounds = Bounds(forkfor_max=2, **TIGHT) if tight else B
    for _ in range(400):
        mode = rng.choice((Mode.WHILEF, Mode.SAFE))
        read_mode = rng.choice(list(ReadMode)) if mode is Mode.WHILEF else ReadMode.CURSOR
        program = random_program(rng, mode)
        store = random_store(rng)
        status = {f: rng.choice("oc") for f in store.names()}
        c0 = initial_config(program, store, status)
        assert_pruning_changes_nothing(monkeypatch, c0, bounds, read_mode)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_fork_pruning_keeps_replicated_reader_results(monkeypatch, k):
    case = corpus_case("forkfor_pointer")
    assert_pruning_changes_nothing(monkeypatch, case.config(), Bounds(forkfor_max=k))


def test_pruned_fork_witness_replays_on_the_full_relation():
    program = parse_program("open(f); forkfor { close(f) }", Mode.WHILEF)
    c0 = initial_config(program, FileStore.of({"f": ()}), {"f": "c"})
    bounds = Bounds(forkfor_max=3)
    verdict = explore(c0, bounds)
    assert isinstance(verdict, Unsafe)
    assert len(verdict.witness.steps) == 5
    fork_labels = [
        format_choice(inst) for inst, _ in verdict.witness.steps if inst.rule == "fork"
    ]
    assert fork_labels == ["order=(0,0)(1,0)"]
    validate_trace(verdict.witness, bounds)


# ---------------------------------------------------------------------------
# Random programs: the two search routes never disagree

def test_search_routes_agree_on_random_programs():
    rng = random.Random(13579)
    for _ in range(150):
        mode = rng.choice((Mode.WHILEF, Mode.SAFE))
        read_mode = (
            ReadMode.ORACLE
            if mode is Mode.WHILEF and rng.random() < 0.4
            else ReadMode.CURSOR
        )
        program = random_program(rng, mode)
        store = FileStore.of(
            {f: tuple(rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))) for f in program.files}
        )
        status = {f: rng.choice("oc") for f in program.files}
        c0 = initial_config(program, store, status)
        graph = explore(c0, B, read_mode=read_mode)
        tree = oracle_explore(c0, B, read_mode=read_mode)
        assert type(graph) is type(tree), pretty_print(program)
        if isinstance(graph, Unsafe):
            assert len(graph.witness.steps) == len(tree.witness.steps)
