"""Report serialization and command line behavior."""

import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from filesafe import (
    Bounds,
    Mode,
    ReadMode,
    Report,
    RuleInstance,
    SCHEMA,
    SpecError,
    Trace,
    Unsafe,
    embed_trace,
    explore,
    normal_form_traces,
    relax_program,
    run_single,
    validate_trace,
)
from filesafe import semantics
from filesafe.cli import build_parser, main
from filesafe.machine import Ctrl, HoleOpLeft, HoleOpRight, is_final
from filesafe.report import (
    decode,
    encode,
    format_choice,
    format_frame,
    format_step,
    format_trace,
    summarize_control,
    trace_from_obj,
    trace_to_obj,
)
from filesafe.syntax import BinOp, Seq, Var

from conftest import CORPUS, corpus_case

B = Bounds(forkfor_max=2)


# ---------------------------------------------------------------------------
# Serialization round trips

def test_every_corpus_body_round_trips():
    for case in CORPUS:
        body = case.program().body
        assert decode(encode(body))[-1] == body, case.name


def _obj(trace, case):
    """The JSON object of `trace`, a run of `case`, through JSON text, which keeps it equal."""
    obj = trace_to_obj(trace, case.bounds(), read_mode=case.read_mode, truthy=False)
    read_back = json.loads(json.dumps(obj))
    assert read_back == obj
    return read_back


def test_choice_round_trips():
    # A step stores its choice as null, an order, a count or a position.
    seen = set()
    for name in ("fork_race", "forkfor_pointer", "oracle_predicate"):
        case = corpus_case(name)
        for seed in range(5):
            trace = run_single(case.config(), case.bounds(), seed=seed, read_mode=case.read_mode)
            restored = trace_from_obj(_obj(trace, case))
            assert restored == trace
            seen.update(format_choice(rule_instance).partition("=")[0]
                        for rule_instance, _ in restored.steps)
    assert seen == {"-", "order", "k", "n"}


def test_configs_along_traces_round_trip():
    # Decoding replays the steps, so every mid-trace configuration, holes
    # and all, is rebuilt as the very object the run made.  A trace that
    # starts anywhere but at a program's start (one frame, no variables)
    # cannot be written.
    for name in ("fork_race", "safe_pos_expr", "oracle_predicate"):
        case = corpus_case(name)
        trace = run_single(case.config(), case.bounds(), seed=5, read_mode=case.read_mode)
        restored = trace_from_obj(_obj(trace, case))
        assert restored.start is trace.start
        assert [c for _, c in restored.steps] == [c for _, c in trace.steps]
        for _, config in trace.steps:
            if len(config.control) == 1 and not config.env:
                continue
            with pytest.raises(ValueError, match="start configuration"):
                trace_to_obj(Trace(config, ()), B, read_mode=case.read_mode, truthy=False)


def test_traces_round_trip_and_still_validate():
    case = corpus_case("open_twice")
    verdict = explore(case.config(), case.bounds())
    restored = trace_from_obj(_obj(verdict.witness, case))
    assert restored == verdict.witness
    validate_trace(restored, case.bounds())


def test_a_fork_of_identical_branches_replays_its_one_order(tmp_path, capsys, monkeypatch):
    # The search lays out one order per distinct sequence, 10,395 here;
    # the full relation has 12! / 2^6 = 7,484,400.  Replay, and text
    # `check` through it, lay out the recorded order alone.
    source = tmp_path / "twins.wf"
    source.write_text("fork {" + ", ".join(["skip; skip"] * 6) + "}; 1 / 0\n")
    report = tmp_path / "report.json"
    assert main(["check", str(source), "--mode", "whilef", "--json", str(report)]) == 1
    obj = json.loads(report.read_text())
    assert ["fork", [[b, a] for b in range(6) for a in range(2)]] in obj["witness"]["steps"]

    def lay_out_all(*args, **kwargs):
        raise AssertionError("replay laid out every interleaving")

    monkeypatch.setattr(semantics, "enumerate_interleavings", lay_out_all)
    witness = trace_from_obj(obj["witness"])
    validate_trace(witness, B)
    text = Report.from_obj(obj).render_text()
    assert "witness (14 steps):" in text
    assert "fork [order=(0,0)(0,1)(1,0)" in text


def test_report_round_trips():
    samples = [
        Report("safe", states=6, normal_forms=1, witness=None, exhausted=None,
               frontier=None, bounds={"forkfor_max": 2}, flags={"mode": "whilef"}),
        Report("unknown", states=None, normal_forms=None, witness=None,
               exhausted="steps", frontier=4, wall_time_ms=1.25),
    ]
    case = corpus_case("div_zero")
    verdict = explore(case.config(), case.bounds())
    samples.append(
        Report("unsafe", states=None, normal_forms=None,
               witness=trace_to_obj(verdict.witness, B, read_mode=ReadMode.CURSOR, truthy=False),
               exhausted=None, frontier=None)
    )
    for report in samples:
        obj = report.to_obj()
        assert obj["schema"] == SCHEMA
        assert Report.from_obj(json.loads(json.dumps(obj))) == report


def test_unsupported_schema_is_rejected():
    with pytest.raises(SpecError, match="schema"):
        Report.from_obj({"schema": "filesafe-report/999"})
    for old in ("filesafe-report/1", "filesafe-report/2"):
        with pytest.raises(SpecError, match=f"unsupported report schema '{old}'"):
            Report.from_obj({"schema": old})


def _witness(**keys):
    """open_twice's witness object, with `keys` replaced."""
    case = corpus_case("open_twice")
    return {**_obj(explore(case.config(), B).witness, case), **keys}


INT = {"node": "int", "n": 1}


def _binop(**keys):
    """A node table of 1 and a `1 + 1` with `keys` replaced."""
    return [INT, {"node": "binop", "op": "+", "left": 0, "right": 0, **keys}]


def _report(**keys):
    report = Report("safe", states=6, normal_forms=1, witness=None, exhausted=None,
                    frontier=None, bounds={"forkfor_max": 2}, flags={"mode": "whilef"})
    return {**report.to_obj(), **keys}


@pytest.mark.parametrize("load", [
    # A report with every field but the schema missing.
    lambda: Report.from_obj({"schema": SCHEMA}),
    # A binop without its left operand.
    lambda: decode([INT, {"node": "binop", "op": "+", "right": 0}]),
    # A list where a node reference belongs.
    lambda: decode([INT, {"node": "stmt", "atom": [0]}]),
    # An unknown dialect and read mode.
    lambda: trace_from_obj(_witness(mode="nope")),
    lambda: trace_from_obj(_witness(read_mode="nope")),
    lambda: trace_from_obj(_witness(read_mode=None)),
    # A node with a key its class does not have.
    lambda: decode([{"node": "int", "n": 1, "extra": 0}]),
    # An unknown tag, and a string where a node reference belongs.
    lambda: decode([{"node": "goto"}]),
    lambda: decode(_binop(left="x")),
    # A string and a bool where an integer belongs.
    lambda: decode([{"node": "int", "n": "5"}]),
    lambda: decode([{"node": "int", "n": True}]),
    # Report fields of the wrong JSON type, and a verdict the tool never writes.
    lambda: Report.from_obj(_report(bounds=[])),
    lambda: Report.from_obj(_report(flags=[])),
    lambda: Report.from_obj(_report(wall_time_ms="5")),
    lambda: Report.from_obj(_report(verdict="maybe")),
    # Containers of the wrong JSON type inside a witness.
    lambda: trace_from_obj(_witness(nodes={})),
    lambda: trace_from_obj(_witness(files=[])),
    lambda: trace_from_obj(_witness(steps={})),
    # A witness with a key missing, and with the `/2` start configuration.
    lambda: trace_from_obj({k: v for k, v in _witness().items() if k != "truthy"}),
    lambda: trace_from_obj(_witness(start={})),
    # Rules that are not a bool and a non-negative integer.
    lambda: trace_from_obj(_witness(truthy=1)),
    lambda: trace_from_obj(_witness(truthy=None)),
    lambda: trace_from_obj(_witness(forkfor_max=-1)),
    lambda: trace_from_obj(_witness(forkfor_max=True)),
    lambda: trace_from_obj(_witness(forkfor_max=2.0)),
    # No program body.
    lambda: trace_from_obj(_witness(nodes=[])),
    # A `/2` trace step, with keys in place of a [rule, choice] pair, and
    # steps that are not pairs.
    lambda: trace_from_obj(_witness(steps=[{"rule": "seq", "choice": 0}])),
    lambda: trace_from_obj(_witness(steps=[["seq"]])),
    lambda: trace_from_obj(_witness(steps=[["seq", None, None]])),
    lambda: trace_from_obj(_witness(steps=["seq"])),
    # References: past the end, to a later row, negative, not an int.
    lambda: decode(_binop(left=2)),
    lambda: decode([{"node": "binop", "op": "+", "left": 1, "right": 1}, INT]),
    lambda: decode(_binop(left=-1)),
    lambda: decode(_binop(left=0.0)),
    lambda: decode(_binop(left=True)),
    # A row under a tag key no kind has, and a `/2` frame tag as a node's.
    lambda: decode([{"nope": "int", "n": 1}]),
    lambda: decode([INT, {"node": "ctrl", "item": 0}]),
    # A fork-if arm that is not a pair.
    lambda: decode([INT, {"node": "stmt", "atom": 0}, {"node": "forkif", "arms": [[0]]}]),
    # References to a row of the wrong kind: an expression as a fork
    # branch, and a statement as an operand.
    lambda: decode([INT, {"node": "fork", "branches": [0]}]),
    lambda: decode([INT, {"node": "stmt", "atom": 0}, {"node": "binop", "op": "+",
                                                      "left": 1, "right": 0}]),
    # Operators `step` cannot apply: an unknown one, and `&&` as a binop.
    lambda: decode(_binop(op="**")),
    lambda: decode(_binop(op="&&")),
    # Filesafe-report/1 and /2 documents.
    lambda: Report.from_obj({**_report(), "schema": "filesafe-report/1"}),
    lambda: Report.from_obj({**_report(), "schema": "filesafe-report/2"}),
], ids=[
    "report-keys", "missing-key", "list-node", "mode", "read-mode", "read-mode-null",
    "extra-key", "tag", "scalar-node", "scalar-type", "int-bool", "bounds-list", "flags-list",
    "wall-time-string", "verdict-unknown", "nodes-object", "files-list",
    "steps-object", "witness-missing-key", "witness-extra-key", "truthy-int",
    "truthy-null", "forkfor-max-negative", "forkfor-max-bool", "forkfor-max-float",
    "nodes-empty", "step-keys", "step-short", "step-long", "step-string",
    "reference-out-of-range", "forward-reference",
    "negative-reference", "float-reference", "bool-reference",
    "unknown-tag-key", "tag-of-another-kind", "arm-length", "branch-kind", "operand-kind",
    "operator", "operator-logical", "schema-1", "schema-2",
])
def test_malformed_documents_raise_spec_error(load):
    with pytest.raises(SpecError):
        load()


def _witness_step(rule, choice=None):
    """open_twice's witness, its first step replaced by [rule, choice]."""
    witness = _witness()
    return {**witness, "steps": [[rule, choice], *witness["steps"][1:]]}


def _file(**keys):
    """_witness() with `keys` replaced in its entry for file f."""
    return _witness(files={"f": {"status": "c", "contents": [], **keys}})


@pytest.mark.parametrize("obj", [
    _file(contents=["a", None]), _file(contents=[1, True]), _file(contents=[1.5]),
    _file(cursor=0), _witness(files={"f": []}),
    _file(status="open"), _file(status=None), _file(status=["o"]),
    _witness_step(7), _witness_step(None), _witness_step(["seq"]),
    _witness(outcome="maybe"), _witness(outcome=1), _witness(outcome=[]),
], ids=[
    "contents-strings", "contents-bool", "contents-float", "file-cursor", "file-list",
    "status-word", "status-null", "status-list",
    "rule-int", "rule-null", "rule-list",
    "outcome-word", "outcome-int", "outcome-list",
])
def test_trace_values_of_the_wrong_type_raise_spec_error(obj):
    with pytest.raises(SpecError):
        trace_from_obj(obj)


def _oracle_witness(rule, choice):
    """oracle_predicate's witness, the choice of its first `rule` step replaced.

    `choice` is the new choice, or a function of the recorded one.
    """
    case = corpus_case("oracle_predicate")
    witness = _obj(explore(case.config(), B, read_mode=case.read_mode).witness, case)
    steps = witness["steps"]
    i = next(i for i, (name, _) in enumerate(steps) if name == rule)
    if callable(choice):
        choice = choice(steps[i][1])
    return {**witness, "steps": [*steps[:i], [rule, choice], *steps[i + 1:]]}


def _body(*rows):
    """open_twice's witness with the node table `rows` and one op-apply step."""
    return _witness(nodes=list(rows), files={}, steps=[["op-apply", None]])


@pytest.mark.parametrize("obj", [
    # A rule the configuration does not take, and a choice on a step
    # that has none.
    _witness_step("skip"), _witness_step("seq", 0),
    # A fork order that is not an interleaving of the branches, a
    # position past the end of the file, a count past forkfor_max, and a
    # count or position that is not an integer.
    _oracle_witness("fork", [[0, 1], [0, 0]]),
    _oracle_witness("fork", []),
    _oracle_witness("fork", None),
    _oracle_witness("read-nd", 99),
    _oracle_witness("forkfor", 3),
    _oracle_witness("forkfor", True),
    _oracle_witness("read-nd", "1"),
    # A fork order of the right values in the wrong JSON types.
    _oracle_witness("fork", lambda order: [[b, float(a)] for b, a in order]),
    _oracle_witness("fork", lambda order: [[bool(b), a] for b, a in order]),
    # A step past the stuck end.
    _witness(steps=[*_witness()["steps"], ["open", None]]),
    # Bodies the parser cannot produce: `1 ** 1`, and a fork in a fork branch.
    _body(INT, {"node": "binop", "op": "**", "left": 0, "right": 0}),
    _body({"node": "skip"}, {"node": "stmt", "atom": 0}, {"node": "fork", "branches": [1]},
          {"node": "fork", "branches": [2]}),
], ids=[
    "rule", "choice-on-unique", "order", "order-short", "order-null", "position", "count",
    "count-bool", "position-string", "order-float", "order-bool", "past-the-end",
    "operator", "nested-fork",
])
def test_steps_not_on_offer_raise_spec_error(obj):
    with pytest.raises(SpecError):
        trace_from_obj(obj)


SKIP_SKIP = [{"node": "skip"}, {"node": "stmt", "atom": 0},
             {"node": "fork", "branches": [1, 1]}]  # fork {skip, skip}, row 2


@pytest.mark.parametrize("rows", [
    # forkif {(1, fork {skip, skip})}
    [*SKIP_SKIP, INT, {"node": "forkif", "arms": [[3, 2]]}],
    # forkfor {fork {skip, skip}}
    [*SKIP_SKIP, {"node": "forkfor", "body": 2}],
    # fork {if 1 then fork {skip, skip} else skip}
    [*SKIP_SKIP, INT, {"node": "if", "cond": 3, "then": 2, "else": 0},
     {"node": "stmt", "atom": 4}, {"node": "fork", "branches": [5]}],
], ids=["forkif", "forkfor", "through-if"])
def test_a_fork_inside_a_fork_is_rejected_at_decode(rows):
    with pytest.raises(SpecError, match="may not hold another fork"):
        decode(rows)
    steps = [["forkif", None], ["fork", [[0, 0]]], ["if-true", None],
             ["fork", [[0, 0], [1, 0]]], ["skip", None], ["skip", None]]
    with pytest.raises(SpecError, match="may not hold another fork"):
        trace_from_obj(_witness(nodes=rows, files={}, steps=steps, outcome="final"))


def test_the_fork_check_visits_each_shared_row_once():
    # 30 `seq` rows, each holding the one before twice, stand for 2^30
    # forks; the check reads each row once.
    rows = [*SKIP_SKIP, *({"node": "seq", "first": i, "second": i} for i in range(2, 32))]
    started = time.perf_counter()
    assert type(decode(rows)[-1]) is Seq
    with pytest.raises(SpecError):
        decode([*rows, {"node": "forkfor", "body": len(rows) - 1}])
    assert time.perf_counter() - started < 0.5


# ---------------------------------------------------------------------------
# Human-readable formatting

def test_frame_and_choice_formatting():
    assert format_frame(HoleOpLeft(2, "+")) == "2 + _"
    sum_ = BinOp("+", Var("b"), Var("c"))
    assert format_frame(HoleOpRight("*", sum_)) == "_ * (b + c)"
    assert format_frame(HoleOpRight("+", sum_)) == "_ + (b + c)"
    assert format_frame(HoleOpRight("+", BinOp("*", Var("b"), Var("c")))) == "_ + b * c"
    assert format_choice(RuleInstance("read-nd")) == "-"
    assert format_choice(RuleInstance("forkfor", 2)) == "k=2"
    assert format_choice(RuleInstance("read-nd", 1)) == "n=1"
    assert format_choice(RuleInstance("fork", ((0, 0), (1, 0)))) == "order=(0,0)(1,0)"


def test_control_summaries_elide_long_stacks():
    case = corpus_case("fork_race")
    trace = run_single(case.config(), case.bounds())
    summaries = [summarize_control(c.control) for _, c in trace.steps]
    assert any("…" in s for s in summaries)
    assert all("::" in s for s in summaries if "::" in s)
    # A frame's text is cut at 200 characters, the last of them `…`.
    from filesafe import parse_program

    chain = Ctrl(parse_program("skip; " * 99 + "x = 1", Mode.WHILEF).body)
    assert len(format_frame(chain)) == 599
    assert summarize_control((chain,)) == format_frame(chain)[:199] + "…"


def test_run_and_the_text_report_print_traces_alike(capsys):
    case = corpus_case("div_zero")
    assert main(run_argv("div_zero")) == 1
    trace = run_single(case.config(), case.bounds())
    assert capsys.readouterr().out.splitlines()[:-1] == format_trace(trace)
    assert main(check_argv("div_zero")) == 1
    witness = explore(case.config(), case.bounds()).witness
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(f"witness ({len(witness.steps)} steps):") + 1
    assert lines[start:start + len(witness.steps) + 1] == [
        "  " + line for line in format_trace(witness)
    ]


def test_step_lines_carry_env_and_statuses():
    case = corpus_case("seq_read")
    trace = run_single(case.config(), case.bounds())
    line = format_step(*[(inst, c) for inst, c in trace.steps][-1])
    assert "env={" in line and "files={" in line and "=>" in line


# ---------------------------------------------------------------------------
# check

def check_argv(name, *extra):
    case = corpus_case(name)
    argv = ["check", str(case.path), "--mode", case.mode.value]
    if case.read_mode is ReadMode.ORACLE:
        argv += ["--read-mode", "oracle"]
    if case.fs_path.exists():
        argv += ["--fs", str(case.fs_path)]
    return argv + list(extra)


def test_check_exit_codes_cover_all_verdicts(capsys):
    assert main(check_argv("seq_read")) == 0
    assert "verdict: safe" in capsys.readouterr().out
    assert main(check_argv("open_twice")) == 1
    assert "verdict: unsafe" in capsys.readouterr().out
    assert main(check_argv("loop", "--max-steps", "3")) == 2
    out = capsys.readouterr().out
    assert "verdict: unknown" in out and "exhausted: steps" in out


def test_a_later_call_sees_no_option_of_an_earlier_one(tmp_path, capsys):
    # One parser serves every `main` call in a process.
    def call(argv):
        code = main(argv)
        return code, re.sub(r"wall time: .*", "", capsys.readouterr().out)

    run = ["run", *check_argv("fork_race")[1:]]
    check = check_argv("open_twice")
    for argv, extra in ((run, ["--seed", "3"]), (check, ["--json", str(tmp_path / "r.json")])):
        build_parser.cache_clear()
        fresh = call(argv)
        assert call(argv + extra) != fresh
        assert call(argv) == fresh


def test_check_text_report_shows_the_witness(capsys):
    assert main(check_argv("open_twice")) == 1
    out = capsys.readouterr().out
    assert "witness (2 steps):" in out
    assert "open" in out and "files={f=o}" in out


def test_check_json_report_replays(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(check_argv("oracle_predicate", "--json", str(out_path)))
    assert code == 1
    assert "verdict: unsafe" in capsys.readouterr().out
    obj = json.loads(out_path.read_text())
    assert obj["schema"] == SCHEMA and obj["verdict"] == "unsafe"
    assert obj["flags"] == {"mode": "whilef", "read_mode": "oracle", "truthy": False}
    assert obj["bounds"] == {"forkfor_max": 2, "max_steps": 10000, "max_states": 1000000}
    witness = trace_from_obj(obj["witness"])
    validate_trace(witness, B, read_mode=ReadMode.ORACLE)
    assert not is_final(witness.last)


def test_check_json_is_reproducible(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(check_argv("forkfor_pointer", "--json", str(p))) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc["wall_time_ms"] = 0.0
    assert json.dumps(docs[0]) == json.dumps(docs[1])


@pytest.mark.parametrize("name", ["forkfor_pointer", "oracle_predicate", "close_race"])
def test_check_json_is_independent_of_the_hash_seed(tmp_path, name):
    # The search keys states by their Python hash, which changes with the
    # hash seed; breadth-first order must depend only on insertion order.
    # In close_race 24 stuck states tie at depth 1, so its witness names
    # whichever one the search dequeues first.
    if name == "close_race":
        program = tmp_path / "close_race.wf"
        program.write_text("fork { close(a), close(b), close(c), close(d) }\n")
        argv = ["check", str(program), "--mode", "whilef"]
    else:
        argv = check_argv(name)
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("1", "2"):
        path = tmp_path / f"{seed}.json"
        result = subprocess.run(
            [sys.executable, "-m", "filesafe.cli", *argv, "--json", str(path)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, timeout=120,
        )
        doc = json.loads(path.read_text())
        doc["wall_time_ms"] = 0.0
        runs.append((result.returncode, result.stdout, json.dumps(doc)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k, states", [
    (2, 33), (3, 86), (4, 241), (5, 716), (6, 2229), (7, 7196),
])
def test_check_replicated_reader_ladder(capsys, k, states):
    assert main(check_argv("forkfor_pointer", "--forkfor-max", str(k))) == 0
    out = capsys.readouterr().out
    assert f"states visited: {states}\n" in out
    assert f"normal forms: {k + 1}\n" in out


def test_check_respects_truthy(capsys):
    assert main(check_argv("guard_stuck")) == 1
    capsys.readouterr()
    assert main(check_argv("guard_stuck", "--truthy")) == 0
    assert "verdict: safe" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run

def run_argv(name, *extra):
    case = corpus_case(name)
    argv = ["run", str(case.path), "--mode", case.mode.value]
    if case.fs_path.exists():
        argv += ["--fs", str(case.fs_path)]
    return argv + list(extra)


def test_run_prints_each_step(capsys):
    assert main(run_argv("seq_read")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("start: open(f)")
    assert any(line.startswith("read-nd") for line in out)
    assert out[-1] == "outcome: final after 5 steps"


def test_run_exit_codes(capsys):
    assert main(run_argv("guard_stuck")) == 1
    assert "outcome: stuck" in capsys.readouterr().out
    assert main(run_argv("loop", "--max-steps", "4")) == 2
    assert "outcome: cutoff" in capsys.readouterr().out


def test_run_seed_is_reproducible(capsys):
    assert main(run_argv("fork_race", "--seed", "9")) == 0
    first = capsys.readouterr().out
    assert main(run_argv("fork_race", "--seed", "9")) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# relax

def test_relax_to_stdout(capsys):
    case = corpus_case("safe_pos_expr")
    assert main(["relax", str(case.path)]) == 0
    out = capsys.readouterr().out
    assert out == "open(f); i = 1; (x, p__0) = read(f); close(f); y = x + 1\n"


def test_relax_to_file_round_trips(tmp_path, capsys):
    case = corpus_case("safe_seq")
    out_path = tmp_path / "relaxed.wf"
    assert main(["relax", str(case.path), str(out_path)]) == 0
    from filesafe import parse_program

    relaxed = parse_program(out_path.read_text(), Mode.WHILEF)
    assert relaxed.body == relax_program(case.program()).body


# `if` ladders in the else and in the then branch.  Printed text that
# parenthesized each inner `if` would nest twice as deep as its source,
# past the parser's limit.
IF_LADDERS = {
    "else": lambda n: "x = " + "if 1 then skip else " * n + "skip",
    "then": lambda n: "x = " + "if 1 then " * n + "skip" + " else skip" * n,
}


@pytest.mark.parametrize("n", [50, 60, 98])
@pytest.mark.parametrize("branch", sorted(IF_LADDERS))
def test_relaxed_if_ladders_reparse_to_the_same_program(branch, n, tmp_path, capsys):
    from filesafe import parse_program

    source, out_path = tmp_path / "ladder.swf", tmp_path / "relaxed.wf"
    source.write_text(IF_LADDERS[branch](n) + "\n")
    assert main(["relax", str(source), str(out_path)]) == 0
    relaxed = relax_program(parse_program(source.read_text(), Mode.SAFE))
    assert parse_program(out_path.read_text(), Mode.WHILEF).body is relaxed.body
    assert main(["check", str(out_path), "--mode", "whilef"]) in (0, 1, 2)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Usage errors

def test_usage_errors_exit_64(tmp_path, capsys, default_digit_limit):
    bad_prog = tmp_path / "bad.wf"
    bad_prog.write_text("x = ")
    bad_fs = tmp_path / "bad.json"
    bad_fs.write_text("{nope")
    latin1 = tmp_path / "latin1.wf"
    latin1.write_bytes(b"x = \xff;")
    superscript = tmp_path / "superscript.wf"
    superscript.write_text("x = \u00b2;", encoding="utf-8")  # a digit int() rejects
    long_literal = tmp_path / "long.wf"
    long_literal.write_text("x = " + "9" * 5000 + ";")
    long_fs = tmp_path / "long.json"
    long_fs.write_text('{"f": {"contents": [' + "9" * 5000 + "]}}")
    deep_fs = tmp_path / "deep.json"
    deep_fs.write_text("[" * 100_000 + "]" * 100_000)
    deep_prog = tmp_path / "deep.wf"
    deep_prog.write_text("x = " + "(" * 100_000 + "1" + ")" * 100_000)
    wf = corpus_case("seq_read").path
    swf = corpus_case("safe_read").path
    cases = [
        [],  # no subcommand
        ["check"],  # missing program
        ["check", str(wf)],  # missing --mode
        ["check", str(wf), "--mode", "nope"],
        ["check", str(bad_prog), "--mode", "whilef"],  # parse error
        ["check", str(tmp_path / "missing.wf"), "--mode", "whilef"],  # no such file
        ["check", str(wf), "--mode", "whilef", "--fs", str(bad_fs)],
        ["check", str(swf), "--mode", "safe", "--read-mode", "oracle"],
        ["check", str(wf), "--mode", "safe"],  # wrong dialect for the source
        ["check", str(wf), "--mode", "whilef", "--forkfor-max", "-1"],
        ["check", str(latin1), "--mode", "whilef"],  # not UTF-8
        ["run", str(wf), "--mode", "whilef", "--seed", "1", "--first"],
        ["relax", str(wf)],  # whilef source cannot be parsed as safe
    ]
    # Inputs past Python's limits, each reported on one line that names the cause.
    one_line = [
        (["check", str(superscript), "--mode", "whilef"], "unexpected character '²'"),
        (["check", str(long_literal), "--mode", "whilef"], "literal of 5000 digits"),
        (["check", str(wf), "--mode", "whilef", "--fs", str(long_fs)],
         "integer of more than 4300 digits"),
        (["check", str(wf), "--mode", "whilef", "--fs", str(deep_fs)], "nested too deeply"),
        (["check", str(deep_prog), "--mode", "whilef"], "nesting deeper than 100 levels"),
    ]
    for argv in cases:
        assert main(argv) == 64, argv
        capsys.readouterr()  # drop the diagnostics
    for argv, cause in one_line:
        assert main(argv) == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("filesafe: ") and err.count("\n") == 1, argv
        assert cause in err and "not valid JSON" not in err, err


# Programs nesting one form `n` levels deep, with the dialect they are in.
NESTED = {
    "parentheses": (Mode.WHILEF, lambda n: "x = " + "(" * n + "1 / 0" + ")" * n),
    "if": (Mode.WHILEF, lambda n: "if 1 then skip else " * n + "skip"),
    "while": (Mode.WHILEF, lambda n: "while 0 do " * n + "skip"),
    "assignment": (Mode.WHILEF, lambda n: "x = " * n + "1"),
    "read position": (Mode.SAFE, lambda n: "open(f); " + "x = read(f, " * n + "0" + ")" * n),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_ladder_ends_in_a_verdict_or_64(shape, tmp_path, capsys):
    mode, make = NESTED[shape]
    path, report = tmp_path / "nested.prog", tmp_path / "report.json"

    def commands():
        yield ["check", str(path), "--mode", mode.value, "--json", str(report)]
        yield ["run", str(path), "--mode", mode.value]
        if mode is Mode.SAFE:
            yield ["relax", str(path), str(tmp_path / "relaxed.wf")]

    path.write_text(make(98))
    for argv in commands():
        assert main(argv) in (0, 1, 2), argv
        capsys.readouterr()
    reloaded = Report.from_obj(json.loads(report.read_text()))
    if reloaded.witness is not None:
        trace_from_obj(reloaded.witness)
    for n in (100, 300):
        path.write_text(make(n))
        for argv in commands():
            assert main(argv) == 64, (n, argv)
            err = capsys.readouterr().err
            assert err.startswith("filesafe: nesting deeper than 100 levels (line 1, column ")
            assert err.count("\n") == 1, (n, argv)


# Programs whose configurations hold syntax trees 500 to 900 nodes deep,
# which hashing or comparing recursively would overflow the stack on.
LONG = {
    "skips": ("skip;\n" * 500, 1000),
    "sum": ("x = " + " + ".join(["1"] * 900) + "\n", 1800),
}


def run_cli(argv):
    """`python -m filesafe.cli *argv` on this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "filesafe.cli", *argv],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", sorted(LONG))
def test_long_programs_get_their_verdict(name, tmp_path, capsys):
    source, states = LONG[name]
    path, report = tmp_path / "long.wf", tmp_path / "report.json"
    path.write_text(source)
    argv = ["check", str(path), "--mode", "whilef"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"verdict: safe\nstates visited: {states}\n")
    assert main(argv + ["--json", str(report)]) == 0
    assert capsys.readouterr().out == "verdict: safe\n"
    assert json.loads(report.read_text())["states"] == states
    for extra in ([], ["--json", str(report)]):
        result = run_cli(argv + extra)
        assert (result.returncode, result.stderr) == (0, ""), extra
        assert result.stdout.startswith("verdict: safe\n"), extra


@pytest.mark.parametrize("name", sorted(LONG))
def test_long_programs_run_to_the_end(name, tmp_path, capsys):
    # `run` prints every control, so a `;` chain or a long sum is printed
    # once per step.
    source, states = LONG[name]
    path = tmp_path / "long.wf"
    path.write_text(source)
    argv = ["run", str(path), "--mode", "whilef", "--first"]
    last = f"outcome: final after {states - 1} steps\n"
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(last)
    result = run_cli(argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith(last)


def test_a_deep_unsafe_program_gets_its_json_report(tmp_path, capsys):
    # An assignment of an AST 494 nodes deep, then a stuck division.  The
    # printer and the report encoder spend one Python frame per level of
    # it, so both reports are made even from pytest's deeper stack.
    path, report = tmp_path / "deep.wf", tmp_path / "report.json"
    path.write_text("x = " + "1 || 1 && 1 == 1 + 1 * (" * 98 + "1" + ")" * 98 + "; 1 / 0\n")
    assert main(["check", str(path), "--mode", "whilef"]) == 1
    assert capsys.readouterr().out.startswith("verdict: unsafe\n")
    argv = ["check", str(path), "--mode", "whilef", "--json", str(report)]
    assert main(argv) == 1
    assert capsys.readouterr().out == "verdict: unsafe\n"
    witness = trace_from_obj(json.loads(report.read_text())["witness"])
    validate_trace(witness, B)
    result = run_cli(argv)
    assert (result.returncode, result.stdout, result.stderr) == (1, "verdict: unsafe\n", "")


# `;` chains, a fork branch and operator runs of 1,000 items, more than
# Python's default recursion limit, with the commands each is held to: a
# walk that recursed down the chain would exit 70.  Text `check` of the
# unsafe chain is left out: each step's text is cut to 200 characters a
# frame, but formatting still walks the rest of the chain at every step,
# 2 s in all.  The operator ladder nests 494 operator nodes,
# each of which `relax` walks in one Python frame.
LONG_CHAINS = {
    "unsafe chain": (Mode.WHILEF, "skip;\n" * 1000 + "1 / 0\n", 1, [["check", "--json"]]),
    "unsafe sum": (Mode.WHILEF, "x = " + " + ".join(["1"] * 1000) + "; 1 / 0\n", 1,
                   [["check", "--json"]]),
    "fork branch": (Mode.WHILEF, "fork {" + " skip;" * 1000 + " }\n", 0, [["check"], ["run"]]),
    "positioned reads": (Mode.SAFE, "open(f);\n" + "x = read(f, 0);\n" * 1000, 0, [["relax"]]),
    "positioned sum": (Mode.SAFE, "open(f); x = " + " + ".join(["(y = read(f, 0))"] * 1000),
                       0, [["relax"]]),
    "operator ladder": (Mode.SAFE, "x = " + "1 || 1 && 1 == 1 + 1 * (" * 98 + "1" + ")" * 98,
                        0, [["relax"]]),
}


@pytest.mark.parametrize("name", sorted(LONG_CHAINS))
def test_long_chains_end_in_their_exit_code(name, tmp_path, capsys):
    from filesafe import parse_program

    mode, source, code, commands = LONG_CHAINS[name]
    path, out = tmp_path / "long.prog", tmp_path / "out"
    path.write_text(source)
    for command, *extra in commands:
        if command == "relax":
            argv = [command, str(path), str(out)]
        else:
            argv = [command, str(path), "--mode", mode.value, *extra]
            argv += [str(out)] if extra else []
        assert main(argv) == code, argv
        capsys.readouterr()
        result = run_cli(argv)
        assert (result.returncode, result.stderr) == (code, ""), argv
    if code == 1:
        witness = trace_from_obj(json.loads(out.read_text())["witness"])
        validate_trace(witness, B)
        assert not is_final(witness.last)
    if mode is Mode.SAFE:
        relaxed = relax_program(parse_program(source, Mode.SAFE))
        assert parse_program(out.read_text(), Mode.WHILEF).body is relaxed.body
        pointers = re.findall(r"p__(\d+)", out.read_text())  # numbered in program order
        assert pointers == [str(i) for i in range(source.count("read"))]


def test_diagnostics_go_to_stderr(capsys):
    wf = corpus_case("seq_read").path
    assert main(["check", str(wf), "--mode", "safe"]) == 64
    captured = capsys.readouterr()
    assert "filesafe:" in captured.err and captured.out == ""


def test_internal_errors_exit_70_with_one_line(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("filesafe.cli.explore", fail)
    assert main(check_argv("seq_read")) == 70
    captured = capsys.readouterr()
    assert captured.err == "filesafe: internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_internal_value_errors_are_not_bad_input(tmp_path, capsys, default_digit_limit):
    # A valid program whose witness holds a 16,385-digit value, past
    # Python's int-to-str digit limit.  Text output prints such a value
    # by its bit length, and the JSON witness holds no values at all, so
    # both forms get the verdict, and the report replays.
    source = tmp_path / "square.wf"
    source.write_text("x = 10;\n" + "x = x * x;\n" * 14 + "1 / 0\n")
    report = tmp_path / "report.json"
    argv = ["check", str(source), "--mode", "whilef"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "env={x=<int of 54427 bits>}" in out
    assert main(argv + ["--json", str(report)]) == 1
    assert capsys.readouterr().out == "verdict: unsafe\n"
    witness = trace_from_obj(json.loads(report.read_text())["witness"])
    validate_trace(witness, B)
    assert not is_final(witness.last)
    assert main(["run", *argv[1:]]) == 1
    assert capsys.readouterr().out.endswith("outcome: stuck after 114 steps\n")


@pytest.mark.parametrize("command", ["check", "relax"])
def test_an_output_file_in_a_missing_directory_exits_74(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    argv = {
        "check": check_argv("div_zero", "--json", str(out)),
        "relax": ["relax", str(corpus_case("safe_read").path), str(out)],
    }[command]
    assert main(argv) == 74
    captured = capsys.readouterr()
    assert captured.err == f"filesafe: [Errno 2] No such file or directory: '{out}'\n"
    assert captured.out == ""


def test_a_failed_report_write_exits_74(tmp_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    real_open = open

    def fake_open(path, mode="r", **kwargs):
        return Full() if "w" in mode else real_open(path, mode, **kwargs)

    monkeypatch.setattr("filesafe.cli.open", fake_open, raising=False)
    assert main(check_argv("div_zero", "--json", str(tmp_path / "report.json"))) == 74
    captured = capsys.readouterr()
    assert captured.err == f"filesafe: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
    assert captured.out == ""
    # Input files still open, so bad input is still 64.
    assert main(check_argv("div_zero", "--fs", str(tmp_path / "missing.json"))) == 64


# ---------------------------------------------------------------------------
# The embedding pipeline, end to end through files

def test_relax_then_embed_pipeline(tmp_path):
    case = corpus_case("safe_fork")
    relaxed = relax_program(case.program())
    traces = normal_form_traces(case.config(), case.bounds())
    for trace in traces:
        embedded = embed_trace(trace, relaxed)
        obj = trace_to_obj(embedded, B, read_mode=ReadMode.ORACLE, truthy=False)
        restored = trace_from_obj(json.loads(json.dumps(obj)))
        assert restored == embedded
        validate_trace(restored, B, read_mode=ReadMode.ORACLE)
