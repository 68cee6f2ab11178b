"""Report serialization and command line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from filesafe import (
    Bounds,
    ForkCount,
    Interleave,
    Mode,
    OraclePos,
    ReadMode,
    Report,
    RuleInstance,
    SCHEMA,
    SpecError,
    UNIQUE,
    Unsafe,
    embed_trace,
    explore,
    normal_form_traces,
    relax_program,
    run_single,
    validate_trace,
)
from filesafe.cli import main
from filesafe.machine import HoleOpLeft, is_final
from filesafe.report import (
    config_from_obj,
    config_to_obj,
    decode,
    encode,
    format_choice,
    format_frame,
    format_step,
    summarize_control,
    trace_from_obj,
    trace_to_obj,
)

from conftest import CORPUS, corpus_case

B = Bounds(forkfor_max=2)


# ---------------------------------------------------------------------------
# Serialization round trips

def test_every_corpus_body_round_trips():
    for case in CORPUS:
        body = case.program().body
        assert decode("node", encode(body)) == body, case.name


def test_choice_round_trips():
    for choice in (UNIQUE, Interleave(((0, 0), (1, 0))), ForkCount(2), OraclePos(3)):
        assert decode("choice", json.loads(json.dumps(encode(choice)))) == choice


def test_configs_along_traces_round_trip():
    # Mid-trace configurations exercise every frame kind, holes included.
    for name in ("fork_race", "safe_pos_expr", "oracle_predicate"):
        case = corpus_case(name)
        trace = run_single(case.config(), case.bounds(), seed=5, read_mode=case.read_mode)
        for config in (trace.start, *(c for _, c in trace.steps)):
            assert config_from_obj(config_to_obj(config)) == config


def test_traces_round_trip_and_still_validate():
    case = corpus_case("open_twice")
    verdict = explore(case.config(), case.bounds())
    restored = trace_from_obj(trace_to_obj(verdict.witness))
    assert restored == verdict.witness
    validate_trace(restored, case.bounds())


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
               witness=trace_to_obj(verdict.witness), exhausted=None, frontier=None)
    )
    for report in samples:
        obj = report.to_obj()
        assert obj["schema"] == SCHEMA
        assert Report.from_obj(json.loads(json.dumps(obj))) == report


def test_unsupported_schema_is_rejected():
    with pytest.raises(SpecError, match="schema"):
        Report.from_obj({"schema": "filesafe-report/999"})


def _open_twice_config():
    return config_to_obj(corpus_case("open_twice").config())


def _binop(**keys):
    return {"node": "binop", "op": "+", **keys}


def _report(**keys):
    report = Report("safe", states=6, normal_forms=1, witness=None, exhausted=None,
                    frontier=None, bounds={"forkfor_max": 2}, flags={"mode": "whilef"})
    return {**report.to_obj(), **keys}


@pytest.mark.parametrize("load", [
    # A report with every field but the schema missing.
    lambda: Report.from_obj({"schema": SCHEMA}),
    # A binop without its left operand.
    lambda: decode("node", _binop(right={"node": "int", "n": 1})),
    # A list where a frame object belongs.
    lambda: config_from_obj({**_open_twice_config(), "control": [["unit"]]}),
    # An unknown dialect.
    lambda: config_from_obj({**_open_twice_config(), "mode": "nope"}),
    # A node with a key its class does not have.
    lambda: decode("node", {"node": "int", "n": 1, "extra": 0}),
    # An unknown tag, and a string where a node belongs.
    lambda: decode("node", {"node": "goto"}),
    lambda: decode("node", _binop(left="x", right={"node": "int", "n": 1})),
    # A string where an integer belongs.
    lambda: decode("node", {"node": "int", "n": "5"}),
    # Report fields of the wrong JSON type, and a verdict the tool never writes.
    lambda: Report.from_obj(_report(bounds=[])),
    lambda: Report.from_obj(_report(flags=[])),
    lambda: Report.from_obj(_report(wall_time_ms="5")),
    lambda: Report.from_obj(_report(verdict="maybe")),
], ids=[
    "report-keys", "missing-key", "list-node", "mode", "extra-key", "tag",
    "scalar-node", "scalar-type", "bounds-list", "flags-list",
    "wall-time-string", "verdict-unknown",
])
def test_malformed_documents_raise_spec_error(load):
    with pytest.raises(SpecError):
        load()


# ---------------------------------------------------------------------------
# Human-readable formatting

def test_frame_and_choice_formatting():
    assert format_frame(HoleOpLeft(2, "+")) == "2 + _"
    assert format_choice(UNIQUE) == "-"
    assert format_choice(ForkCount(2)) == "k=2"
    assert format_choice(OraclePos(1)) == "n=1"
    assert format_choice(Interleave(((0, 0), (1, 0)))) == "order=(0,0)(1,0)"


def test_control_summaries_elide_long_stacks():
    case = corpus_case("fork_race")
    trace = run_single(case.config(), case.bounds())
    summaries = [summarize_control(c.control) for _, c in trace.steps]
    assert any("…" in s for s in summaries)
    assert all("::" in s for s in summaries if "::" in s)


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


# ---------------------------------------------------------------------------
# Usage errors

def test_usage_errors_exit_64(tmp_path, capsys):
    bad_prog = tmp_path / "bad.wf"
    bad_prog.write_text("x = ")
    bad_fs = tmp_path / "bad.json"
    bad_fs.write_text("{nope")
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
        ["run", str(wf), "--mode", "whilef", "--seed", "1", "--first"],
        ["relax", str(wf)],  # whilef source cannot be parsed as safe
    ]
    for argv in cases:
        assert main(argv) == 64, argv
        capsys.readouterr()  # drop the diagnostics


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


# ---------------------------------------------------------------------------
# The embedding pipeline, end to end through files

def test_relax_then_embed_pipeline(tmp_path):
    case = corpus_case("safe_fork")
    relaxed = relax_program(case.program())
    traces = normal_form_traces(case.config(), case.bounds())
    for trace in traces:
        embedded = embed_trace(trace, relaxed)
        restored = trace_from_obj(json.loads(json.dumps(trace_to_obj(embedded))))
        assert restored == embedded
        validate_trace(restored, B, read_mode=ReadMode.ORACLE)
