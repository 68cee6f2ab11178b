"""Witnesses are written as a program and its choices, and read back unchanged.

`trace_to_obj` stores the program body as a node table, each distinct
node once as a row whose children are indices of earlier rows, then the
program's files and one [rule, choice] pair per step.  `trace_from_obj`
rebuilds every configuration by replaying the steps.  `check --json`
writes the report as one line, `json.dumps(obj, separators=(",", ":"))`.
"""

import json
import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from filesafe import Mode, ReadMode, Unsafe, explore, initial_config, run_single, validate_trace
from filesafe.cli import main
from filesafe.report import (
    _RENAMED, _TAGS, Report, decode, trace_from_obj, trace_to_obj,
)
from filesafe.semantics import Bounds

from conftest import CORPUS
from generators import random_program, random_store

B = Bounds(forkfor_max=2)


def random_trace(rng: random.Random, read_mode: ReadMode, truthy: bool = False):
    mode = Mode.WHILEF if read_mode is ReadMode.ORACLE else rng.choice(list(Mode))
    program = random_program(rng, mode)
    store = random_store(rng)
    status = {f: rng.choice("oc") for f in store.names()}
    c0 = initial_config(program, store, status)
    return run_single(c0, B, seed=rng.randrange(1 << 30), read_mode=read_mode, truthy=truthy)


def references(json_value, value):
    """(JSON value, node) for each node a field refers to."""
    if type(value) is tuple:
        for item_json, item in zip(json_value, value):
            yield from references(item_json, item)
    elif type(value) in _TAGS and type(json_value) is not str:  # not a bare-name target
        yield json_value, value


RUNS = st.builds(
    lambda seed, read_mode: (random_trace(random.Random(seed), read_mode), read_mode),
    st.integers(0, 2**32 - 1), st.sampled_from(list(ReadMode)),
)


def round_trip(trace, read_mode, truthy=False):
    obj = trace_to_obj(trace, B, read_mode=read_mode, truthy=truthy)
    return trace_from_obj(json.loads(json.dumps(obj)))


@settings(max_examples=150, deadline=None)
@given(RUNS)
def test_random_traces_round_trip_through_json(run):
    assert round_trip(*run) == run[0]


def test_2000_random_runs_replay_to_the_same_trace():
    # Both dialects (oracle reads are whilef only), both read modes, and
    # one run in four with truthy guards.
    dialects = set()
    for seed in range(2000):
        rng = random.Random(seed)
        read_mode, truthy = rng.choice(list(ReadMode)), rng.random() < 0.25
        trace = random_trace(rng, read_mode, truthy)
        restored = round_trip(trace, read_mode, truthy)
        assert restored.start is trace.start, seed
        assert restored == trace, seed
        dialects.add((trace.start.mode, read_mode, truthy))
    assert len(dialects) == 6


def test_unsafe_corpus_witnesses_replay_in_both_read_modes():
    replayed = 0
    for case in CORPUS:
        for read_mode in ReadMode:
            verdict = explore(case.config(), case.bounds(), read_mode=read_mode)
            if isinstance(verdict, Unsafe):
                restored = round_trip(verdict.witness, read_mode)
                assert restored.start is verdict.witness.start, case.name
                assert restored == verdict.witness, case.name
                replayed += 1
    assert replayed == 17


@settings(max_examples=150, deadline=None)
@given(RUNS)
def test_every_reference_points_to_an_earlier_row(run):
    rows = trace_to_obj(run[0], B, read_mode=run[1], truthy=False)["nodes"]
    objects = decode(rows)
    assert objects[-1] is run[0].start.control[0].item
    reached = {len(rows) - 1}  # the body
    for i, (row, decoded) in enumerate(zip(rows, objects)):
        for f in fields(decoded):
            json_value = row[_RENAMED.get(f.name, f.name)]
            for ref, value in references(json_value, getattr(decoded, f.name)):
                assert type(ref) is int and 0 <= ref < i
                assert objects[ref] is value
                reached.add(ref)
    # Every row is some parent row's child, or the body.
    assert reached == set(range(len(rows)))


@settings(max_examples=150, deadline=None)
@given(RUNS)
def test_no_two_rows_are_equal(run):
    obj = trace_to_obj(run[0], B, read_mode=run[1], truthy=False)
    rows = [json.dumps(row, sort_keys=True) for row in obj["nodes"]]
    assert len(set(rows)) == len(rows)


def test_long_witness_report_is_json_dumps_of_itself(tmp_path, capsys):
    # 60 unrolled iterations share their loop body across hundreds of steps.
    source = tmp_path / "loop.wf"
    source.write_text("x = 0; while x < 60 do x = x + 1; 1 / 0\n")
    path = tmp_path / "report.json"
    assert main(["check", str(source), "--mode", "whilef", "--json", str(path)]) == 1
    assert capsys.readouterr().out == "verdict: unsafe\n"
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    witness = json.loads(text)["witness"]
    assert len(witness["steps"]) > 600
    # The program is stored once, not once per step.
    assert len(witness["nodes"]) < 20


def test_a_long_witness_is_linear_in_its_length(tmp_path, capsys):
    # Each of the witness's 4,000 steps holds the rest of a 2,000-term
    # sum.  Writing every configuration took 20.8 MB; the program and a
    # [rule, choice] pair per step take 179 KB.
    source = tmp_path / "sum.wf"
    source.write_text("x = " + " + ".join(["1"] * 2000) + "; 1 / 0\n")
    path = tmp_path / "report.json"
    assert main(["check", str(source), "--mode", "whilef", "--json", str(path)]) == 1
    assert capsys.readouterr().out == "verdict: unsafe\n"
    assert path.stat().st_size < 250_000
    witness = trace_from_obj(json.loads(path.read_text(encoding="utf-8"))["witness"])
    assert len(witness.steps) == 4000
    validate_trace(witness, B)


def test_an_indented_report_reads_as_the_compact_one(tmp_path, capsys):
    # Earlier versions wrote the same document with indent=2.
    source = tmp_path / "loop.wf"
    source.write_text("x = 0; while x < 3 do x = x + 1; 1 / 0\n")
    path = tmp_path / "report.json"
    assert main(["check", str(source), "--mode", "whilef", "--json", str(path)]) == 1
    capsys.readouterr()
    compact = path.read_text(encoding="utf-8")
    indented = json.dumps(json.loads(compact), indent=2) + "\n"
    compact_report, indented_report = (
        Report.from_obj(json.loads(text)) for text in (compact, indented)
    )
    assert json.loads(indented)["schema"] == "filesafe-report/3"
    assert indented_report == compact_report
    assert indented_report.render_text() == compact_report.render_text()
    assert compact_report.render_text().startswith("verdict: unsafe\n")
