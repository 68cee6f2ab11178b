"""Witnesses are written as node tables and read back unchanged.

`trace_to_obj` stores each distinct frame, node and choice once, as a
row whose children are indices of earlier rows, and `check --json`
writes the report as one line, `json.dumps(obj, separators=(",", ":"))`.
"""

import json
import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from filesafe import Mode, ReadMode, initial_config, run_single
from filesafe.cli import main
from filesafe.report import (
    _RENAMED, _TAGS, Report, decode, trace_from_obj, trace_to_obj,
)
from filesafe.semantics import Bounds

from generators import random_program, random_store

B = Bounds(forkfor_max=2)
TAGGED = {cls for classes in _TAGS.values() for cls in classes}


def random_trace(rng: random.Random, read_mode: ReadMode):
    mode = Mode.WHILEF if read_mode is ReadMode.ORACLE else rng.choice(list(Mode))
    program = random_program(rng, mode)
    store = random_store(rng)
    status = {f: rng.choice("oc") for f in store.names()}
    c0 = initial_config(program, store, status)
    return run_single(c0, B, seed=rng.randrange(1 << 30), read_mode=read_mode)


def references(json_value, value):
    """(JSON value, object) for each node, frame or choice a field refers to."""
    if type(value) is tuple:
        for item_json, item in zip(json_value, value):
            yield from references(item_json, item)
    elif type(value) in TAGGED and type(json_value) is not str:  # not a bare-name target
        yield json_value, value


TRACES = st.builds(
    lambda seed, read_mode: random_trace(random.Random(seed), read_mode),
    st.integers(0, 2**32 - 1), st.sampled_from(list(ReadMode)),
)


@settings(max_examples=150, deadline=None)
@given(TRACES)
def test_random_traces_round_trip_through_json(trace):
    assert trace_from_obj(json.loads(json.dumps(trace_to_obj(trace)))) == trace


@settings(max_examples=150, deadline=None)
@given(TRACES)
def test_every_reference_points_to_an_earlier_row(trace):
    obj = trace_to_obj(trace)
    rows = obj["nodes"]
    objects = decode(rows)
    reached = set()
    for i, (row, decoded) in enumerate(zip(rows, objects)):
        for f in fields(decoded):
            json_value = row[_RENAMED.get(f.name, f.name)]
            for ref, value in references(json_value, getattr(decoded, f.name)):
                assert type(ref) is int and 0 <= ref < i
                assert objects[ref] is value
                reached.add(ref)
    configs = [obj["start"], *(step["config"] for step in obj["steps"])]
    for ref in [*(step["choice"] for step in obj["steps"]), *(r for c in configs for r in c["control"])]:
        assert type(ref) is int and 0 <= ref < len(rows)
        reached.add(ref)
    # Every row is some parent row's child, or a step's frame or choice.
    assert reached == set(range(len(rows)))


@settings(max_examples=150, deadline=None)
@given(TRACES)
def test_no_two_rows_are_equal(trace):
    rows = [json.dumps(row, sort_keys=True) for row in trace_to_obj(trace)["nodes"]]
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
    # The loop body is stored once, not once per step.
    assert len(witness["nodes"]) < len(witness["steps"])


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
    assert json.loads(indented)["schema"] == "filesafe-report/2"
    assert indented_report == compact_report
    assert indented_report.render_text() == compact_report.render_text()
    assert compact_report.render_text().startswith("verdict: unsafe\n")
