"""The report writer prints what `json.dumps(obj, indent=2)` prints.

`trace_to_obj` shares one JSON object among the repeats of a frame, node
or choice, and `write_json` prints each shared subtree once.  These tests
hold both to the plain encoders they replace.
"""

import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filesafe import Mode, ReadMode, Unsafe, explore, initial_config, run_single
from filesafe.cli import main
from filesafe.report import (
    Report, config_to_obj, encode, summarize_control, trace_to_obj, write_json,
)
from filesafe.semantics import Bounds

from conftest import CORPUS
from generators import random_program, random_store

B = Bounds(forkfor_max=2)


def written(obj) -> str:
    handle = io.StringIO()
    write_json(obj, handle)
    return handle.getvalue()


def dumped(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def random_trace(rng: random.Random, read_mode: ReadMode):
    mode = Mode.WHILEF if read_mode is ReadMode.ORACLE else rng.choice(list(Mode))
    program = random_program(rng, mode)
    store = random_store(rng)
    status = {f: rng.choice("oc") for f in store.names()}
    c0 = initial_config(program, store, status)
    return run_single(c0, B, seed=rng.randrange(1 << 30), read_mode=read_mode)


def report_of(trace) -> dict:
    return Report(
        "unsafe", states=None, normal_forms=None, witness=trace_to_obj(trace),
        exhausted=None, frontier=None, bounds={"forkfor_max": 2},
        flags={"mode": "whilef", "truthy": False}, wall_time_ms=12.5,
    ).to_obj()


# ---------------------------------------------------------------------------
# write_json against json.dumps

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(ReadMode)))
def test_reports_of_random_traces_print_as_json_dumps(seed, read_mode):
    obj = report_of(random_trace(random.Random(seed), read_mode))
    assert written(obj) == dumped(obj)


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(codec="utf-8"))
    | st.sampled_from(["é", " ", "\x00", '"', "\\", "", -1, 0.0, 1e-07, 1e16, 123.456])
)
TAGGED = st.recursive(
    st.fixed_dictionaries({"node": st.just("int"), "n": st.integers()}),
    lambda children: st.fixed_dictionaries(
        {"frame": st.just("ctrl"), "item": children, "rest": st.lists(children, max_size=2)},
    ),
    max_leaves=4,
)


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=25,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_json_values_with_shared_tagged_objects_print_as_json_dumps(data):
    # Leaves may be the same tagged dict, so it recurs at several depths,
    # inside lists and dicts, as the repeats in a witness do.
    shared = data.draw(st.lists(TAGGED, min_size=1, max_size=3))
    obj = data.draw(json_values(SCALARS | st.sampled_from(shared)))
    assert written(obj) == dumped(obj)


def test_a_dict_shared_at_two_depths_and_inside_a_list():
    node = {"node": "binop", "op": "+", "left": {"node": "var", "name": "x"},
            "right": {"node": "int", "n": -1}}
    frame = {"frame": "ctrl", "item": node}
    obj = {"a": node, "b": {"c": [node, frame, node]}, "d": [[frame, node], frame], "e": node}
    assert written(obj) == dumped(obj)


@pytest.mark.parametrize("value", [
    {"env": {}, "status": {}, "files": {}, "control": []},
    {"files": {"é \x00\"\\": {"contents": [-3, 0, 7], "cursor": 0}}},
    ["é", " ", "\x00", '"', "\\", "naïve ☃ \U0001f600", "\t\n\r\x1f"],
    [0.0, -0.0, 1e-07, 1e16, 123.456, float("inf"), float("-inf"), float("nan")],
    [True, False, None, -1, -(10**30), 10**4299],
    [], {}, [[]], [{}], "", 0, None, True, 1.5,
])
def test_edge_values_print_as_json_dumps(value, default_digit_limit):
    assert written(value) == dumped(value)


def test_an_int_past_the_digit_limit_raises_as_in_json(default_digit_limit):
    value = {"env": {"x": 10**4300}}  # 4,301 digits
    with pytest.raises(ValueError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(ValueError) as got:
        written(value)
    assert str(got.value) == str(expected.value)


def test_the_writer_nests_as_deep_as_json():
    # One call per nesting level, as in json's own encoder, so that a
    # deep report json.dump could write does not fail here.
    depth = sys.getrecursionlimit()
    while True:
        value = None
        for i in range(depth):
            value = {"node": "seq", "first": value} if i % 2 else [value]
        try:
            expected = dumped(value)
            break
        except RecursionError:
            depth -= 10
    assert depth > 500
    assert written(value) == expected


def test_the_writer_streams_in_chunks():
    writes = []

    class Handle:
        def write(self, text):
            writes.append(text)

    obj = {"contents": list(range(20_000)), "steps": [{"n": i} for i in range(2_000)]}
    write_json(obj, Handle())
    assert "".join(writes) == dumped(obj)
    assert len(writes) > 20
    assert max(map(len, writes)) < len(dumped(obj)) // 10


# ---------------------------------------------------------------------------
# trace_to_obj against plain encoding

def plain_trace_obj(trace) -> dict:
    return {
        "start": config_to_obj(trace.start),
        "steps": [
            {
                "rule": rule_instance.rule,
                "choice": encode(rule_instance.choice),
                "control_summary": summarize_control(config.control),
                "config": config_to_obj(config),
            }
            for rule_instance, config in trace.steps
        ],
        "outcome": trace.outcome,
    }


def test_memoized_encoding_equals_plain_encoding_on_random_traces():
    rng = random.Random(20121206)
    for i in range(400):
        trace = random_trace(rng, ReadMode.ORACLE if i % 2 else ReadMode.CURSOR)
        assert trace_to_obj(trace) == plain_trace_obj(trace)


def test_memoized_encoding_equals_plain_encoding_on_corpus_witnesses():
    witnesses = 0
    for case in CORPUS:
        verdict = explore(case.config(), case.bounds(), read_mode=case.read_mode)
        if isinstance(verdict, Unsafe):
            witnesses += 1
            assert trace_to_obj(verdict.witness) == plain_trace_obj(verdict.witness), case.name
    assert witnesses > 0


def test_long_witness_report_is_json_dumps_of_itself(tmp_path, capsys):
    # 60 unrolled iterations share their loop body across hundreds of steps.
    source = tmp_path / "loop.wf"
    source.write_text("x = 0; while x < 60 do x = x + 1; 1 / 0\n")
    path = tmp_path / "report.json"
    assert main(["check", str(source), "--mode", "whilef", "--json", str(path)]) == 1
    assert capsys.readouterr().out == "verdict: unsafe\n"
    text = path.read_text(encoding="utf-8")
    assert text == dumped(json.loads(text))
    assert len(json.loads(text)["witness"]["steps"]) > 600

