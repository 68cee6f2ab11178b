"""Hash-consing: each distinct node, frame, rule instance and configuration is one object.

Every class call goes through `syntax._INTERNED`, so building a value
again from equal fields, decoding it from a report, copying or
unpickling it gives back the object already built, and `==` is `is`.
"""

import copy
import dataclasses
import json
import pickle
import random

import pytest

from filesafe import (
    Mode, ReadMode, RuleInstance, initial_config, run_single, step,
)
from filesafe.cli import main
from filesafe.machine import (
    HOLE, Configuration, Ctrl, FileStore, Hole, Unit, Value, make_configuration, plug,
)
from filesafe.report import _TAGS, decode, encode, trace_from_obj, trace_to_obj
from filesafe.semantics import Bounds
from filesafe.syntax import _INTERNED, Assign, BinOp, If, IntLit, Interned, ReadAt, Var

from generators import random_program, random_safe_config, random_store

B = Bounds(forkfor_max=2)
FRAMES = {Ctrl, Hole, Unit, Value}
INTERNED = sorted(
    {*_TAGS, *FRAMES, Configuration, FileStore, RuleInstance},
    key=lambda cls: cls.__name__,
)
# One hole frame of each shape the machine pushes, by the operand it awaits.
HOLE_FRAMES = {
    "HoleAssign": Hole(Assign(Var("x"), HOLE)),
    "HoleIf": Hole(If(HOLE, IntLit(1), IntLit(0))),
    "HoleOpLeft": Hole(BinOp("+", IntLit(2), HOLE)),
    "HoleOpRight": Hole(BinOp("+", HOLE, Var("y"))),
    "HoleRead": Hole(ReadAt("x", "f", HOLE)),
}


def fresh(value):
    """An equal copy of `value` in which every tuple, string and int is a new object."""
    if isinstance(value, Interned):
        return type(value)(*[fresh(getattr(value, name)) for name in value.__match_args__])
    if type(value) is tuple:
        return tuple([fresh(item) for item in value])
    if type(value) is str:
        return "".join(list(value))
    if type(value) is int:
        return int(str(value))
    return value


def random_run(seed: int):
    """A random run and the read mode it ran under."""
    rng = random.Random(seed)
    read_mode = rng.choice(list(ReadMode))
    mode = Mode.WHILEF if read_mode is ReadMode.ORACLE else rng.choice(list(Mode))
    store = random_store(rng)
    status = {f: rng.choice("oc") for f in store.names()}
    c0 = initial_config(random_program(rng, mode), store, status)
    return run_single(c0, B, seed=rng.randrange(1 << 30), read_mode=read_mode), read_mode


def values_of(trace):
    """Every interned value in `trace`: configurations, stores, frames, nodes, rule instances."""
    stack = [trace.start, trace.steps]
    while stack:
        value = stack.pop()
        if isinstance(value, Interned):
            yield value
            stack.extend(getattr(value, name) for name in value.__match_args__)
        elif type(value) is tuple:
            stack.extend(value)


RUNS = [random_run(seed) for seed in range(60)]
TRACES = [trace for trace, _ in RUNS]


@pytest.mark.parametrize("cls, frame", [
    *(pytest.param(cls, None, id=cls.__name__) for cls in INTERNED),
    *(pytest.param(Hole, frame, id=name) for name, frame in HOLE_FRAMES.items()),
])
def test_every_report_class_is_interned_with_identity_equality(cls, frame):
    # A class that missed the intern path, or that gets a generated
    # __eq__/__hash__ back, would silently hash structurally again.
    assert issubclass(cls, Interned)
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__
    if frame is not None:
        # A hole frame is its node with HOLE in one direct field: the
        # node's class is interned too, rebuilding the frame gives the
        # frame, and plugging the hole gives the interned completed node.
        node = frame.node
        assert type(node) in INTERNED
        assert [*vars(node).values()].count(HOLE) == 1
        assert fresh(frame) is frame
        assert [f for f in HOLE_FRAMES.values() if f == frame] == [frame]
        done = plug(frame, IntLit(7))
        assert fresh(done) is done and IntLit(7) in vars(done).values()


def test_a_subclass_is_made_a_frozen_dataclass_with_identity_equality():
    class Pair(Interned):
        first: int
        second: object

    x = ("x",)
    assert dataclasses.is_dataclass(Pair) and Pair.__match_args__ == ("first", "second")
    assert Pair.__eq__ is object.__eq__ and Pair.__hash__ is object.__hash__
    assert Pair(1, x) is Pair(1, x) is Pair(first=1, second=x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Pair(1, x).first = 2


def test_equal_fields_build_the_same_object():
    for trace in TRACES:
        for value in values_of(trace):
            assert fresh(value) is value
            assert dataclasses.replace(value) is value
    for seed in range(200):
        config = random_safe_config(random.Random(seed))
        assert fresh(config) is config
        assert make_configuration(
            config.control, dict(config.env), dict(config.status), config.store, config.mode,
        ) is config


def test_keywords_and_defaults_build_the_same_object():
    assert RuleInstance("seq") is RuleInstance("seq", None)
    assert RuleInstance(rule="fork", choice=((0, 0),)) is RuleInstance("fork", ((0, 0),))


def test_copies_and_unpickled_values_are_the_original():
    for value in values_of(TRACES[1]):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value


def test_decoding_an_encoded_value_gives_the_value():
    # A hole frame's node holds `HOLE`, which no node table row can; the
    # report codec never meets one, since a witness stores no frames.
    for trace in TRACES:
        for value in values_of(trace):
            if type(value) in _TAGS and HOLE not in vars(value).values():
                assert decode(json.loads(json.dumps(encode(value))))[-1] is value


def test_decoded_traces_are_made_of_the_original_objects():
    for trace, read_mode in RUNS:
        obj = trace_to_obj(trace, B, read_mode=read_mode, truthy=False)
        restored = trace_from_obj(json.loads(json.dumps(obj)))
        assert restored.start is trace.start
        assert len(restored.steps) == len(trace.steps)
        for (rule_instance, config), (rule_again, config_again) in zip(
            trace.steps, restored.steps,
        ):
            assert rule_again is rule_instance
            assert config_again is config


def test_stepping_twice_gives_the_same_successor_objects():
    for trace in TRACES:
        for config in (trace.start, *(config for _, config in trace.steps)):
            for (rule_instance, succ), (rule_again, succ_again) in zip(
                step(config, B), step(config, B),
            ):
                assert rule_again is rule_instance and succ_again is succ


@pytest.mark.parametrize("source", [
    "forkfor{ open(f); (x, p) = read(f); close(f) }",
    "x = 0; while x < 30 do x = x + 1; 1 / 0",
])
def test_a_second_check_adds_nothing_to_the_intern_table(source, tmp_path, capsys):
    program, spec = tmp_path / "p.wf", tmp_path / "fs.json"
    program.write_text(source + "\n")
    spec.write_text('{"f": {"contents": [1, 2]}}')
    report = tmp_path / "report.json"
    argv = ["check", str(program), "--mode", "whilef", "--fs", str(spec)]
    sizes = []
    for extra in ([], ["--json", str(report)], [], ["--json", str(report)]):
        main(argv + extra)
        sizes.append(len(_INTERNED))
    capsys.readouterr()
    assert len(set(sizes)) == 1, sizes
