"""Configuration, control normalization, and filesystem spec tests."""

import random

import pytest

from filesafe import (
    CLOSED,
    OPEN,
    Mode,
    MissingFileError,
    SpecError,
    UnknownFileError,
    canonical_key,
    initial_config,
    is_final,
    load_fs_spec,
    make_configuration,
    parse_program,
)
from filesafe.machine import (
    Ctrl,
    FileStore,
    HoleAssign,
    HoleIf,
    HoleOpLeft,
    HoleOpRight,
    HoleRead,
    Unit,
    Value,
    env_bind,
    env_get,
    normalize_control,
    status_of,
)
from filesafe.syntax import Assign, AtomStmt, BinOp, If, IntLit, ReadAt, Skip, Var

from generators import random_safe_config

EMPTY = FileStore.of({})
F_STORE = FileStore.of({"f": (5, 6)})


def config(frames, env=(), status=(), store=EMPTY, mode=Mode.WHILEF):
    return make_configuration(frames, dict(env), dict(status), store, mode)


# ---------------------------------------------------------------------------
# Control normalization

def test_empty_control_normalizes_to_unit():
    assert normalize_control([]) == (Unit(),)


def test_literals_become_values():
    assert normalize_control([Ctrl(IntLit(7))]) == (Value(7),)
    assert normalize_control([Ctrl(AtomStmt(IntLit(7)))]) == (Value(7),)


def test_unconsumed_values_are_dropped():
    frames = [Ctrl(IntLit(1)), Ctrl(Skip())]
    assert normalize_control(frames) == (Ctrl(Skip()),)


def test_values_plug_operator_holes():
    out = normalize_control([Ctrl(IntLit(2)), HoleOpRight("+", Var("y"))])
    assert out == (Ctrl(BinOp("+", IntLit(2), Var("y"))),)
    out = normalize_control([Ctrl(IntLit(3)), HoleOpLeft(2, "+")])
    assert out == (Ctrl(BinOp("+", IntLit(2), IntLit(3))),)


def test_values_plug_assign_if_and_read_holes():
    out = normalize_control([Ctrl(IntLit(5)), HoleAssign("x")])
    assert out == (Ctrl(Assign(Var("x"), IntLit(5))),)
    out = normalize_control([Ctrl(IntLit(1)), HoleIf(Skip(), Skip())])
    assert out == (Ctrl(If(IntLit(1), Skip(), Skip())),)
    out = normalize_control([Ctrl(IntLit(2)), HoleRead("x", "f")])
    assert out == (Ctrl(ReadAt("x", "f", IntLit(2))),)


def test_plugging_stops_at_the_rebuilt_atom():
    # The plugged-in atom still needs an evaluation step, so later holes wait.
    frames = [Ctrl(IntLit(3)), HoleOpLeft(4, "*"), HoleAssign("x")]
    assert normalize_control(frames) == (Ctrl(BinOp("*", IntLit(4), IntLit(3))), HoleAssign("x"))


def test_dropping_cascades_past_several_values():
    frames = [Ctrl(IntLit(1)), Ctrl(IntLit(2)), Ctrl(Skip())]
    assert normalize_control(frames) == (Ctrl(Skip()),)


def test_trailing_lone_value_stays():
    assert normalize_control([Ctrl(IntLit(9))]) == (Value(9),)


# ---------------------------------------------------------------------------
# Finality

def test_unit_and_value_are_final():
    assert is_final(config([]))
    assert is_final(config([Ctrl(IntLit(42))]))


def test_other_controls_are_not_final():
    c = config([Ctrl(Skip())])
    assert not is_final(c)
    assert not is_final(config([Ctrl(IntLit(1)), Ctrl(Skip())]))


# ---------------------------------------------------------------------------
# Environments and statuses

def test_env_bind_keeps_names_sorted():
    env = env_bind((), "z", 1)
    env = env_bind(env, "a", 2)
    env = env_bind(env, "z", 3)
    assert env == (("a", 2), ("z", 3))


def test_env_get_and_status_of():
    c = config([Ctrl(Skip())], env={"x": 4}, status={"f": OPEN}, store=F_STORE)
    assert env_get(c, "x") == 4
    assert env_get(c, "missing") is None
    assert status_of(c, "f") == OPEN
    assert status_of(c, "g") is None


# ---------------------------------------------------------------------------
# File stores

def test_store_lookup_and_cursor():
    assert F_STORE.contents("f") == (5, 6)
    assert F_STORE.cursor("f") == 0
    bumped = F_STORE.with_cursor("f", 2)
    assert bumped.cursor("f") == 2
    assert F_STORE.cursor("f") == 0  # unchanged


def test_store_unknown_file():
    assert not F_STORE.has("g")
    with pytest.raises(UnknownFileError):
        F_STORE.contents("g")


# ---------------------------------------------------------------------------
# Initial configurations

def test_initial_config_of_a_program():
    prog = parse_program("open(f); (x, p) = read(f); close(f)", Mode.WHILEF)
    c0 = initial_config(prog, F_STORE, {"f": CLOSED})
    assert len(c0.control) == 1 and isinstance(c0.control[0], Ctrl)
    assert c0.env == ()
    assert c0.status == (("f", CLOSED),)
    assert c0.store.contents("f") == (5, 6) and c0.store.cursor("f") == 0


def test_initial_config_drops_unrelated_files():
    prog = parse_program("open(f)", Mode.WHILEF)
    store = FileStore.of({"f": (), "g": (1,)})
    c0 = initial_config(prog, store, {"f": CLOSED, "g": OPEN})
    assert not c0.store.has("g")
    assert status_of(c0, "g") is None


def test_initial_config_requires_every_program_file():
    prog = parse_program("open(f); open(g)", Mode.WHILEF)
    with pytest.raises(MissingFileError, match="g"):
        initial_config(prog, F_STORE, {"f": CLOSED})
    with pytest.raises(MissingFileError):
        initial_config(prog, FileStore.of({"f": (), "g": ()}), {"f": CLOSED})


def test_initial_config_rejects_bad_status():
    prog = parse_program("open(f)", Mode.WHILEF)
    with pytest.raises(MissingFileError):
        initial_config(prog, F_STORE, {"f": "open"})


# ---------------------------------------------------------------------------
# Canonical keys

def test_equal_configs_share_a_key():
    a = config([Ctrl(Skip())], env={"x": 1, "y": 2}, status={"f": OPEN}, store=F_STORE)
    b = config([Ctrl(Skip())], env={"y": 2, "x": 1}, status={"f": OPEN}, store=F_STORE)
    assert a == b and canonical_key(a) == canonical_key(b)


def test_key_separates_mode_env_status_store_and_control():
    base = config([Ctrl(Skip())], env={"x": 1}, status={"f": OPEN}, store=F_STORE)
    variants = [
        config([Ctrl(Skip())], env={"x": 2}, status={"f": OPEN}, store=F_STORE),
        config([Ctrl(Skip())], env={"x": 1}, status={"f": CLOSED}, store=F_STORE),
        config([Ctrl(Skip())], env={"x": 1}, status={"f": OPEN}, store=F_STORE.with_cursor("f", 1)),
        config([Ctrl(IntLit(0))], env={"x": 1}, status={"f": OPEN}, store=F_STORE),
        config([Ctrl(Skip())], env={"x": 1}, status={"f": OPEN}, store=F_STORE, mode=Mode.SAFE),
    ]
    keys = {canonical_key(v) for v in variants}
    assert canonical_key(base) not in keys and len(keys) == len(variants)


def test_keys_are_distinct_over_many_random_configs():
    rng = random.Random(424242)
    seen = {}
    for _ in range(10_000):
        c = random_safe_config(rng)
        key = canonical_key(c)
        assert seen.setdefault(key, c) == c, "distinct configs collided"


# ---------------------------------------------------------------------------
# Filesystem specs

def test_fs_spec_happy_path():
    store, status = load_fs_spec('{"f": {"status": "o", "contents": [1, 2]}}', ["f"])
    assert store.contents("f") == (1, 2) and status == {"f": "o"}


def test_fs_spec_defaults_for_unlisted_program_files():
    store, status = load_fs_spec("{}", ["f", "g"])
    assert store.contents("f") == () and store.contents("g") == ()
    assert status == {"f": CLOSED, "g": CLOSED}


def test_fs_spec_partial_entries_get_defaults():
    store, status = load_fs_spec('{"f": {"contents": [3]}}', ["f"])
    assert status["f"] == CLOSED
    store, status = load_fs_spec('{"f": {"status": "o"}}', ["f"])
    assert store.contents("f") == ()


def test_fs_spec_errors_name_the_offender():
    with pytest.raises(SpecError, match="cursor"):
        load_fs_spec('{"f": {"cursor": 3}}')
    with pytest.raises(SpecError, match="status"):
        load_fs_spec('{"f": {"status": "open"}}')
    with pytest.raises(SpecError, match="contents"):
        load_fs_spec('{"f": {"contents": [1, "two"]}}')
    with pytest.raises(SpecError, match="contents"):
        load_fs_spec('{"f": {"contents": [true]}}')
    with pytest.raises(SpecError):
        load_fs_spec('{"f": []}')
    with pytest.raises(SpecError):
        load_fs_spec("[1, 2]")
    with pytest.raises(SpecError, match="JSON"):
        load_fs_spec("{not json")
