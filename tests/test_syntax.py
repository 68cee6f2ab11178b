"""Parser, pretty printer, and AST helper tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filesafe import Mode, ModeError, NestedForkError, ParseError, atoms_of, parse_program, pretty_print
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
    files_of,
    rebuild,
    tokenize,
    walk,
)

from conftest import CORPUS
from generators import random_program

WF = Mode.WHILEF
SAFE = Mode.SAFE


def body(text, mode=WF):
    return parse_program(text, mode).body


def atom(text, mode=WF):
    stmt = body(text, mode)
    assert isinstance(stmt, AtomStmt)
    return stmt.atom


# ---------------------------------------------------------------------------
# Tokenizer

def test_tokenize_tracks_positions():
    toks = tokenize("x = 1;\n  y = 2")
    assert [(t.kind, t.text) for t in toks[:3]] == [("ident", "x"), ("sym", "="), ("int", "1")]
    y = next(t for t in toks if t.text == "y")
    assert (y.line, y.col) == (2, 3)
    assert toks[-1].kind == "eof"


def test_tokenize_skips_comments():
    toks = tokenize("x # the rest of this line vanishes\n= 1")
    assert [t.text for t in toks[:-1]] == ["x", "=", "1"]


def test_tokenize_two_char_symbols():
    toks = tokenize("<= >= == != && || < >")
    assert [t.text for t in toks[:-1]] == ["<=", ">=", "==", "!=", "&&", "||", "<", ">"]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError, match="line 1"):
        tokenize("x = $")


# Pieces that scan without error; `#` comments may hold any other character.
_PIECES = st.sampled_from([
    "x", "y_1", "x²", "٣", "42", "if", "then", "forkif", "read",
    "<=", "<", "==", "=", "&&", "||", ";", ",", "(", ")", "{", "}", "-",
    " ", "\t", "\r", "\n",
])
_COMMENTS = st.text(st.characters(blacklist_characters="\n"), max_size=8).map(lambda c: "#" + c)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_PIECES, _COMMENTS), max_size=30))
def test_token_positions_locate_their_text(pieces):
    text = "".join(pieces)
    lines = text.split("\n")
    toks = tokenize(text)
    for tok in toks[:-1]:
        line = lines[tok.line - 1]
        assert line[tok.col - 1:tok.col - 1 + len(tok.text)] == tok.text, tok
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("eof", len(lines), len(lines[-1]) + 1)


# ---------------------------------------------------------------------------
# Statements and sequencing

def test_seq_nests_to_the_right():
    stmt = body("a = 1; b = 2; c = 3")
    assert isinstance(stmt, Seq) and isinstance(stmt.second, Seq)
    assert stmt.first == AtomStmt(Assign(Var("a"), IntLit(1)))
    assert stmt.second.second == AtomStmt(Assign(Var("c"), IntLit(3)))


def test_trailing_semicolon_is_tolerated():
    assert body("skip;") == AtomStmt(Skip())


def test_read_program_shape():
    expected = Seq(
        AtomStmt(Open("f")),
        Seq(AtomStmt(ReadND("x", "p", "f")), AtomStmt(Close("f"))),
    )
    assert body("open(f); (x, p) = read(f); close(f)") == expected


def test_semicolon_binds_looser_than_if():
    stmt = body("if 1 then a = 1 else a = 2; b = 3")
    assert isinstance(stmt, Seq)
    assert isinstance(stmt.first.atom, If)
    assert stmt.second == AtomStmt(Assign(Var("b"), IntLit(3)))


def test_fork_branches():
    stmt = body("fork { x = 1, y = 2; z = 3 }")
    assert isinstance(stmt, Fork) and len(stmt.branches) == 2
    assert isinstance(stmt.branches[1], Seq)


def test_forkfor_and_forkif():
    assert isinstance(body("forkfor { skip }"), ForkFor)
    stmt = body("forkif { (1, x = 1), (y, skip) }")
    assert isinstance(stmt, ForkIf)
    assert stmt.arms[1][0] == Var("y")


def test_nested_forks_are_rejected():
    for text in (
        "fork { fork { skip, skip }, skip }",
        "forkfor { forkif { (1, skip) } }",
        "forkif { (1, fork { skip, skip }) }",
    ):
        with pytest.raises(NestedForkError):
            parse_program(text, WF)


# ---------------------------------------------------------------------------
# Expressions

def test_operator_precedence():
    assert atom("x = 1 + 2 * 3").value == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))
    assert atom("x = (1 + 2) * 3").value == BinOp("*", BinOp("+", IntLit(1), IntLit(2)), IntLit(3))
    assert atom("x = 1 + 2 <= 3").value == BinOp("<=", BinOp("+", IntLit(1), IntLit(2)), IntLit(3))


def test_bool_operators_bind_loosest():
    v = atom("x = a == 1 && b || c").value
    assert isinstance(v, Or) and isinstance(v.left, And)


def test_left_associativity():
    assert atom("x = 10 - 3 - 2").value == BinOp("-", BinOp("-", IntLit(10), IntLit(3)), IntLit(2))


def test_negative_literals():
    assert atom("x = -3").value == IntLit(-3)
    assert atom("x = 0 - 1").value == BinOp("-", IntLit(0), IntLit(1))


def test_assignment_in_expression_position():
    v = atom("y = (x = 5) + 1").value
    assert v == BinOp("+", Assign(Var("x"), IntLit(5)), IntLit(1))


def test_while_takes_one_statement_body():
    w = atom("while x <= 2 do x = x + 1")
    assert isinstance(w, While) and isinstance(w.body, Assign)


# ---------------------------------------------------------------------------
# Dialects

def test_positioned_read_parses_in_safe_mode():
    r = atom("x = read(f, i + 1)", SAFE)
    assert r == ReadAt("x", "f", BinOp("+", Var("i"), IntLit(1)))


def test_read_forms_are_mode_exclusive():
    with pytest.raises(ModeError, match="line 1"):
        parse_program("x = read(f, 0)", WF)
    with pytest.raises(ModeError, match="line 1"):
        parse_program("(x, p) = read(f)", SAFE)


def test_parse_errors_carry_positions(default_digit_limit):
    with pytest.raises(ParseError, match=r"line 2"):
        parse_program("x = 1;\ny = ", WF)
    with pytest.raises(ParseError):
        parse_program("x = (1 + 2", WF)
    with pytest.raises(ParseError):
        parse_program("x = 1 y = 2", WF)
    with pytest.raises(ParseError):
        parse_program("skip = 3", WF)
    with pytest.raises(ParseError, match="only on the right"):
        parse_program("x = 1 + read(f)", WF)
    with pytest.raises(ParseError, match="5000 digits .*line 1, column 6"):
        parse_program("x = -" + "9" * 5000, WF)


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_program("fork = 1", WF)


# ---------------------------------------------------------------------------
# Helpers over ASTs

def test_atoms_of_flattens_sequences():
    stmt = body("open(f); (x, p) = read(f); y = p")
    assert atoms_of(stmt) == [Open("f"), ReadND("x", "p", "f"), Assign(Var("y"), Var("p"))]


def test_atoms_of_refuses_forks():
    with pytest.raises(NestedForkError):
        atoms_of(body("fork { skip, skip }"))


def test_files_of_collects_every_file():
    prog = parse_program("open(f); (x, p) = read(g); close(h)", WF)
    assert prog.files == frozenset({"f", "g", "h"})
    assert files_of(body("x = 1")) == set()


def test_walk_is_preorder_and_flattens_tuple_fields():
    stmt = body("forkif { (x, skip), (1, open(f); y = 2) }")
    assert [type(n) for n in walk(stmt)] == [
        ForkIf, Var, AtomStmt, Skip, IntLit, Seq, AtomStmt, Open, AtomStmt, Assign, Var, IntLit,
    ]


def test_rebuild_visits_children_in_order():
    seen = []
    stmt = body("fork { x = 1, y = 2 }")
    assert rebuild(stmt, lambda child: seen.append(child) or child) == stmt
    assert seen == list(stmt.branches)


# ---------------------------------------------------------------------------
# Corpus and round trips

def test_corpus_parses_and_covers_the_grammar():
    node_types = {type(node) for case in CORPUS for node in walk(case.program().body)}
    expected = {
        IntLit, Var, BinOp, And, Or, Assign, If, While, Open, Close,
        ReadND, ReadAt, Skip, AtomStmt, Seq, Fork, ForkFor, ForkIf,
    }
    assert expected <= node_types


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([WF, SAFE]))
def test_pretty_then_parse_is_identity(seed, mode):
    prog = random_program(random.Random(seed), mode)
    assert parse_program(pretty_print(prog), mode).body == prog.body


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([WF, SAFE]))
def test_pretty_printing_is_idempotent(seed, mode):
    prog = random_program(random.Random(seed), mode)
    text = pretty_print(prog)
    assert pretty_print(parse_program(text, mode)) == text


def test_corpus_round_trips():
    for case in CORPUS:
        prog = case.program()
        assert parse_program(pretty_print(prog), case.mode).body == prog.body
