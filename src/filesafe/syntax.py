"""Concrete syntax, abstract syntax and statement atomization.

The language is two-level.  Expression-level atoms cover integers,
variables, binary operators, short-circuit connectives, assignment,
if/while, the file commands and skip.  Statement-level forms add `;`
sequencing and the fork family (fork, forkfor, forkif).  The concrete
syntax is C-flavoured: braces delimit fork bodies, `,` separates fork
branches, `#` starts a line comment.  The full EBNF lives in the README.

Two dialects share the grammar and differ only in the read form:

  whilef   (x, p) = read(f)     read the next value, its position lands in p
  safe     x = read(f, pos)     read the value at an explicit position

A program may use the read form of its own dialect only; the other form
is rejected at parse time with ModeError.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple, get_args

from .errors import ModeError, NestedForkError, ParseError


class Mode(enum.Enum):
    """Which read form a program uses."""

    WHILEF = "whilef"
    SAFE = "safe"

    @classmethod
    def from_flag(cls, text: str) -> "Mode":
        return cls(text)


# ---------------------------------------------------------------------------
# Hash-consing
#
# Syntax nodes, and the control frames, file stores, configurations and
# rule choices built from them, are hash-consed (Filliâtre & Conchon,
# "Type-safe modular hash-consing", ML 2006): a class call looks its class
# and field values up in `_INTERNED` and returns the object already built
# for them, so equal values are one object.  `Interned` makes each
# subclass a frozen dataclass with `eq=False`, so no subclass states the
# rule itself: `==` is identity, and the hash is `object.__hash__`, by
# address, which is never recomputed and never recurses.  A key holds the
# node's children, which hash and compare the same way, so looking a node
# up costs the same whatever its depth.  `__match_args__`, which the
# dataclass sets, is every walker's list of a class's fields.
#
# The table holds its nodes for the life of the process, so a search
# that meets a value again, in the same check or a later one, finds it
# built.  It must never be cleared: a node built after that would be
# equal to, but not the same object as, a node still in use.

_INTERNED: dict = {}


class _Interning(type):
    """The metaclass of `Interned`: a class call returns the one object of its fields."""

    def __call__(cls, *args, **kwargs):
        key = (cls, *args)
        node = None if kwargs else _INTERNED.get(key)
        if node is None:
            node = super().__call__(*args, **kwargs)
            if kwargs or len(args) != len(cls.__match_args__):
                # Keywords or defaults: key the node by the fields __init__ bound.
                key = (cls, *[getattr(node, name) for name in cls.__match_args__])
            node = _INTERNED.setdefault(key, node)
        return node


class Interned(metaclass=_Interning):
    """The base of the hash-consed classes, each a frozen dataclass with identity equality."""

    def __init_subclass__(cls):
        dataclass(frozen=True, eq=False)(cls)

    def __reduce__(self):
        # Copies and unpickled objects are rebuilt by a class call, so they intern too.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# ---------------------------------------------------------------------------
# Abstract syntax

class IntLit(Interned):
    n: int


class Var(Interned):
    name: str


class BinOp(Interned):
    op: str
    left: "Atom"
    right: "Atom"


class And(Interned):
    left: "Atom"
    right: "Atom"


class Or(Interned):
    left: "Atom"
    right: "Atom"


class Assign(Interned):
    target: Var
    value: "Atom"


class If(Interned):
    # Parsed programs carry atoms in both branches.  The machine widens
    # the then-branch to a statement when it unrolls a while loop.
    cond: "Atom"
    then_body: "Atom | Stmt"
    else_body: "Atom | Stmt"


class While(Interned):
    cond: "Atom"
    body: "Atom"


class Open(Interned):
    file: str


class Close(Interned):
    file: str


class ReadND(Interned):
    """(target, pointer) = read(file) -- whilef dialect."""

    target: str
    pointer: str
    file: str


class ReadAt(Interned):
    """target = read(file, pos) -- safe dialect."""

    target: str
    file: str
    pos: "Atom"


class Skip(Interned):
    pass


Atom = (
    IntLit | Var | BinOp | And | Or | Assign | If | While
    | Open | Close | ReadND | ReadAt | Skip
)


class AtomStmt(Interned):
    atom: Atom


class Seq(Interned):
    first: "Stmt"
    second: "Stmt"


class Fork(Interned):
    branches: tuple["Stmt", ...]


class ForkFor(Interned):
    body: "Stmt"


class ForkIf(Interned):
    arms: tuple[tuple[Atom, "Stmt"], ...]


Stmt = AtomStmt | Seq | Fork | ForkFor | ForkIf


@dataclass(frozen=True)
class Program:
    mode: Mode
    body: Stmt
    files: frozenset[str] = field(default_factory=frozenset)


def make_program(mode: Mode, body: Stmt) -> Program:
    """Build a Program, computing its file set from the body."""
    return Program(mode, body, frozenset(files_of(body)))


def files_of(node) -> set[str]:
    """File names appearing in open/close/read nodes under `node`."""
    return {n.file for n in walk(node) if type(n) in (Open, Close, ReadND, ReadAt)}


# ---------------------------------------------------------------------------
# Generic traversal
#
# A node's children are the syntax nodes among its fields, in
# declaration order; a tuple field (fork branches, forkif arms) gives its
# nodes in order, flattened.  Every other field value is a leaf.

_NODE_CLASSES = frozenset(get_args(Atom) + get_args(Stmt))


def walk(node):
    """Every syntax node under `node`, `node` first, in preorder."""
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(reversed(item))
        elif type(item) in _NODE_CLASSES:
            yield item
            stack.extend(getattr(item, name) for name in reversed(item.__match_args__))


def rebuild(node, f):
    """`node` rebuilt with `f(child)` in place of each child, called in field order."""
    def child(value):
        if type(value) is tuple:
            return tuple(map(child, value))
        return f(value) if type(value) in _NODE_CLASSES else value

    return type(node)(*(child(getattr(node, name)) for name in node.__match_args__))


# ---------------------------------------------------------------------------
# Operator precedence, loosest first, shared by the parser and the printer.
# Every binary operator is left-associative.

_PREC_LOOSE, _PREC_OR, _PREC_AND, _PREC_CMP, _PREC_ADD, _PREC_MUL, _PREC_TIGHT = range(7)

_BINOP_PREC = {
    "||": _PREC_OR, "&&": _PREC_AND,
    "==": _PREC_CMP, "!=": _PREC_CMP, "<=": _PREC_CMP,
    ">=": _PREC_CMP, "<": _PREC_CMP, ">": _PREC_CMP,
    "+": _PREC_ADD, "-": _PREC_ADD,
    "*": _PREC_MUL, "/": _PREC_MUL,
}

_LOGICAL = {"&&": And, "||": Or}
_LOGICAL_OP = {cls: op for op, cls in _LOGICAL.items()}


# ---------------------------------------------------------------------------
# Scanner

KEYWORDS = {
    "if", "then", "else", "while", "do",
    "open", "close", "read", "skip",
    "fork", "forkfor", "forkif",
}

# Longest first, so that `<=` is never read as `<` then `=`.
_SYMBOLS = sorted([*_BINOP_PREC, *";,(){}="], key=len, reverse=True)


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


# `\d` is `str.isdecimal` (the digits int() accepts, so not `²`) and `\w`
# is `str.isalnum` or `_`.  tokenize rejects a word (keyword or identifier)
# that does not start with a letter or `_`, such as `²`.
_TOKEN = re.compile("|".join([
    r"(?P<blank>[ \t\r]+|#[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<int>\d+)",
    r"(?P<ident>\w+)",
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
]))


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind, col = match and match.lastgroup, pos - line_start + 1
        if kind is None or kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        pos = match.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "blank":
            word = match.group()
            kind = "kw" if kind == "ident" and word in KEYWORDS else kind
            toks.append(Token(kind, word, line, col))
    toks.append(Token("eof", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser
#
# stmt    := item (';' item)* [';']
# item    := 'fork' '{' stmt (',' stmt)* '}'
#          | 'forkfor' '{' stmt '}'
#          | 'forkif' '{' arm (',' arm)* '}'      arm := '(' atom ',' stmt ')'
#          | atom
# atom    := '(' IDENT ',' IDENT ')' '=' 'read' '(' IDENT ')'
#          | IDENT '=' 'read' '(' IDENT ',' atom ')'
#          | IDENT '=' atom
#          | binary
# binary  := unary (OP unary)*    OP from _BINOP_PREC, by its precedence
# unary   := '-' INT | primary
# primary := INT | IDENT | '(' atom ')' | 'skip'
#          | 'if' atom 'then' atom 'else' atom
#          | 'while' atom 'do' atom
#          | 'open' '(' IDENT ')' | 'close' '(' IDENT ')'
#
# A token test names a "want": a kind ("ident", "int", "eof") or the text
# of a symbol or keyword.  No kind is spelled like a symbol or keyword.

_READ_FORMS = {Mode.WHILEF: "(x, p) = read(f)", Mode.SAFE: "x = read(f, pos)"}
_READ_ND_HEAD = ("(", "ident", ",", "ident", ")", "=")

# Every nested form re-enters parse_atom, so bounding its depth bounds
# the parser's recursion.  The README documents the limit.
_MAX_NESTING = 100


class _Parser:
    """Single-use: an exception abandons it."""

    def __init__(self, toks: list[Token], mode: Mode):
        self.toks = toks
        self.mode = mode
        self.pos = 0
        self.depth = 0
        self.in_fork = False

    # Token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, *wants: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return (tok.text if tok.kind in ("kw", "sym") else tok.kind) in wants

    def accept(self, want: str) -> Token | None:
        return self.advance() if self.at(want) else None

    def expect(self, want: str) -> Token:
        if not self.at(want):
            tok = self.peek()
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col,
            )
        return self.advance()

    def file_arg(self, then: str) -> str:
        """The file named by `( IDENT`, which `then` must follow."""
        self.expect("(")
        file = self.expect("ident").text
        self.expect(then)
        return file

    # Statements

    def parse_stmt(self) -> Stmt:
        items = [self.parse_item()]
        while self.accept(";") and not self.at("eof", "}", ")", ","):  # trailing `;`
            items.append(self.parse_item())
        stmt = items[-1]
        for s in reversed(items[:-1]):
            stmt = Seq(s, stmt)
        return stmt

    def parse_item(self) -> Stmt:
        if self.at("fork", "forkfor", "forkif"):
            return self.parse_fork()
        return AtomStmt(self.parse_atom())

    def parse_fork(self) -> Stmt:
        tok = self.advance()
        if self.in_fork:
            raise NestedForkError(
                f"{tok.text} may not appear inside a fork branch", tok.line, tok.col,
            )
        self.in_fork = True
        self.expect("{")
        if tok.text == "forkfor":
            node = ForkFor(self.parse_stmt())
        else:
            forkif = tok.text == "forkif"
            parse_one = self.parse_arm if forkif else self.parse_stmt
            items = [parse_one()]
            while self.accept(","):
                items.append(parse_one())
            node = ForkIf(tuple(items)) if forkif else Fork(tuple(items))
        self.expect("}")
        self.in_fork = False
        return node

    def parse_arm(self) -> tuple[Atom, Stmt]:
        self.expect("(")
        guard = self.parse_atom()
        self.expect(",")
        stmt = self.parse_stmt()
        self.expect(")")
        return guard, stmt

    def require_mode(self, mode: Mode, tok: Token) -> None:
        """Raise ModeError at the read form starting at `tok` unless this is a `mode` program."""
        if self.mode is not mode:
            raise ModeError(
                f"{_READ_FORMS[mode]} is the {mode.value} read form; "
                f"{self.mode.value} programs read with {_READ_FORMS[self.mode]}",
                tok.line, tok.col,
            )

    # Atoms

    def parse_atom(self) -> Atom:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", tok.line, tok.col)
        if all(self.at(want, ahead=i) for i, want in enumerate(_READ_ND_HEAD)):
            atom = self.parse_read_nd()
        elif self.at("ident") and self.at("=", ahead=1):
            atom = self.parse_assign()
        else:
            atom = self.parse_binary(_PREC_OR)
        self.depth -= 1
        return atom

    def parse_read_nd(self) -> Atom:
        start, target, _, pointer, _, _ = [self.advance() for _ in _READ_ND_HEAD]
        self.expect("read")
        file = self.file_arg(")")
        self.require_mode(Mode.WHILEF, start)
        return ReadND(target.text, pointer.text, file)

    def parse_assign(self) -> Atom:
        target, _ = self.advance(), self.advance()  # IDENT '='
        read_tok = self.accept("read")
        if not read_tok:
            return Assign(Var(target.text), self.parse_atom())
        file = self.file_arg(",")
        pos = self.parse_atom()
        self.expect(")")
        self.require_mode(Mode.SAFE, read_tok)
        return ReadAt(target.text, file, pos)

    def parse_binary(self, min_prec: int) -> Atom:
        """Operators binding at least as tightly as `min_prec`, left-associative."""
        left = self.parse_unary()
        while True:
            op = self.peek().text  # no other token's text is an operator
            prec = _BINOP_PREC.get(op)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = _LOGICAL[op](left, right) if op in _LOGICAL else BinOp(op, left, right)

    def parse_unary(self) -> Atom:
        if self.at("-") and self.at("int", ahead=1):
            self.advance()
            return self.parse_int(-1)
        return self.parse_primary()

    def parse_int(self, sign: int = 1) -> IntLit:
        tok = self.advance()
        try:
            return IntLit(sign * int(tok.text))
        except ValueError:  # past Python's int-from-string digit limit
            raise ParseError(
                f"integer literal of {len(tok.text)} digits is too long",
                tok.line, tok.col,
            ) from None

    def parse_primary(self) -> Atom:
        tok = self.peek()
        if self.at("int"):
            return self.parse_int()
        if self.accept("ident"):
            return Var(tok.text)
        if self.accept("("):
            atom = self.parse_atom()
            self.expect(")")
            return atom
        if self.accept("skip"):
            return Skip()
        if self.accept("if"):
            cond = self.parse_atom()
            self.expect("then")
            then_body = self.parse_atom()
            self.expect("else")
            return If(cond, then_body, self.parse_atom())
        if self.accept("while"):
            cond = self.parse_atom()
            self.expect("do")
            return While(cond, self.parse_atom())
        if self.at("open", "close"):
            self.advance()
            file = self.file_arg(")")
            return Open(file) if tok.text == "open" else Close(file)
        if self.at("read"):
            raise ParseError(
                "read appears only on the right of an assignment", tok.line, tok.col,
            )
        raise ParseError(
            f"expected an expression, found {tok.text or tok.kind!r}", tok.line, tok.col,
        )


def parse_program(text: str, mode: Mode) -> Program:
    """Parse source text into a Program of the given dialect."""
    parser = _Parser(tokenize(text), mode)
    body = parser.parse_stmt()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return make_program(mode, body)


# ---------------------------------------------------------------------------
# Pretty printer
#
# One printer for atoms and statements.  Assignment, if, while and the
# read forms are self-bracketing only at the loosest level; as an operand
# or an if branch they are parenthesized.  An if in an if branch is not:
# `then` always pairs with `else`, so it reparses the same, and a ladder
# of ifs prints no deeper than it parsed.  Statements bind tightest, so
# they never get parentheses (a while unrolling puts one in an if branch,
# which only the machine ever prints, never for reparsing), and their
# parts print at the loosest level.  A `;` chain and a run of operators
# of one precedence print in a loop, so the printer recurses only as
# deep as other nesting, which the parser bounds at 100 levels.

def _op_of(node) -> str:
    return node.op if type(node) is BinOp else _LOGICAL_OP[type(node)]


def format_int(n: int) -> str:
    """`n` in decimal, or past Python's int-to-str digit limit its sign and bit length."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<int of {abs(n).bit_length()} bits>"


def format_node(node, min_prec: int = _PREC_LOOSE) -> str:
    match node:
        case IntLit(n):
            text, prec = format_int(n), _PREC_TIGHT
        case Var(name):
            text, prec = name, _PREC_TIGHT
        case BinOp() | And() | Or():
            # Left-associative: the right operand must bind tighter.  A
            # run of one precedence is walked down its left spine.
            prec = _BINOP_PREC[_op_of(node)]
            tails = []
            while type(node) in (BinOp, And, Or) and _BINOP_PREC[_op_of(node)] == prec:
                tails.append(f" {_op_of(node)} {format_node(node.right, prec + 1)}")
                node = node.left
            text = format_node(node, prec) + "".join(reversed(tails))
        case Assign(Var(name), value):
            text, prec = f"{name} = {format_node(value)}", _PREC_LOOSE
        case If(cond, then_body, else_body):
            then_text, else_text = (
                format_node(body, _PREC_LOOSE if type(body) is If else _PREC_OR)
                for body in (then_body, else_body)
            )
            text, prec = f"if {format_node(cond)} then {then_text} else {else_text}", _PREC_LOOSE
        case While(cond, body):
            text, prec = f"while {format_node(cond)} do {format_node(body)}", _PREC_LOOSE
        case Open(f) | Close(f):
            text, prec = f"{'open' if type(node) is Open else 'close'}({f})", _PREC_TIGHT
        case ReadND(x, p, f):
            text, prec = f"({x}, {p}) = read({f})", _PREC_LOOSE
        case ReadAt(x, f, pos):
            text, prec = f"{x} = read({f}, {format_node(pos)})", _PREC_LOOSE
        case Skip():
            text, prec = "skip", _PREC_TIGHT
        case AtomStmt(atom):
            text, prec = format_node(atom), _PREC_TIGHT
        case Seq():
            parts = []
            while type(node) is Seq:  # down the right spine
                parts.append(format_node(node.first))
                node = node.second
            parts.append(format_node(node))
            text, prec = "; ".join(parts), _PREC_TIGHT
        case Fork(branches):
            text, prec = "fork{" + ", ".join(map(format_node, branches)) + "}", _PREC_TIGHT
        case ForkFor(body):
            text, prec = "forkfor{" + format_node(body) + "}", _PREC_TIGHT
        case ForkIf(arms):
            inner = ", ".join(f"({format_node(guard)}, {format_node(s)})" for guard, s in arms)
            text, prec = "forkif{" + inner + "}", _PREC_TIGHT
        case _:
            raise TypeError(f"not a syntax node: {node!r}")
    return f"({text})" if prec < min_prec else text


def pretty_print(program: Program) -> str:
    """Render a program so that parsing the result reproduces it exactly."""
    return format_node(program.body)


# ---------------------------------------------------------------------------
# Atomization

def atoms_of(stmt: Stmt) -> list[Atom]:
    """Flatten a fork branch into its ordered atom list.

    Sequencing flattens; if, while and assignment count as single atoms.
    Fork-family nodes have no atom decomposition and raise NestedForkError.
    """
    atoms = []
    stack = [stmt]
    while stack:
        match stack.pop():
            case AtomStmt(atom):
                atoms.append(atom)
            case Seq(first, second):
                stack += second, first
            case Fork() | ForkFor() | ForkIf():
                raise NestedForkError("fork-family statements cannot be atomized")
            case other:
                raise TypeError(f"not a statement: {other!r}")
    return atoms
