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
from dataclasses import dataclass, field, fields
from typing import get_args

from .errors import ModeError, NestedForkError, ParseError


class Mode(enum.Enum):
    """Which read form a program uses."""

    WHILEF = "whilef"
    SAFE = "safe"

    @classmethod
    def from_flag(cls, text: str) -> "Mode":
        return cls(text)


# ---------------------------------------------------------------------------
# Abstract syntax

@dataclass(frozen=True)
class IntLit:
    n: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Atom"
    right: "Atom"


@dataclass(frozen=True)
class And:
    left: "Atom"
    right: "Atom"


@dataclass(frozen=True)
class Or:
    left: "Atom"
    right: "Atom"


@dataclass(frozen=True)
class Assign:
    target: Var
    value: "Atom"


@dataclass(frozen=True)
class If:
    # Parsed programs carry atoms in both branches.  The machine widens
    # the then-branch to a statement when it unrolls a while loop.
    cond: "Atom"
    then_body: "Atom | Stmt"
    else_body: "Atom | Stmt"


@dataclass(frozen=True)
class While:
    cond: "Atom"
    body: "Atom"


@dataclass(frozen=True)
class Open:
    file: str


@dataclass(frozen=True)
class Close:
    file: str


@dataclass(frozen=True)
class ReadND:
    """(target, pointer) = read(file) -- whilef dialect."""

    target: str
    pointer: str
    file: str


@dataclass(frozen=True)
class ReadAt:
    """target = read(file, pos) -- safe dialect."""

    target: str
    file: str
    pos: "Atom"


@dataclass(frozen=True)
class Skip:
    pass


Atom = (
    IntLit | Var | BinOp | And | Or | Assign | If | While
    | Open | Close | ReadND | ReadAt | Skip
)


@dataclass(frozen=True)
class AtomStmt:
    atom: Atom


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(frozen=True)
class Fork:
    branches: tuple["Stmt", ...]


@dataclass(frozen=True)
class ForkFor:
    body: "Stmt"


@dataclass(frozen=True)
class ForkIf:
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
# A node's children are the syntax nodes among its dataclass fields, in
# declaration order; a tuple field (fork branches, forkif arms) gives its
# nodes in order, flattened.  Every other field value is a leaf.

_FIELD_NAMES = {
    cls: tuple(f.name for f in fields(cls)) for cls in get_args(Atom) + get_args(Stmt)
}


def walk(node):
    """Every syntax node under `node`, `node` first, in preorder."""
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(reversed(item))
        elif type(item) in _FIELD_NAMES:
            yield item
            stack.extend(getattr(item, name) for name in reversed(_FIELD_NAMES[type(item)]))


def rebuild(node, f):
    """`node` rebuilt with `f(child)` in place of each child, called in field order."""
    def child(value):
        if type(value) is tuple:
            return tuple(map(child, value))
        return f(value) if type(value) in _FIELD_NAMES else value

    return type(node)(*(child(getattr(node, name)) for name in _FIELD_NAMES[type(node)]))


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


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():  # the digits int() accepts, so not `²`
            start, start_col = i, col
            while i < n and text[i].isdecimal():
                i, col = i + 1, col + 1
            toks.append(Token("int", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i, col = i + 1, col + 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, start_col))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
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

_READ_FORMS = {Mode.WHILEF: "(x, p) = read(f)", Mode.SAFE: "x = read(f, pos)"}


class _Parser:
    def __init__(self, toks: list[Token], mode: Mode):
        self.toks = toks
        self.mode = mode
        self.pos = 0
        self.fork_depth = 0

    # Token plumbing

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line, tok.col,
            )
        return self.advance()

    # Statements

    def parse_stmt(self) -> Stmt:
        items = [self.parse_item()]
        while self.at("sym", ";"):
            self.advance()
            if self.at("eof") or self.at("sym", "}") or self.at("sym", ")") \
                    or self.at("sym", ","):
                break  # trailing semicolon
            items.append(self.parse_item())
        stmt = items[-1]
        for s in reversed(items[:-1]):
            stmt = Seq(s, stmt)
        return stmt

    def parse_item(self) -> Stmt:
        if self.at("kw", "fork") or self.at("kw", "forkfor") or self.at("kw", "forkif"):
            return self.parse_fork()
        return AtomStmt(self.parse_atom())

    def parse_fork(self) -> Stmt:
        tok = self.advance()
        if self.fork_depth:
            raise NestedForkError(
                f"{tok.text} may not appear inside a fork branch",
                tok.line, tok.col,
            )
        self.fork_depth += 1
        try:
            self.expect("sym", "{")
            if tok.text == "forkfor":
                node = ForkFor(self.parse_stmt())
            else:
                forkif = tok.text == "forkif"
                parse_one = self.parse_arm if forkif else self.parse_stmt
                items = [parse_one()]
                while self.at("sym", ","):
                    self.advance()
                    items.append(parse_one())
                node = ForkIf(tuple(items)) if forkif else Fork(tuple(items))
            self.expect("sym", "}")
            return node
        finally:
            self.fork_depth -= 1

    def parse_arm(self) -> tuple[Atom, Stmt]:
        self.expect("sym", "(")
        guard = self.parse_atom()
        self.expect("sym", ",")
        stmt = self.parse_stmt()
        self.expect("sym", ")")
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
        if self._at_read_nd():
            return self.parse_read_nd()
        if self.at("ident") and self.at("sym", "=", ahead=1):
            return self.parse_assign()
        return self.parse_binary(_PREC_OR)

    def _at_read_nd(self) -> bool:
        return (
            self.at("sym", "(")
            and self.at("ident", ahead=1)
            and self.at("sym", ",", ahead=2)
            and self.at("ident", ahead=3)
            and self.at("sym", ")", ahead=4)
            and self.at("sym", "=", ahead=5)
        )

    def parse_read_nd(self) -> Atom:
        start = self.expect("sym", "(")
        target = self.advance().text
        self.advance()  # ','
        pointer = self.advance().text
        self.advance()  # ')'
        self.advance()  # '='
        self.expect("kw", "read")
        self.expect("sym", "(")
        file = self.expect("ident").text
        self.expect("sym", ")")
        self.require_mode(Mode.WHILEF, start)
        return ReadND(target, pointer, file)

    def parse_assign(self) -> Atom:
        target = self.advance().text
        self.advance()  # '='
        if self.at("kw", "read"):
            read_tok = self.advance()
            self.expect("sym", "(")
            file = self.expect("ident").text
            self.expect("sym", ",")
            pos = self.parse_atom()
            self.expect("sym", ")")
            self.require_mode(Mode.SAFE, read_tok)
            return ReadAt(target, file, pos)
        return Assign(Var(target), self.parse_atom())

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
        if self.at("sym", "-") and self.at("int", ahead=1):
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
        if tok.kind == "int":
            return self.parse_int()
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if self.at("sym", "("):
            self.advance()
            atom = self.parse_atom()
            self.expect("sym", ")")
            return atom
        if self.at("kw", "skip"):
            self.advance()
            return Skip()
        if self.at("kw", "if"):
            self.advance()
            cond = self.parse_atom()
            self.expect("kw", "then")
            then_body = self.parse_atom()
            self.expect("kw", "else")
            else_body = self.parse_atom()
            return If(cond, then_body, else_body)
        if self.at("kw", "while"):
            self.advance()
            cond = self.parse_atom()
            self.expect("kw", "do")
            return While(cond, self.parse_atom())
        if self.at("kw", "open") or self.at("kw", "close"):
            word = self.advance().text
            self.expect("sym", "(")
            file = self.expect("ident").text
            self.expect("sym", ")")
            return Open(file) if word == "open" else Close(file)
        if self.at("kw", "read"):
            raise ParseError(
                "read appears only on the right of an assignment",
                tok.line, tok.col,
            )
        raise ParseError(
            f"expected an expression, found {tok.text or tok.kind!r}",
            tok.line, tok.col,
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
# Assignment, if, while and the read forms are self-bracketing only in
# statement position; as an operand they are parenthesized.

def format_atom(atom, min_prec: int = _PREC_LOOSE) -> str:
    text, prec = _format(atom)
    if prec < min_prec:
        return f"({text})"
    return text


def _format(atom) -> tuple[str, int]:
    match atom:
        case IntLit(n):
            return str(n), _PREC_TIGHT
        case Var(name):
            return name, _PREC_TIGHT
        case BinOp(left=left, right=right) | And(left, right) | Or(left, right):
            op = atom.op if isinstance(atom, BinOp) else _LOGICAL_OP[type(atom)]
            prec = _BINOP_PREC[op]
            # Left-associative: the right operand must bind tighter.
            return (
                f"{format_atom(left, prec)} {op} {format_atom(right, prec + 1)}",
                prec,
            )
        case Assign(Var(name), value):
            return f"{name} = {format_atom(value, _PREC_LOOSE)}", _PREC_LOOSE
        case If(cond, then_body, else_body):
            return (
                f"if {format_atom(cond)} then {_format_branch(then_body)} "
                f"else {_format_branch(else_body)}",
                _PREC_LOOSE,
            )
        case While(cond, body):
            return (
                f"while {format_atom(cond)} do {format_atom(body)}",
                _PREC_LOOSE,
            )
        case Open(f):
            return f"open({f})", _PREC_TIGHT
        case Close(f):
            return f"close({f})", _PREC_TIGHT
        case ReadND(x, p, f):
            return f"({x}, {p}) = read({f})", _PREC_LOOSE
        case ReadAt(x, f, pos):
            return f"{x} = read({f}, {format_atom(pos)})", _PREC_LOOSE
        case Skip():
            return "skip", _PREC_TIGHT
    raise TypeError(f"not an atom: {atom!r}")


def _format_branch(body) -> str:
    # A while unrolling puts a statement in an if branch; only the machine
    # ever prints such a node, and never for reparsing.
    if isinstance(body, Stmt):
        return format_stmt(body)
    return format_atom(body, _PREC_OR)


def format_stmt(stmt: Stmt) -> str:
    match stmt:
        case AtomStmt(atom):
            return format_atom(atom)
        case Seq(first, second):
            return f"{format_stmt(first)}; {format_stmt(second)}"
        case Fork(branches):
            return "fork{" + ", ".join(format_stmt(b) for b in branches) + "}"
        case ForkFor(body):
            return "forkfor{" + format_stmt(body) + "}"
        case ForkIf(arms):
            inner = ", ".join(
                f"({format_atom(guard)}, {format_stmt(s)})" for guard, s in arms
            )
            return "forkif{" + inner + "}"
    raise TypeError(f"not a statement: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Render a program so that parsing the result reproduces it exactly."""
    return format_stmt(program.body)


# ---------------------------------------------------------------------------
# Atomization

def atoms_of(stmt: Stmt) -> list[Atom]:
    """Flatten a fork branch into its ordered atom list.

    Sequencing flattens; if, while and assignment count as single atoms.
    Fork-family nodes have no atom decomposition and raise NestedForkError.
    """
    match stmt:
        case AtomStmt(atom):
            return [atom]
        case Seq(first, second):
            return atoms_of(first) + atoms_of(second)
        case Fork() | ForkFor() | ForkIf():
            raise NestedForkError("fork-family statements cannot be atomized")
    raise TypeError(f"not a statement: {stmt!r}")
