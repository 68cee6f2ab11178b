"""Golden digests of the front end: tokens, parses and printed text.

Each source is tokenized, then parsed and pretty-printed in both
dialects.  The digests pin token kinds, texts and positions, every
parse result and error message, and the printed text, so a rewrite of
the scanner, the parser or the printer must reproduce them byte for
byte.  The sources are the corpus, seeded random programs, and seeded
random strings of tokens and stray characters, most of which fail to
scan or to parse.
"""

import hashlib
import random

import pytest

from filesafe import Mode, ParseError, parse_program, pretty_print
from filesafe.syntax import tokenize

from conftest import CORPUS
from generators import random_program

PROGRAM_SEEDS = range(500)  # per dialect
STRING_SEEDS = range(5000)

# Keywords, words, integers, symbols, blanks, a comment, and characters
# the scanner rejects or reads by Unicode class (`²`, `٣`).
_ALPHABET = (
    "if", "then", "else", "while", "do", "open", "close", "read", "skip",
    "fork", "forkfor", "forkif", "x", "y", "f", "p", "_a1", "x²", "0", "7",
    "42", "٣", "||", "&&", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*",
    "/", ";", ",", "(", ")", "{", "}", "=", " ", " ", " ", "\n", "\t", "\r",
    "# c", "²", "\x0c", "$",
)

DIGESTS = {
    "corpus": {
        "tokens": "216c903db77aef34a55d1f22ae99325ee0d5e6d6223d5d228aad2c38a296e1b4",
        "whilef": "ac6986aea17d4552e8946acc68c78e4f8bb8b501dba7cf2532b7922fb71c1d57",
        "safe": "bf56bdee95e87983e58d5d1447f0b3ddff1cd472a43a6a57e3bd5769c01421b8",
    },
    "programs": {
        "tokens": "b2a5dec8e6b329d822ca80316e74b20e294a5f9026c869c6f601d88eaf532977",
        "whilef": "5e3f69e952eb6465ffb8092c06ecbafd11953da3a13c386ee88e3b4890f7849a",
        "safe": "af161cb6f6cbe2a56fc2d776712cf1f2ad81965c9aa5f4b0161926d3e14936ef",
    },
    "strings": {
        "tokens": "fb35b28e100449176f15c524c72029917184246849c5a64cc98b4914cc02c51b",
        "whilef": "5ce5369bd2481d7d2d9ffdd23498cc3cac0fbed6ca1bc5cb1da9d9a72f7f66e3",
        "safe": "5ce5369bd2481d7d2d9ffdd23498cc3cac0fbed6ca1bc5cb1da9d9a72f7f66e3",
    },
}


def token_string(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 16)))


SOURCES = {
    "corpus": lambda: [case.path.read_text() for case in CORPUS],
    "programs": lambda: [
        pretty_print(random_program(random.Random(seed), mode))
        for mode in Mode for seed in PROGRAM_SEEDS
    ],
    "strings": lambda: [token_string(seed) for seed in STRING_SEEDS],
}


def scanned(text: str) -> str:
    try:
        return repr([(t.kind, t.text, t.line, t.col) for t in tokenize(text)])
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}"


def parsed_and_printed(text: str, mode: Mode) -> str:
    try:
        program = parse_program(text, mode)
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{program.body!r}\n{pretty_print(program)}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n\x00")
    return h.hexdigest()


def front_end_digests(texts) -> dict[str, str]:
    out = {"tokens": digest(map(scanned, texts))}
    for mode in Mode:
        out[mode.value] = digest(parsed_and_printed(text, mode) for text in texts)
    return out


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_front_end_matches_its_golden_digests(name):
    assert front_end_digests(SOURCES[name]()) == DIGESTS[name]
