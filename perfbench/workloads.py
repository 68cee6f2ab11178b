"""The benchmark's workloads: inputs made from a seed, and the answers they must give.

Every expected verdict, state count, normal-form count, witness length and
exit code below is written by hand.  The seed only renames generated
variables (to names of one fixed length, so the work per check does not
depend on the seed) and permutes the order of the corpus sweep; no
expected number depends on it.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

EXIT_CODES = {"safe": 0, "unsafe": 1, "unknown": 2}


@dataclass(frozen=True)
class Check:
    """One `filesafe check` call and the answer it must give."""

    label: str
    program: Path
    mode: str                     # "whilef" or "safe"
    read_mode: str | None         # None for the safe dialect
    fs: Path | None
    forkfor_max: int
    verdict: str
    states: int | None            # report `states`, safe verdicts only
    normal_forms: int | None
    witness_steps: int | None     # unsafe verdicts only
    oracle_cross_check: bool = False

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    @property
    def states_searched(self) -> int:
        """States a safe check visited, or the configurations on an unsafe witness."""
        return self.states if self.verdict == "safe" else self.witness_steps + 1

    def argv(self, report: Path) -> list[str]:
        argv = ["check", str(self.program), "--mode", self.mode,
                "--forkfor-max", str(self.forkfor_max), "--json", str(report)]
        if self.read_mode is not None:
            argv += ["--read-mode", self.read_mode]
        if self.fs is not None:
            argv += ["--fs", str(self.fs)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[Check, ...]

    @property
    def states_per_op(self) -> int:
        return sum(c.states_searched for c in self.checks)


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct four-letter variable names.

    They start with `v`, which no keyword of either dialect does.
    """
    names: list[str] = []
    while len(names) < count:
        name = "v" + "".join(rng.choices(string.ascii_lowercase, k=3))
        if name not in names:
            names.append(name)
    return names


def _rename(source: str, mapping: dict[str, str]) -> str:
    code = "\n".join(line.split("#", 1)[0] for line in source.splitlines())
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    return pattern.sub(lambda m: mapping[m.group(1)], code) + "\n"


def fork_fanout(seed: int, workdir: Path) -> Workload:
    # One `fork` step lays out 113,400 interleavings of five identical
    # copies, of which 42 are distinct: the fork rule and state keying do
    # nearly all the work.
    rng = random.Random(seed)
    x, p, y = fresh_names(rng, 3)
    program = workdir / "fork_fanout.wf"
    program.write_text(_rename(
        (CORPUS / "forkfor_pointer.wf").read_text(), {"x": x, "p": p, "y": y},
    ))
    return Workload("fork_fanout", (Check(
        "forkfor_pointer", program, "whilef", "cursor",
        CORPUS / "forkfor_pointer.fs.json", 5,
        "safe", 716, 6, None,
    ),))


def interleave_wide(seed: int, workdir: Path) -> Workload:
    # Two independent 7-assignment branches: one fork step, then a large
    # graph of distinct states (12,870) where keying and the explorer's
    # bookkeeping dominate.
    rng = random.Random(seed)
    names = fresh_names(rng, 14)
    left = "; ".join(f"{n} = {i}" for i, n in enumerate(names[:7], 1))
    right = "; ".join(f"{n} = {i}" for i, n in enumerate(names[7:], 1))
    program = workdir / "interleave_wide.wf"
    program.write_text(f"fork {{ {left}, {right} }}\n")
    return Workload("interleave_wide", (Check(
        "fork_7x7", program, "whilef", "cursor", None, 2,
        "safe", 12870, 1, None,
    ),))


def deep_witness(seed: int, workdir: Path) -> Workload:
    # A deterministic loop that ends in a division by zero after 8,422
    # steps: the search exits early, and writing and reading the 21 MB
    # witness report dominates.
    rng = random.Random(seed)
    (x,) = fresh_names(rng, 1)
    program = workdir / "deep_witness.wf"
    program.write_text(f"{x} = 0; while {x} <= 700 do {x} = {x} + 1; 1 / 0\n")
    return Workload("deep_witness", (Check(
        "loop_701", program, "whilef", "cursor", None, 2,
        "unsafe", None, None, 8422,
    ),))


# (file, read mode, verdict, states, normal forms, witness steps) under
# the default bounds.  The gate also checks each row against the tree
# route, `oracle_explore`.
CORPUS_EXPECTED = (
    ("arith.wf", "cursor", "safe", 22, 1, None),
    ("arith.wf", "oracle", "safe", 22, 1, None),
    ("bools.wf", "cursor", "safe", 22, 1, None),
    ("bools.wf", "oracle", "safe", 22, 1, None),
    ("close_twice.wf", "cursor", "unsafe", None, None, 4),
    ("close_twice.wf", "oracle", "unsafe", None, None, 4),
    ("close_unopened.wf", "cursor", "unsafe", None, None, 0),
    ("close_unopened.wf", "oracle", "unsafe", None, None, 0),
    ("div_zero.wf", "cursor", "unsafe", None, None, 1),
    ("div_zero.wf", "oracle", "unsafe", None, None, 1),
    ("final_value.wf", "cursor", "safe", 8, 1, None),
    ("final_value.wf", "oracle", "safe", 8, 1, None),
    ("fork_race.wf", "cursor", "safe", 32, 2, None),
    ("fork_race.wf", "oracle", "safe", 32, 2, None),
    ("forkfor_pointer.wf", "cursor", "safe", 33, 3, None),
    ("forkfor_pointer.wf", "oracle", "safe", 78, 4, None),
    ("forkif_guarded.wf", "cursor", "safe", 24, 2, None),
    ("forkif_guarded.wf", "oracle", "safe", 24, 2, None),
    ("guard_stuck.wf", "cursor", "unsafe", None, None, 0),
    ("guard_stuck.wf", "oracle", "unsafe", None, None, 0),
    ("loop.wf", "cursor", "safe", 46, 1, None),
    ("loop.wf", "oracle", "safe", 46, 1, None),
    ("open_close.wf", "cursor", "safe", 4, 1, None),
    ("open_close.wf", "oracle", "safe", 4, 1, None),
    ("open_twice.wf", "cursor", "unsafe", None, None, 2),
    ("open_twice.wf", "oracle", "unsafe", None, None, 2),
    ("oracle_predicate.wf", "cursor", "safe", 39, 3, None),
    ("oracle_predicate.wf", "oracle", "unsafe", None, None, 15),
    ("read_closed.wf", "cursor", "unsafe", None, None, 0),
    ("read_closed.wf", "oracle", "unsafe", None, None, 0),
    ("read_eof.wf", "cursor", "safe", 8, 1, None),
    ("read_eof.wf", "oracle", "safe", 16, 4, None),
    ("seq_read.wf", "cursor", "safe", 6, 1, None),
    ("seq_read.wf", "oracle", "safe", 8, 2, None),
    ("skip.wf", "cursor", "safe", 2, 1, None),
    ("skip.wf", "oracle", "safe", 2, 1, None),
    ("safe_fork.swf", None, "safe", 10, 1, None),
    ("safe_forkif.swf", None, "safe", 21, 1, None),
    ("safe_neg_pos.swf", None, "unsafe", None, None, 5),
    ("safe_pos_expr.swf", None, "safe", 18, 1, None),
    ("safe_read.swf", None, "safe", 6, 1, None),
    ("safe_read_closed.swf", None, "unsafe", None, None, 0),
    ("safe_seq.swf", None, "safe", 16, 1, None),
)


def corpus_sweep(seed: int, workdir: Path) -> Workload:
    # Many tiny programs: the CLI, the parser and the spec loader do most
    # of the work, and every rule family and both read modes run.
    checks = []
    for file, read_mode, verdict, states, normal_forms, witness in CORPUS_EXPECTED:
        program = CORPUS / file
        fs = CORPUS / (program.stem + ".fs.json")
        checks.append(Check(
            f"{program.stem}:{read_mode or 'safe'}", program,
            "safe" if program.suffix == ".swf" else "whilef", read_mode,
            fs if fs.exists() else None, 2,
            verdict, states, normal_forms, witness, oracle_cross_check=True,
        ))
    random.Random(seed).shuffle(checks)
    return Workload("corpus_sweep", tuple(checks))


WORKLOADS = {
    "fork_fanout": fork_fanout,
    "interleave_wide": interleave_wide,
    "deep_witness": deep_witness,
    "corpus_sweep": corpus_sweep,
}
