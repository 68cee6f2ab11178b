"""Dynamic file-safety checking for a small concurrent while-language.

The language reads integers from virtual files through an open/close
protocol; misuse (double open, reading a closed file, and so on) has no
applicable rule and strands the program in a stuck state.  This package
parses the two dialects of the language, implements their small-step
semantics over explicit machine configurations, and decides bounded
file safety: a program is safe when every reachable normal form is a
completed one.
"""

from .errors import (
    FileSafeError, InvalidTraceError, MissingFileError, ModeError,
    NestedForkError, ParseError, SearchBoundError, SpecError, UnknownFileError,
)
from .explorer import (
    EXHAUSTED_STATES, EXHAUSTED_STEPS, OUTCOME_CUTOFF, OUTCOME_FINAL,
    OUTCOME_STUCK, Safe, Trace, Unknown, Unsafe, Verdict, embed_trace,
    explore, normal_form_traces, oracle_explore, reachable_normal_forms,
    relax_program, run_single, validate_trace,
)
from .machine import (
    CLOSED, OPEN, Configuration, FileStore, canonical_key, initial_config,
    is_final, load_fs_spec, make_configuration,
)
from .report import Report, SCHEMA
from .semantics import (
    Bounds, ReadMode, RuleInstance, enumerate_interleavings, eval_phi, step,
)
from .syntax import (
    Mode, Program, atoms_of, make_program, parse_program, pretty_print,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds", "CLOSED", "Configuration", "EXHAUSTED_STATES",
    "EXHAUSTED_STEPS", "FileSafeError", "FileStore", "InvalidTraceError",
    "MissingFileError", "Mode", "ModeError", "NestedForkError", "OPEN",
    "OUTCOME_CUTOFF", "OUTCOME_FINAL", "OUTCOME_STUCK", "ParseError",
    "Program", "ReadMode", "Report", "RuleInstance", "SCHEMA", "Safe",
    "SearchBoundError", "SpecError", "Trace", "Unknown", "UnknownFileError",
    "Unsafe", "Verdict", "atoms_of", "canonical_key", "embed_trace",
    "enumerate_interleavings", "eval_phi", "explore", "initial_config",
    "is_final", "load_fs_spec", "make_configuration", "make_program",
    "normal_form_traces", "oracle_explore", "parse_program", "pretty_print",
    "reachable_normal_forms", "relax_program", "run_single", "step",
    "validate_trace",
]
