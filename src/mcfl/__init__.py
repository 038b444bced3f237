"""mcfl: fault localization for concurrent mini-C programs.

Pipeline: bounded verification finds a failing interleaving, the
sequentializer turns it into an equivalent single-threaded replay, and the
localizer enumerates and validates repairable lines in one search of it
under the diagnosis model's rules. The instrumenter builds the model, with
its diagnosis variable, only when it is printed or read.
"""

from .instrumenter import (
    InstrumentedProgram,
    NothingToInstrument,
    block_diag,
    eligible_lines,
    instrument,
)
from .localizer import (
    Diagnosis,
    DiagnosisReport,
    brute_force_diagnoses,
    localize,
    sequential_replay,
    validate_diag,
)
from .parser import ParseError, parse
from .sequentializer import (
    GuardPlacementError,
    MapEntry,
    RuleGapError,
    Schedule,
    Segment,
    SequentialProgram,
    UnsupportedScheduleError,
    apply_pthread_rules,
    extract_schedule,
    sequentialize,
    unwind_calls,
)
from .syntax import LineId, Program, line_table, pretty_print
from .verifier import (
    CompiledProgram,
    ContextSwitchRecord,
    Counterexample,
    ModelError,
    TraceMismatch,
    TraceStep,
    VerificationResult,
    VerifierConfig,
    Violation,
    first_path,
    replay,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CompiledProgram",
    "ContextSwitchRecord",
    "Counterexample",
    "Diagnosis",
    "DiagnosisReport",
    "GuardPlacementError",
    "InstrumentedProgram",
    "LineId",
    "MapEntry",
    "ModelError",
    "NothingToInstrument",
    "ParseError",
    "Program",
    "RuleGapError",
    "Schedule",
    "Segment",
    "SequentialProgram",
    "TraceMismatch",
    "TraceStep",
    "UnsupportedScheduleError",
    "VerificationResult",
    "VerifierConfig",
    "Violation",
    "apply_pthread_rules",
    "block_diag",
    "brute_force_diagnoses",
    "eligible_lines",
    "extract_schedule",
    "first_path",
    "instrument",
    "line_table",
    "localize",
    "parse",
    "pretty_print",
    "replay",
    "sequential_replay",
    "sequentialize",
    "unwind_calls",
    "validate_diag",
    "verify",
]
