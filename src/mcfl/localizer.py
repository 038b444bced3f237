"""End-to-end fault localization driver.

Verify the concurrent program, classify the violation, sequentialize along
the failing schedule, instrument, then collect every diag value that lets
the instrumented model pass in one lazy-decision search: the model's header
draw runs as diag = 0, and a path decides diag only when it first reaches a
wrapped line, so all values share the unchanged prefix; the first passing
path of each value is recorded. Every reported line is then checked against
the substitution oracle, all of them in one more lazy-decision search of
the sequential program.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from .instrumenter import (
    InstrumentedProgram,
    NothingToInstrument,
    eligible_lines,
    instrument,
)
from .sequentializer import SequentialProgram, sequentialize
from .syntax import IntLit, Program
from .verifier import (
    CompiledProgram,
    Counterexample,
    VerifierConfig,
    extract_schedule,
    first_path,
    passing_sites,
    verify,
)

# unused here; the benchmark's span tracer wraps these module attributes
from .instrumenter import block_diag  # noqa: F401
from .parser import parse  # noqa: F401
from .syntax import pretty_print  # noqa: F401


@dataclass
class Diagnosis:
    seq_line: int
    original_line: int | None
    witness_value: int | None
    iteration: int
    oracle_validated: bool


@dataclass
class DiagnosisReport:
    status: str  # faults-found | no-counterexample | inconclusive |
    #              resource-exhausted
    diagnoses: list[Diagnosis]
    found_error_count: int
    counterexample: Counterexample | None
    timings: dict[str, float]
    deadlock: bool = False
    sequential: SequentialProgram | None = field(default=None, repr=False)
    instrumented: InstrumentedProgram | None = field(default=None,
                                                     repr=False)


def _seq_config(config: VerifierConfig) -> VerifierConfig:
    return replace(config, context_bound=0, deadlock_check=False)


def _diagnose(instr: InstrumentedProgram, config: VerifierConfig):
    """The lazy-decision search of the model: its header draw runs as
    diag = 0, which passes the domain assume, and each wrap site is a site
    whose pick runs the wrapped nondet()."""
    model = CompiledProgram(instr.program).with_constant(
        instr.header_line, 0)
    return verify(model, _seq_config(config), sites=instr.site_picks)


def localize(program: Program, config: VerifierConfig) -> DiagnosisReport:
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    first = verify(program, replace(config, deadlock_check=True))
    timings["verify"] = time.perf_counter() - t0
    if first.outcome == "resource-exhausted":
        return DiagnosisReport("resource-exhausted", [], 0, None, timings)
    if first.outcome == "safe-within-bounds":
        return DiagnosisReport("no-counterexample", [], 0, None, timings)

    # deadlock detection only adds violations to the same search, so a
    # first violation that is no deadlock is also the first without it
    cex = first.counterexample
    deadlock = cex.violation.kind == "deadlock"

    t0 = time.perf_counter()
    schedule = extract_schedule(cex)
    seq = sequentialize(program, schedule, deadlock)
    timings["sequentialize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        instr = instrument(seq)
    except NothingToInstrument:
        timings["instrument"] = time.perf_counter() - t0
        return DiagnosisReport("inconclusive", [], 0, cex, timings,
                               deadlock=deadlock, sequential=seq)
    timings["instrument"] = time.perf_counter() - t0

    diagnoses: list[Diagnosis] = []
    status = None
    t0 = time.perf_counter()
    search = _diagnose(instr, config)
    timings["diagnose"] = time.perf_counter() - t0
    diag_of_site = {site: d for d, site in instr.wrap_sites.items()}
    # one record per wrap site, by line, so iteration is the run in which
    # block-and-reverify would find it
    for iteration, found in enumerate(search.records, start=1):
        if not found.site:
            # the model passes without touching any known line; the method
            # cannot explain this fault
            diagnoses.append(Diagnosis(
                seq_line=0,
                original_line=None,
                witness_value=None,
                iteration=iteration,
                oracle_validated=False,
            ))
            status = "inconclusive"
            break
        witness = None
        for line, value in found.nondet_choices:
            if line == found.site:
                witness = value
        d = diag_of_site[found.site]
        diagnoses.append(Diagnosis(
            seq_line=d,
            original_line=seq.original_line(d),
            witness_value=witness,
            iteration=iteration,
            oracle_validated=False,
        ))
    t0 = time.perf_counter()
    witnesses = {diagnosis.seq_line: diagnosis.witness_value
                 for diagnosis in diagnoses
                 if diagnosis.witness_value is not None}
    if witnesses:
        validated = validate_diag(CompiledProgram(seq.program), witnesses,
                                  config)
        for diagnosis in diagnoses:
            diagnosis.oracle_validated = diagnosis.seq_line in validated
    timings["validate"] = time.perf_counter() - t0
    if search.outcome == "resource-exhausted":
        status = "resource-exhausted"

    if status is None:
        status = "faults-found" if diagnoses else "inconclusive"
    return DiagnosisReport(
        status=status,
        diagnoses=diagnoses,
        found_error_count=len(diagnoses),
        counterexample=cex,
        timings=timings,
        deadlock=deadlock,
        sequential=seq,
        instrumented=instr,
    )


def validate_diag(compiled: CompiledProgram, witnesses: dict[int, int],
                  config: VerifierConfig) -> set[int]:
    """The lines d of witnesses such that fixing line d to the constant
    witnesses[d] makes the compiled sequential program verify clean, with
    no loop left running at the bound. One search checks them all and
    shares the unchanged prefix; max_states bounds it as a whole, and a
    line it had not settled when the budget ran out does not validate."""
    return passing_sites(compiled, _seq_config(config), {
        d: IntLit(witness) for d, witness in witnesses.items()})[0]


def brute_force_diagnoses(seq: SequentialProgram,
                          config: VerifierConfig) -> list[tuple[int, int]]:
    """Exhaustive localization oracle: every eligible line crossed with
    every candidate value; a line counts when some substitution makes the
    program verify clean and the line lies on the failing path."""
    run_cfg = _seq_config(config)
    compiled = CompiledProgram(seq.program)
    baseline = verify(compiled, run_cfg)
    if baseline.outcome == "safe-within-bounds" and not baseline.bound_hit:
        return []
    kind, steps, _ = first_path(compiled, run_cfg)
    executed = {s.line for s in steps}
    lo, hi = config.nondet_domain
    found: list[tuple[int, int]] = []
    for line, wrap_kind in sorted(eligible_lines(seq).items()):
        if line not in executed:
            continue
        values = (0, 1) if wrap_kind == "cond" else range(lo, hi + 1)
        for value in values:
            result = verify(compiled.with_constant(line, value), run_cfg)
            if result.outcome == "safe-within-bounds" and not \
                    result.bound_hit:
                found.append((line, value))
                break
    return found


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_to_json(report: DiagnosisReport) -> str:
    doc = {
        "status": report.status,
        "found_error_count": report.found_error_count,
        "diagnoses": [
            {
                "seq_line": d.seq_line,
                "original_line": d.original_line,
                "witness_value": d.witness_value,
                "iteration": d.iteration,
                "oracle_validated": d.oracle_validated,
            }
            for d in report.diagnoses
        ],
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> DiagnosisReport:
    doc = json.loads(text)
    return DiagnosisReport(
        status=doc["status"],
        diagnoses=[Diagnosis(d["seq_line"], d["original_line"],
                             d["witness_value"], d["iteration"],
                             d["oracle_validated"])
                   for d in doc["diagnoses"]],
        found_error_count=doc["found_error_count"],
        counterexample=None,
        timings=dict(doc["timings"]),
    )
