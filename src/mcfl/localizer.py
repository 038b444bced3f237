"""End-to-end fault localization driver.

sequential_replay, shared with the CLI, verifies the concurrent program and
sequentializes it along the failing schedule. Then one lazy-decision
search of the sequential program, under the diagnosis model's rules, both
finds every diag value that lets the model pass and checks each against
the substitution oracle: a path decides diag only when it first reaches an
eligible line, so all values share the unchanged prefix. A picked line's
witness is the value of the first path that reaches the end of main, where
the model's final assert(0) stands, and the line validates when every path
that runs it with the witness passes. The model itself is built only when
a report's `instrumented` is read.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

from .instrumenter import (
    InstrumentedProgram,
    eligible_lines,
    instrument,
    site_picks,
)
from .sequentializer import SequentialProgram, extract_schedule, sequentialize
from .syntax import IntLit, Program
from .verifier import (
    CompiledProgram,
    Counterexample,
    VerifierConfig,
    first_path,
    record_from_obj,
    record_to_obj,
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

    @cached_property
    def instrumented(self) -> InstrumentedProgram | None:
        """The diagnosis model of the sequential program, built on first
        read; None without one or when no line is eligible."""
        if self.sequential is None or not eligible_lines(self.sequential):
            return None
        return instrument(self.sequential)


def _seq_config(config: VerifierConfig) -> VerifierConfig:
    return replace(config, context_bound=0, deadlock_check=False)


def sequential_replay(program: Program,
                      config: VerifierConfig) -> DiagnosisReport:
    """The pipeline front: verify with deadlock detection and sequentialize
    along the first failing schedule. The report ends resource-exhausted or
    no-counterexample, or is inconclusive with no diagnoses and carries the
    counterexample and the sequential program."""
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
    seq = sequentialize(program, extract_schedule(cex), deadlock)
    timings["sequentialize"] = time.perf_counter() - t0
    return DiagnosisReport("inconclusive", [], 0, cex, timings,
                           deadlock=deadlock, sequential=seq)


def localize(program: Program, config: VerifierConfig) -> DiagnosisReport:
    report = sequential_replay(program, config)
    seq, timings = report.sequential, report.timings
    picks = site_picks(seq) if seq is not None else {}
    if not picks:
        # no sequential program, or no eligible line: nothing to diagnose
        return report

    # the model's rules, run on the sequential program: every eligible line
    # is a site, the end of main stands for the final assert(0), and a
    # failure ends a path as the assume it became does
    t0 = time.perf_counter()
    search = verify(seq.program, _seq_config(config), sites=picks)
    timings["diagnose"] = time.perf_counter() - t0
    # validation ran in the same search; this reads off its verdicts. One
    # record per site, by line, so iteration is the run in which
    # block-and-reverify would find it; site 0 means the model passes
    # without touching any known line, which the method cannot explain
    t0 = time.perf_counter()
    report.diagnoses = [
        Diagnosis(found.site, seq.original_line(found.site), found.witness,
                  iteration, found.validated)
        for iteration, found in enumerate(search.records, start=1)]
    timings["validate"] = time.perf_counter() - t0
    report.found_error_count = len(report.diagnoses)
    report.status = {"violation": "inconclusive",
                     "resource-exhausted": "resource-exhausted"}.get(
        search.outcome,
        "faults-found" if report.diagnoses else "inconclusive")
    return report


def validate_diag(compiled: CompiledProgram, witnesses: dict[int, int],
                  config: VerifierConfig) -> set[int]:
    """The lines d of witnesses such that fixing line d to the constant
    witnesses[d] makes the compiled sequential program verify clean, with
    no loop left running at the bound. It is the search localize runs,
    with each line's pick the constant, so each line has its witness from
    the start and the search only validates: it checks them all and
    shares the unchanged prefix. max_states bounds it as a whole, and a
    line it had not settled when the budget ran out does not validate."""
    result = verify(compiled, _seq_config(config), sites={
        d: IntLit(witness) for d, witness in witnesses.items()})
    return {found.site for found in result.records if found.validated}


def brute_force_diagnoses(seq: SequentialProgram,
                          config: VerifierConfig) -> list[tuple[int, int]]:
    """Exhaustive localization oracle: every eligible line crossed with
    every candidate value; a line counts when some substitution makes the
    program verify clean and the line runs on the path first_path
    follows. That path is the search's first leaf: where the sequential
    program leaves a recorded draw unpinned, it can be a completed or cut
    path rather than the failing one. The program compiles once, every
    eligible line a site, and each substitution fixes one site's value."""
    run_cfg = _seq_config(config)
    compiled = CompiledProgram(seq.program, site_picks(seq))
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
        "diagnoses": [record_to_obj(d) for d in report.diagnoses],
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> DiagnosisReport:
    doc = json.loads(text)
    return DiagnosisReport(
        status=doc["status"],
        diagnoses=[record_from_obj(Diagnosis, d) for d in doc["diagnoses"]],
        found_error_count=doc["found_error_count"],
        counterexample=None,
        timings=dict(doc["timings"]),
    )
