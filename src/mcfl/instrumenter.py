"""Diagnosis instrumentation for sequential programs.

A fresh `diag` variable picks a line nondeterministically; every eligible
line's effect is replaced by an unconstrained value when diag names it;
original assertions become assumptions, and a final `assert(0)` marks
successful completion. A verification run that reaches the final assertion
has found a diag value whose line, when changed, lets the program pass.
The localizer does not search this model: it runs the sequential program
under the model's rules, with the picks of site_picks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .sequentializer import NamePool, SequentialProgram
from .syntax import (
    Assert,
    Assign,
    Assume,
    Binary,
    Block,
    Decl,
    Expr,
    If,
    IntLit,
    Nondet,
    Program,
    Return,
    Stmt,
    Ternary,
    Var,
    While,
    child_blocks,
    clone,
    program_stmts,
    renumber,
)

# unused here; the benchmark's span tracer wraps these module attributes
from .parser import parse  # noqa: F401
from .syntax import pretty_print  # noqa: F401


class NothingToInstrument(Exception):
    """The sequential program has no line eligible for diagnosis."""


@dataclass
class InstrumentedProgram:
    program: Program
    diag_domain: set[int]  # eligible lines, in the sequential numbering
    blocked: set[int]
    diag_var: str
    seq: SequentialProgram = field(repr=False)
    # sequential line -> line of its wrapped statement in the instrumented
    # program, used to read the witness value off a counterexample
    wrap_sites: dict[int, int] = field(default_factory=dict, repr=False)
    assert_false_line: int = 0


def eligible_lines(seq: SequentialProgram) -> dict[int, str]:
    """Eligible lines and their wrap kind ('assign' or 'cond').

    Assignments and if/while conditions qualify when they image original
    code (inlined copies included). Declarations, nondet reads, assumptions,
    and all framework, order-control, loopcounter and lock-model lines stay
    out so every diagnosis maps back to the source program.
    """
    result: dict[int, str] = {}
    for stmt in program_stmts(seq.program):
        entry = seq.line_map.get(stmt.line)
        if entry is None:
            continue
        if entry.kind != "original" and entry.value != "unwind-copy":
            continue
        if isinstance(stmt, Assign) and not isinstance(stmt.expr, Nondet):
            result[stmt.line] = "assign"
        elif isinstance(stmt, (If, While)):
            result[stmt.line] = "cond"
    return result


def site_picks(seq: SequentialProgram) -> dict[int, Nondet]:
    """The nondet() each eligible line runs in place of its value when diag
    names it: any value for an assignment, 0 or 1 for a condition."""
    return {line: Nondet() if kind == "assign" else Nondet(0, 1)
            for line, kind in eligible_lines(seq).items()}


def instrument(seq: SequentialProgram) -> InstrumentedProgram:
    return _instrument_core(seq, set())


def block_diag(instr: InstrumentedProgram, value: int) -> InstrumentedProgram:
    """Adds assume(diag != value); repeated values change nothing.

    Kept as public API for block-and-reverify enumeration, which verifies
    the model as printed; localize no longer uses it, since one
    lazy-decision search finds every diag value."""
    if value in instr.blocked:
        return instr
    return _instrument_core(instr.seq, instr.blocked | {value})


def _instrument_core(seq: SequentialProgram,
                     blocked: set[int]) -> InstrumentedProgram:
    picks = site_picks(seq)
    if not picks:
        raise NothingToInstrument(
            "no assignment or condition is eligible for diagnosis")
    program = clone(seq.program)
    diag = NamePool({getattr(s, "name", "") for s in program_stmts(program)}
                    ).fresh("diag")

    wrapped = {s.line: s for s in program_stmts(program) if s.line in picks}
    for line, stmt in wrapped.items():
        picked = Binary("==", Var(diag), IntLit(line))
        if isinstance(stmt, Assign):
            stmt.expr = Ternary(picked, picks[line], stmt.expr)
        else:
            stmt.cond = Ternary(picked, picks[line], stmt.cond)

    _asserts_to_assumes(program.main.body)

    body = program.main.body.stmts
    if body and isinstance(body[-1], Return):
        body.pop()
    final_assert = Assert(IntLit(0))
    body.append(final_assert)

    header: list[Stmt] = [Decl(diag), Assign(diag, Nondet(0, max(picks)))]
    for b in sorted(blocked):
        header.append(Assume(Binary("!=", Var(diag), IntLit(b))))
    header.append(Assume(_any_of(
        [Binary("==", Var(diag), IntLit(v)) for v in [0] + sorted(picks)])))
    program.main.body.stmts = header + body

    renumber(program)

    return InstrumentedProgram(
        program=program,
        diag_domain=set(picks),
        blocked=set(blocked),
        diag_var=diag,
        seq=seq,
        wrap_sites={d: stmt.line for d, stmt in wrapped.items()},
        assert_false_line=final_assert.line,
    )


def _any_of(terms: list[Expr]) -> Expr:
    """A balanced || tree over terms, so its depth, and the recursion depth
    of printing and evaluating it, grows with log(len(terms))."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return Binary("||", _any_of(terms[:mid]), _any_of(terms[mid:]))


def _asserts_to_assumes(block: Block) -> None:
    for i, stmt in enumerate(block.stmts):
        if isinstance(stmt, Assert):
            block.stmts[i] = Assume(stmt.expr)
        else:
            for child in child_blocks(stmt):
                _asserts_to_assumes(child)


def instrumented_to_json(instr: InstrumentedProgram) -> str:
    doc = {
        "diag_var": instr.diag_var,
        "diag_domain": sorted(instr.diag_domain),
        "blocked": sorted(instr.blocked),
        "wrap_sites": {str(k): v
                       for k, v in sorted(instr.wrap_sites.items())},
        "assert_false_line": instr.assert_false_line,
    }
    return json.dumps(doc, indent=2) + "\n"
