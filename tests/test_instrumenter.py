"""Diagnosis-model construction and blocking."""

import pytest

from mcfl.instrumenter import (
    NothingToInstrument,
    block_diag,
    eligible_lines,
    instrument,
    site_picks,
)
from mcfl.localizer import localize
from mcfl.parser import parse
from mcfl.sequentializer import Schedule, Segment, extract_schedule, \
    sequentialize
from mcfl.syntax import (
    Assert,
    Assign,
    Assume,
    IntLit,
    Nondet,
    line_table,
    pretty_print,
    program_stmts,
)
from mcfl.verifier import (
    VerifierConfig,
    first_path,
    verify,
)

from conftest import bign_source


def _sequentialized(program, config):
    result = verify(program, config)
    assert result.outcome == "violation"
    deadlock = result.counterexample.violation.kind == "deadlock"
    return sequentialize(program, extract_schedule(result.counterexample),
                         deadlock)


@pytest.fixture(scope="module")
def fault_seq(single_fault_program, default_config):
    return _sequentialized(single_fault_program, default_config)


@pytest.fixture(scope="module")
def fault_instr(fault_seq):
    return instrument(fault_seq)


class TestInstrument:
    def test_diagnosis_model_shape(self, fault_seq, fault_instr):
        text = pretty_print(fault_instr.program)
        assert "diag = nondet(0," in text
        # assignments wrap their right-hand side, conditions wrap as
        # booleans, the assertion flips into an assumption, and the final
        # statement asserts false
        assert "(diag == " in text and "? nondet() : 5)" in text
        assert "? nondet(0, 1) :" in text
        assert "assume(main_c == 9);" in text
        assert text.rstrip().endswith("assert(0);\n}")

    def test_wrapped_lines_match_eligibility(self, fault_seq, fault_instr):
        eligible = eligible_lines(fault_seq)
        assert fault_instr.diag_domain == set(eligible)
        assert set(fault_instr.wrap_sites) == set(eligible)
        # the five eligible images: two branch heads, three assignments
        assert sorted(eligible.values()) == [
            "assign", "assign", "assign", "cond", "cond"]

    def test_header_and_site_picks(self, fault_seq, fault_instr):
        header = fault_instr.program.main.body.stmts[1]
        assert (header.name, header.expr) == (
            fault_instr.diag_var, Nondet(0, max(fault_instr.diag_domain)))
        picks = site_picks(fault_seq)
        kinds = eligible_lines(fault_seq)
        assert picks == {line: Nondet() if kinds[line] == "assign"
                         else Nondet(0, 1) for line in kinds}
        table = line_table(fault_instr.program)
        for d, line in fault_instr.wrap_sites.items():
            stmt = table[line]
            wrap = stmt.expr if isinstance(stmt, Assign) else stmt.cond
            assert wrap.then_expr == picks[d]

    def test_original_asserts_are_gone(self, fault_instr):
        asserts = [s for s in program_stmts(fault_instr.program)
                   if isinstance(s, Assert)]
        assert len(asserts) == 1
        assert asserts[0].expr == IntLit(0)
        assert fault_instr.assert_false_line == asserts[0].line

    def test_nondet_reads_are_not_eligible(self, fault_seq):
        # the pinned nondet assignments keep their original lines out of
        # the domain
        table = line_table(fault_seq.program)
        nondet_lines = {ln for ln, s in table.items()
                        if isinstance(s, Assign)
                        and isinstance(s.expr, Nondet)}
        assert nondet_lines
        assert nondet_lines.isdisjoint(eligible_lines(fault_seq))

    def test_synthetic_lines_are_not_eligible(self, default_config):
        src = """int x = 0;
pthread_t h;
void w() { x = x + 1; }
int main() {
  pthread_create(h, w);
  x = 2;
  assert(x == 0);
  return 0;
}
"""
        seq = _sequentialized(parse(src), VerifierConfig(
            context_bound=3, deadlock_check=True))
        domain = eligible_lines(seq)
        for line, entry in seq.line_map.items():
            if entry.kind == "synthetic" and entry.value != "unwind-copy":
                assert line not in domain

    def test_nothing_to_instrument(self):
        p = parse("int main(){ return 0; }")
        seq = sequentialize(
            p, Schedule([Segment(0, 1, 1, {}, 11)]), False)
        with pytest.raises(NothingToInstrument):
            instrument(seq)

    @pytest.mark.parametrize("taken, expected", [
        (["diag"], "diag_2"), (["diag", "diag_2"], "diag_3")])
    def test_taken_diag_name(self, taken, expected, single_fault_source,
                             default_config):
        # user globals named like the diagnosis variable push it to the
        # next free name; the localization is the same as with other names
        def run(names):
            decls = "".join(f"int {n} = 0;\n" for n in names)
            return localize(parse(decls + single_fault_source),
                            default_config)

        report = run(taken)
        reference = run([f"other_{i}" for i in range(len(taken))])
        assert report.instrumented.diag_var == expected
        assert reference.instrumented.diag_var == "diag"
        assert f"{expected} = nondet(0, " in \
            pretty_print(report.instrumented.program)
        assert report.status == reference.status == "faults-found"
        assert report.diagnoses == reference.diagnoses


class TestLargeDomain:
    def test_two_thousand_eligible_lines(self, default_config):
        # the domain assumption is a balanced || tree; a chain this long
        # overflowed the recursion of evaluation and printing
        instr = instrument(_sequentialized(parse(bign_source(2000)),
                                           default_config))
        assert len(instr.diag_domain) == 2001
        kind, steps, valuation = first_path(
            instr.program, VerifierConfig(context_bound=0))
        assert kind == "violation"
        assert valuation[instr.diag_var] in instr.diag_domain
        text = pretty_print(instr.program)
        assert pretty_print(parse(text)) == text


class TestBlockDiag:
    def test_blocking_moves_to_next_diagnosis(self, fault_instr,
                                              default_config):
        cfg = VerifierConfig(context_bound=0, loop_bound=3,
                             nondet_domain=(0, 8))
        first = verify(fault_instr.program, cfg)
        assert first.outcome == "violation"
        d1 = first.counterexample.final_valuation[fault_instr.diag_var]
        blocked = block_diag(fault_instr, d1)
        second = verify(blocked.program, cfg)
        assert second.outcome == "violation"
        d2 = second.counterexample.final_valuation[blocked.diag_var]
        assert d2 != d1
        assert d2 in fault_instr.diag_domain

    def test_blocked_assumption_count(self, fault_instr):
        one = block_diag(fault_instr, 99)
        two = block_diag(one, 98)
        assumes = [s for s in two.program.main.body.stmts
                   if isinstance(s, Assume)]
        # one domain assumption plus one per blocked value
        assert len(assumes) == 1 + len(two.blocked)
        assert two.blocked == {98, 99}

    def test_idempotent(self, fault_instr):
        once = block_diag(fault_instr, 42)
        twice = block_diag(once, 42)
        assert twice is once

    def test_blocking_outside_domain_preserves_outcome(self, fault_instr):
        cfg = VerifierConfig(context_bound=0, loop_bound=3,
                             nondet_domain=(0, 8))
        before = verify(fault_instr.program, cfg)
        after = verify(block_diag(fault_instr, 9999).program, cfg)
        assert before.outcome == after.outcome
        assert before.counterexample.final_valuation[
            fault_instr.diag_var] == \
            after.counterexample.final_valuation[fault_instr.diag_var]


class TestMinimalProgram:
    def test_single_assignment_and_assert(self):
        p = parse("int x = 0;\n"
                  "int main(){ x = 1; assert(x == 1); return 0; }")
        seq = sequentialize(
            p, Schedule([Segment(0, 2, 4, {}, 11)]), False)
        instr = instrument(seq)
        assert len(instr.diag_domain) == 1
        text = pretty_print(instr.program)
        assert "assume(x == 1);" in text
        assert text.count("assert(") == 1
        assert "assert(0);" in text
