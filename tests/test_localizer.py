"""Pipeline driver, validation oracle and diagnosis-loop discipline."""

import json
from collections import Counter
from dataclasses import replace

import pytest

from mcfl.instrumenter import NothingToInstrument, block_diag, instrument
import mcfl.localizer
import mcfl.verifier
from mcfl.instrumenter import eligible_lines, site_picks
from mcfl.localizer import (
    brute_force_diagnoses,
    localize,
    report_from_json,
    report_to_json,
    validate_diag,
)
from mcfl.parser import parse
from mcfl.sequentializer import extract_schedule, sequentialize
from mcfl.syntax import Assert, Assign, Decl, Expr, For, IntLit, \
    format_expr, iter_stmts, line_table, pretty_print
from mcfl.verifier import (
    CompiledProgram,
    VerifierConfig,
    _Site,
    verify,
)

from conftest import BENCH_DIR, bench_source, bign_source, doc_example
from oracles import two_search_localize, uncached
from randprog import generate_callee_source, generate_source


@pytest.fixture(scope="module")
def report(single_fault_program, default_config):
    return localize(single_fault_program, default_config)


@pytest.fixture(scope="module")
def seq(single_fault_program, default_config):
    result = verify(single_fault_program, default_config)
    return sequentialize(single_fault_program,
                         extract_schedule(result.counterexample), False)


@pytest.fixture(scope="module")
def compiled(seq):
    return CompiledProgram(seq.program)


@pytest.fixture(scope="module")
def sited(seq):
    return CompiledProgram(seq.program, site_picks(seq))


class TestLocalizeSingleFault:
    def test_two_diagnoses_at_branch_and_operand_lines(self, report):
        assert report.status == "faults-found"
        assert report.found_error_count == 2
        assert [d.original_line for d in report.diagnoses] == [4, 7]

    def test_both_validated_within_two_iterations(self, report):
        assert all(d.oracle_validated for d in report.diagnoses)
        assert max(d.iteration for d in report.diagnoses) <= 2

    def test_witnesses(self, report):
        by_line = {d.original_line: d.witness_value
                   for d in report.diagnoses}
        assert by_line[4] == 0  # falsify the branch, skip the assertion
        assert by_line[7] == 4  # 5 + 4 makes the checked sum

    def test_matches_brute_force_oracle(self, report, default_config):
        oracle = brute_force_diagnoses(report.sequential, default_config)
        assert [line for line, _ in oracle] == \
            [d.seq_line for d in report.diagnoses]

    def test_timings_cover_all_stages(self, report):
        assert list(report.timings) == ["verify", "sequentialize",
                                        "diagnose", "validate"]


# main's input y races the thread's increment: with y = 2, x reaches 4
# whichever writes last, so each increment is a repair
INPUT_PROBE = """int x = 0;
pthread_t h;
void w() {
  x = x + 1;
}
int main() {
  pthread_create(h, w);
  DRAW
  x = x + y;
  assert(x != 4);
}
"""


class TestLocalizeOutcomes:
    @pytest.mark.parametrize("draw", ["int y = nondet();",
                                      "int y;\n  y = nondet();"],
                             ids=["declaration", "assignment"])
    def test_recorded_input_is_pinned(self, draw, default_config):
        # unpinned, the sequential program passes on another input, and the
        # search ends inconclusive with the site-0 record alone
        p = parse(INPUT_PROBE.replace("DRAW", draw))
        report = localize(p, default_config)
        assert report.status == "faults-found"
        table = line_table(p)
        assert [(f"{table[d.original_line].name} = "
                 f"{format_expr(table[d.original_line].expr)};",
                 d.oracle_validated) for d in report.diagnoses] == \
            [("x = x + y;", True), ("x = x + 1;", True)]

    def test_safe_program_has_no_counterexample(self, default_config):
        p = parse("int main(){ assert(1 == 1); return 0; }")
        report = localize(p, default_config)
        assert report.status == "no-counterexample"
        assert report.diagnoses == []
        assert report.found_error_count == 0

    def test_sync_fault_is_inconclusive_with_zero_diag(self,
                                                       default_config):
        report = localize(parse(bench_source("sync01")), default_config)
        assert report.status == "inconclusive"
        assert report.deadlock is True
        assert report.found_error_count == 1
        diag = report.diagnoses[0]
        assert diag.seq_line == 0
        assert diag.original_line is None
        assert diag.oracle_validated is False

    def test_ordering_fault_is_inconclusive(self, default_config):
        report = localize(parse(bench_source("token_ring")), default_config)
        assert report.status == "inconclusive"
        assert report.deadlock is False
        assert report.diagnoses[0].seq_line == 0

    def test_resource_exhaustion_propagates(self, single_fault_program):
        cfg = VerifierConfig(max_states=3)
        report = localize(single_fault_program, cfg)
        assert report.status == "resource-exhausted"


class TestValidateDiag:
    def _seq_line(self, seq, original):
        return next(line for line, e in seq.line_map.items()
                    if e.kind == "original" and e.value == original)

    def test_falsifying_the_branch_validates(self, seq, compiled,
                                            default_config):
        # skipping the faulty block leaves the assertion unreached
        line = self._seq_line(seq, 4)
        assert validate_diag(compiled, {line: 0}, default_config) == {line}

    def test_operand_witness_validates(self, seq, compiled,
                                      default_config):
        # 5 + 4 gives the asserted sum of 9
        line = self._seq_line(seq, 7)
        assert validate_diag(compiled, {line: 4}, default_config) == {line}
        assert validate_diag(compiled, {line: 3}, default_config) == set()

    def test_still_violating_witness_rejected(self, seq, compiled,
                                              default_config):
        line = self._seq_line(seq, 6)  # the a = 5 statement
        assert validate_diag(compiled, {line: 5}, default_config) == set()

    def test_one_search_checks_every_witness(self, seq, compiled,
                                             default_config):
        branch, operand, constant = (self._seq_line(seq, original)
                                     for original in (4, 7, 6))
        assert validate_diag(compiled, {branch: 0, operand: 4, constant: 5},
                             default_config) == {branch, operand}

    def test_budget_validates_nothing_pending(self, default_config):
        # bigN's picks run in line order, so a search that runs out has
        # settled a prefix of the lines; every line validates on its own
        seq = localize(parse(bign_source(8)), default_config).sequential
        compiled = CompiledProgram(seq.program)
        witnesses = {line: 0 for line in eligible_lines(seq)}
        lines = sorted(witnesses)
        assert validate_diag(compiled, witnesses, default_config) == \
            set(lines)
        # before the first pick runs, every line is pending
        assert validate_diag(compiled, witnesses,
                             VerifierConfig(max_states=20)) == set()
        sizes = set()
        for budget in range(20, 200, 10):
            got = validate_diag(compiled, witnesses,
                                VerifierConfig(max_states=budget))
            assert got == set(lines[:len(got)]), budget
            sizes.add(len(got))
        assert len(sizes & set(range(1, len(lines)))) > 3


class TestLoopDiscipline:
    def test_termination_and_distinct_diags(self, default_config):
        names = ["single_fault", "account", "arithmetic_prog",
                 "circular_buffer", "lazy01", "queue", "sync01", "sync02",
                 "token_ring"]
        for name in names:
            report = localize(parse(bench_source(name)), default_config)
            if report.instrumented is None:
                continue
            domain = report.instrumented.diag_domain
            assert len(report.diagnoses) <= len(domain) + 1
            for d in report.diagnoses:
                assert d.iteration <= len(domain) + 1
            seq_lines = [d.seq_line for d in report.diagnoses]
            assert len(seq_lines) == len(set(seq_lines)), name

    def test_corpus_runs_stay_disciplined(self):
        cfg = VerifierConfig(context_bound=2, loop_bound=3,
                             nondet_domain=(0, 4), deadlock_check=True)
        done = 0
        for seed in range(25):
            p = parse(generate_source(seed, max_threads=2, max_stmts=5))
            report = localize(p, cfg)
            if report.status == "no-counterexample":
                continue
            seq_lines = [d.seq_line for d in report.diagnoses]
            assert len(seq_lines) == len(set(seq_lines))
            if report.instrumented is not None:
                assert len(report.diagnoses) <= \
                    len(report.instrumented.diag_domain) + 1
            done += 1
        assert done >= 5

    def test_found_error_count_matches(self, default_config):
        report = localize(parse(bench_source("account")), default_config)
        assert report.found_error_count == len(report.diagnoses)
        assert report.status == "faults-found"
        assert report.diagnoses


def _reparse_validates(seq, d, witness, config, program=None):
    """validate_diag with the substituted program built by printing and
    parsing the sequential program back, independently of localize. A
    program printed and parsed back already can be passed in; the
    substitution is undone before returning."""
    program = program or parse(pretty_print(seq.program))
    stmt = line_table(program)[d]
    field = "expr" if isinstance(stmt, Assign) else "cond"
    original = getattr(stmt, field)
    setattr(stmt, field, IntLit(witness))
    result = verify(program, replace(config, context_bound=0,
                                     deadlock_check=False))
    setattr(stmt, field, original)
    return result.outcome == "safe-within-bounds" and not result.bound_hit


def _block_and_reverify(program, config):
    """Reference enumeration: verify the diagnosis model, block the diag
    value found, and verify again until the model passes, one run per
    diagnosis. Each run is the uncached search under the model's two
    rules: with a nonzero diag only the final assert(0) counts, and the
    wrap site keeps the value it draws first. Returns (status, diagnosis
    tuples) comparable to localize."""
    first = verify(program, replace(config, deadlock_check=True))
    if first.outcome == "resource-exhausted":
        return "resource-exhausted", []
    if first.outcome == "safe-within-bounds":
        return "no-counterexample", []
    cex = first.counterexample
    seq = sequentialize(program, extract_schedule(cex),
                        cex.violation.kind == "deadlock")
    try:
        instr = instrument(seq)
    except NothingToInstrument:
        return "inconclusive", []
    run_cfg = replace(config, context_bound=0, deadlock_check=False)
    found = []
    for iteration in range(1, len(instr.diag_domain) + 2):
        outcome, _, _, groups, _ = uncached(
            instr.program, run_cfg, group_by=instr.diag_var,
            goal=instr.assert_false_line, fixed=instr.wrap_sites, first=True)
        if outcome == "resource-exhausted":
            return "resource-exhausted", found
        if outcome == "safe-within-bounds":
            break
        ((d, _, choices),) = groups
        if d is None or d not in instr.diag_domain:
            found.append((d or 0, None, None, iteration, False))
            return "inconclusive", found
        site = instr.wrap_sites[d]
        witness = None
        for line, value in choices:
            if line == site:
                witness = value
        validated = witness is not None and _reparse_validates(
            seq, d, witness, config)
        found.append((d, seq.original_line(d), witness, iteration,
                      validated))
        instr = block_diag(instr, d)
    return ("faults-found" if found else "inconclusive"), found


def _localized(program, config):
    report = localize(program, config)
    return report.status, [
        (d.seq_line, d.original_line, d.witness_value, d.iteration,
         d.oracle_validated) for d in report.diagnoses]


class TestOneSearchMatchesBlocking:
    """localize's single grouped search reports what block-and-reverify
    does, iteration numbers and validation included."""

    @pytest.mark.parametrize("path", sorted(BENCH_DIR.glob("*.mc")),
                             ids=lambda p: p.stem)
    def test_ports(self, path, default_config):
        program = parse(path.read_text())
        assert _localized(program, default_config) == \
            _block_and_reverify(program, default_config)

    def test_bign(self, default_config):
        for n in range(5, 13):
            program = parse(bign_source(n))
            status, found = _localized(program, default_config)
            assert status == "faults-found" and len(found) == n + 1, n
            assert (status, found) == \
                _block_and_reverify(program, default_config), n

    def test_random_programs_with_division(self, default_config):
        statuses = set()
        for seed in range(150):
            program = parse(generate_source(seed, with_div=True))
            status, found = _localized(program, default_config)
            assert (status, found) == \
                _block_and_reverify(program, default_config), seed
            statuses.add(status)
        assert statuses == {"faults-found", "inconclusive",
                            "no-counterexample"}


def _family(name):
    """(label, source) of a family of generated programs, or the ports."""
    if name == "ports":
        return [(path.stem, path.read_text())
                for path in sorted(BENCH_DIR.glob("*.mc"))]
    if name == "division":
        return [(seed, generate_source(seed, with_div=True))
                for seed in range(300)]
    if name == "threads3":
        return [(seed, generate_source(seed, max_threads=3))
                for seed in range(150)]
    return [(seed, generate_callee_source(seed)) for seed in range(200)]


class TestOneSearchMatchesTwo:
    """localize's one search reports what the two searches it replaced
    did, kept as oracles.two_search_localize: the diagnosis search over
    the model and the validation over the sequential program. Wherever
    neither runs out, the statuses, diagnoses, witnesses, iterations and
    validation flags are equal."""

    @pytest.mark.parametrize("family", ["ports", "division", "threads3",
                                        "callee"])
    @pytest.mark.parametrize("config", [
        VerifierConfig(), VerifierConfig(context_bound=2, loop_bound=2,
                                         nondet_domain=(-2, 3))],
        ids=["defaults", "narrow"])
    def test_matches_the_two_searches(self, family, config):
        compared = set()
        for label, source in _family(family):
            program = parse(source)
            mine = _localized(program, config)
            theirs = two_search_localize(program, config)
            if "resource-exhausted" in (mine[0], theirs[0]):
                continue
            assert mine == theirs, label
            compared.add(mine[0])
        assert "faults-found" in compared


class TestSearchBudget:
    def test_exhausted_search_keeps_diagnoses_found(self):
        program = parse(bign_source(8))
        full = localize(program, VerifierConfig())
        assert full.status == "faults-found" and len(full.diagnoses) == 9
        # max_states bounds the one diagnosis search as a whole, so it
        # runs out after the first few diag values
        cut = localize(program, VerifierConfig(max_states=150))
        assert cut.status == "resource-exhausted"
        assert 0 < len(cut.diagnoses) < len(full.diagnoses)
        assert cut.diagnoses == full.diagnoses[:len(cut.diagnoses)]
        assert cut.found_error_count == len(cut.diagnoses)


def _sequential_programs(config, sources=None):
    """The sequential programs of the sources, (name, text) pairs, by name;
    by default the ports and randprog seeds 0..59 with division."""
    if sources is None:
        sources = [(path.stem, path.read_text())
                   for path in sorted(BENCH_DIR.glob("*.mc"))]
        sources += [(f"seed{seed}", generate_source(seed, with_div=True))
                    for seed in range(60)]
    for name, source in sources:
        seq = localize(parse(source), config).sequential
        if seq is not None:
            yield name, seq


def _validate_against_reparse(programs, config):
    """Checks one validate_diag call per program and value, with every
    eligible line that takes the value, against _reparse_validates line
    by line, and so the oracle's substitution: the compiled program with
    that line fixed to the value verifies clean. Returns the (line, value)
    pairs checked, those validated and those clean."""
    lo, hi = config.nondet_domain
    seq_cfg = replace(config, context_bound=0, deadlock_check=False)
    pairs = validated = clean = 0
    for name, seq in programs:
        compiled = CompiledProgram(seq.program, site_picks(seq))
        reparsed = parse(pretty_print(seq.program))
        lines = eligible_lines(seq)
        for value in range(lo, hi + 1):
            witnesses = {line: value for line, kind in lines.items()
                         if kind == "assign" or value in (0, 1)}
            if not witnesses:
                continue
            got = validate_diag(compiled, witnesses, config)
            for line in sorted(witnesses):
                want = _reparse_validates(seq, line, value, config, reparsed)
                assert (line in got) == want, (name, line, value)
                fixed = verify(compiled.with_constant(line, value), seq_cfg)
                passes = fixed.outcome == "safe-within-bounds" and \
                    not fixed.bound_hit
                assert passes == want, (name, line, value)
                clean += passes
            pairs += len(witnesses)
            validated += len(got)
    return pairs, validated, clean


class TestWithConstant:
    """Validation substitutes the witness into the compiled sequential
    program; print, parse and substitute in the AST is the reference."""

    def test_matches_reparse_on_every_line_and_value(self, default_config):
        assert _validate_against_reparse(
            _sequential_programs(default_config), default_config) == \
            (1553, 248, 248)

    def test_threads_and_callees_match_reparse(self, default_config):
        programs = _sequential_programs(default_config, [
            (f"threads{seed}", generate_source(seed, max_threads=3))
            for seed in range(60)] + [
            (f"callee{seed}", generate_callee_source(seed))
            for seed in range(20)])
        assert _validate_against_reparse(programs, default_config) == \
            (4871, 182, 182)

    def test_base_program_unchanged(self, seq, sited, default_config):
        before = verify(sited, default_config)
        for line in eligible_lines(seq):
            sited.with_constant(line, 7)
        after = verify(sited, default_config)
        assert after == before
        assert after == verify(seq.program, default_config)

    def test_rejects_other_lines(self, seq, sited):
        table = line_table(seq.program)
        for kind in (Decl, For, Assert):
            line = next(line for line, stmt in table.items()
                        if isinstance(stmt, kind))
            with pytest.raises(ValueError, match=f"line {line} "):
                sited.with_constant(line, 0)
        with pytest.raises(ValueError):
            sited.with_constant(10**6, 0)

    def test_compiles_nothing(self, seq, sited, monkeypatch):
        def refuse(*args):
            raise AssertionError("with_constant compiled")

        monkeypatch.setattr(CompiledProgram, "_compile_stmt", refuse)
        monkeypatch.setattr(CompiledProgram, "_expr", refuse)
        for line in eligible_lines(seq):
            fixed = sited.with_constant(line, 3)
            assert fixed.decision == (line, (3,))
            assert fixed.thread_codes is sited.thread_codes

    def test_oracle_compiles_the_sequential_program_once(
            self, seq, monkeypatch, default_config):
        built = []

        class Counting(CompiledProgram):
            def __init__(self, program, sites=None):
                built.append(program)
                super().__init__(program, sites)

        monkeypatch.setattr(mcfl.verifier, "CompiledProgram", Counting)
        monkeypatch.setattr(mcfl.localizer, "CompiledProgram", Counting)
        assert brute_force_diagnoses(seq, default_config)
        assert len(built) == 1 and built[0] is seq.program

    def test_localize_compiles_the_sequential_program_once(
            self, monkeypatch, default_config):
        built = []

        class Counting(CompiledProgram):
            def __init__(self, program, sites=None):
                built.append((program, sites))
                super().__init__(program, sites)

        monkeypatch.setattr(mcfl.verifier, "CompiledProgram", Counting)
        monkeypatch.setattr(mcfl.localizer, "CompiledProgram", Counting)
        program = parse(bign_source(12))
        report = localize(program, default_config)
        assert len(report.diagnoses) == 13
        # the one search runs the sequential program; the model is only
        # printed
        expected = [program, report.sequential.program]
        assert len(built) == 2
        assert all(a is b for (a, _), b in zip(built, expected))
        # the sequential program is compiled with its sites
        assert not built[0][1]
        assert sorted(built[1][1]) == sorted(site_picks(report.sequential))

    def test_localize_compiles_each_expression_once(
            self, monkeypatch, default_config):
        compiled = []
        real = CompiledProgram._expr

        def counting(self, expr, scope, found):
            compiled.append(expr)
            return real(self, expr, scope, found)

        monkeypatch.setattr(CompiledProgram, "_expr", counting)
        program = parse(bign_source(12))
        report = localize(program, default_config)
        stmts = [stmt for p in (program, report.sequential.program)
                 for fn in (p.main, *p.functions)
                 for stmt in iter_stmts(fn.body.stmts)]
        nodes = [node for stmt in stmts for node in _expr_nodes(stmt)]
        sites = [expr for expr in compiled if isinstance(expr, _Site)]
        assert sorted(site.line for site in sites) == \
            sorted(site_picks(report.sequential))
        want = [*nodes, *sites, *(site.pick for site in sites)]
        # a declaration without initializer compiles a 0 of its own
        known = set(map(id, want))
        zeros = [expr for expr in compiled if id(expr) not in known]
        assert zeros == [IntLit(0)] * sum(
            isinstance(stmt, Decl) and stmt.init is None for stmt in stmts)
        assert Counter(map(id, compiled)) == Counter(map(id, want + zeros))


def _expr_nodes(stmt) -> list[Expr]:
    """The expression nodes that stmt holds, operands included."""
    todo = [value for value in vars(stmt).values() if isinstance(value, Expr)]
    nodes = []
    while todo:
        node = todo.pop()
        nodes.append(node)
        todo += [value for value in vars(node).values()
                 if isinstance(value, Expr)]
    return nodes


PORTS = sorted(path.stem for path in BENCH_DIR.glob("*.mc"))


class TestNoModelPerCall:
    def test_localize_never_builds_the_model(self, monkeypatch,
                                             default_config):
        programs = [parse(bench_source(name)) for name in PORTS]
        assert len(programs) == 9

        def timing_free(report):
            return report_to_json(replace(report, timings={}))

        expected = [timing_free(localize(p, default_config))
                    for p in programs]

        def refuse(seq):
            raise AssertionError("localize built the diagnosis model")

        monkeypatch.setattr(mcfl.localizer, "instrument", refuse)
        reports = [localize(p, default_config) for p in programs]
        assert [timing_free(r) for r in reports] == expected
        monkeypatch.undo()
        for report in reports:
            assert pretty_print(report.instrumented.program) == \
                pretty_print(instrument(report.sequential).program)
            assert report.instrumented is report.instrumented


class TestReportJson:
    def test_round_trip_bytes(self, single_fault_program, default_config):
        report = localize(single_fault_program, default_config)
        text = report_to_json(report)
        loaded = report_from_json(text)
        assert report_to_json(loaded) == text
        assert loaded.status == report.status
        assert loaded.diagnoses == report.diagnoses

    def test_documented_example_round_trips(self):
        text = doc_example("report")
        assert json.loads(report_to_json(report_from_json(text))) == \
            json.loads(text)

    def test_reader_ignores_keys_that_are_no_fields(self):
        text = doc_example("report")
        doc = json.loads(text)
        doc["diagnoses"][0]["comment"] = "extra"
        assert report_from_json(json.dumps(doc)) == report_from_json(text)


# a thread zeroes y between main's y = 1 and its division; y = 2 both
# avoids the division by zero and makes x == 5
DIVISION_PROBE = """int x = 0;
int y = 0;
pthread_t h;
void w() {
  y = 0;
}
int main() {
  pthread_create(h, w);
  y = 1;
  x = 10 / y;
  assert(x == 5);
}
"""


def _sound(report, config) -> bool:
    """Every diagnosis is validated and in the brute-force oracle's set."""
    lines = {line for line, _ in brute_force_diagnoses(report.sequential,
                                                        config)}
    return all(d.oracle_validated and d.seq_line in lines
               for d in report.diagnoses)


class TestOneGoalOneWitness:
    """A diagnosis is a value that lets the model reach its final
    assert(0), kept on every run of the line: a witness that only moves
    the failure elsewhere, such as to a division by zero, is none."""

    def test_division_probe(self, default_config):
        report = localize(parse(DIVISION_PROBE), default_config)
        assert report.status == "faults-found"
        assert [(d.original_line, d.witness_value, d.oracle_validated)
                for d in report.diagnoses] == [(6, 2, True), (7, 5, True)]
        assert _sound(report, default_config)

    @pytest.mark.parametrize("seed", [11, 75, 97, 135, 170, 220, 240])
    def test_division_seeds_are_sound(self, seed, default_config):
        report = localize(parse(generate_source(seed, with_div=True)),
                          default_config)
        assert report.status == "faults-found"
        assert _sound(report, default_config)

    @pytest.mark.parametrize("family", ["division", "threads3"])
    def test_faults_found_reports_are_sound(self, family, default_config):
        found = 0
        for seed, source in _family(family):
            report = localize(parse(source), default_config)
            if report.status == "faults-found":
                assert _sound(report, default_config), seed
                found += 1
        assert found > 20
