"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass line."""

import time

from mcfl.localizer import brute_force_diagnoses, localize
from mcfl.parser import parse
from mcfl.sequentializer import (
    apply_pthread_rules,
    extract_schedule,
    sequentialize,
    unwind_calls,
)
from mcfl.syntax import (
    CondAttrDecl,
    CondDecl,
    CondInit,
    CondSignal,
    CondWait,
    MutexDecl,
    MutexLock,
    MutexUnlock,
    Switch,
    ThreadAttrDecl,
    ThreadCreate,
    ThreadDecl,
    ThreadExit,
    ThreadJoin,
    line_table,
)
from mcfl.verifier import (
    VerifierConfig,
    first_path,
    verify,
)

from conftest import BENCH_DIR, bench_source
from oracles import naive_violates
from randprog import generate_source


def _passed(text: str) -> None:
    print(f"\nACCEPTANCE PASS: {text}")


# -- 1. single-fault reproduction -------------------------------------------


def test_criterion_1_single_fault_reproduction():
    """Localizing the bundled single-fault program yields exactly the two
    known repairable lines within two blocking iterations and 5 seconds."""
    program = parse(bench_source("single_fault"))
    config = VerifierConfig(context_bound=4, loop_bound=3,
                            nondet_domain=(0, 8))
    started = time.perf_counter()
    report = localize(program, config)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert report.status == "faults-found"
    # port line 4 is the branch head, port line 7 the miswritten operand
    assert sorted(d.original_line for d in report.diagnoses) == [4, 7]
    assert max(d.iteration for d in report.diagnoses) <= 2
    assert all(d.oracle_validated for d in report.diagnoses)
    _passed(f"criterion 1: diagnoses at lines 4 and 7 in "
            f"{max(d.iteration for d in report.diagnoses)} iterations, "
            f"{elapsed:.2f}s")


# -- 2. replay equivalence ---------------------------------------------------


def test_criterion_2_replay_equivalence():
    """200 randomly generated violating concurrent programs: the
    sequentialized program reproduces violation kind, mapped line and final
    shared valuation. Deadlock counterexamples are excluded: the rewrite
    rules replace locks by plain integers, so no sequential program can
    deadlock by construction."""
    config = VerifierConfig(context_bound=2, loop_bound=3,
                            nondet_domain=(0, 1), deadlock_check=True)
    seq_config = VerifierConfig(context_bound=0, loop_bound=3,
                                nondet_domain=(0, 1))
    checked = 0
    seed = 0
    failures = []
    while checked < 200:
        seed += 1
        assert seed < 5000, "generator did not produce enough programs"
        source = generate_source(seed, max_threads=3, max_stmts=8,
                                 shared_vars=2, with_div=True)
        program = parse(source)
        result = verify(program, config)
        if result.outcome != "violation":
            continue
        cex = result.counterexample
        if cex.violation.kind == "deadlock":
            continue
        checked += 1
        shared = [s.name for s in program.globals
                  if type(s).__name__ == "Decl"]
        seq = sequentialize(program, extract_schedule(cex), False)
        seq_result = verify(seq.program, seq_config)
        ok = seq_result.outcome == "violation"
        if ok:
            seq_cex = seq_result.counterexample
            ok &= seq_cex.violation.kind == cex.violation.kind
            ok &= seq.original_line(seq_cex.violation.line) == \
                cex.violation.line
            conc = cex.final_valuation
            sequ = seq_cex.final_valuation
            ok &= all(conc.get(v) == sequ.get(v) for v in shared)
        if not ok:
            failures.append(seed)
    assert failures == [], f"replay mismatches for seeds {failures}"
    _passed("criterion 2: 200/200 sequentialized programs reproduce kind, "
            "line and valuation")


# -- 3. order-array conformance ----------------------------------------------


def test_criterion_3_order_array_conformance():
    """A trace visiting main, thread 2, thread 1 yields order [11, 31, 21]
    and the replay enters the outer cases as 1, 3, 2."""
    source = """pthread_mutex_t m;
pthread_t t1;
pthread_t t2;
int progress = 0;
void waiter() {
  pthread_mutex_lock(m);
  assert(progress == 0);
}
void helper() {
  progress = progress + 1;
  pthread_mutex_unlock(m);
}
int main() {
  pthread_mutex_lock(m);
  pthread_create(t1, waiter);
  pthread_create(t2, helper);
}
"""
    program = parse(source)
    result = verify(program, VerifierConfig(context_bound=2,
                                            deadlock_check=True))
    schedule = extract_schedule(result.counterexample)
    assert schedule.order_tags == [11, 31, 21]
    seq = sequentialize(program, schedule, False)
    order = next(s for s in seq.program.globals
                 if getattr(s, "name", "") == "order")
    assert order.values == [11, 31, 21]
    replayed = verify(seq.program, VerifierConfig(context_bound=0))
    switch_lines = {ln for ln, st in line_table(seq.program).items()
                    if isinstance(st, Switch)}
    visits = [schedule.order_tags[s.valuation["order_index"]] // 10
              for s in replayed.counterexample.steps
              if s.line in switch_lines]
    assert visits == [1, 3, 2]
    _passed("criterion 3: order array [11, 31, 21], outer cases visited "
            "1, 3, 2")


# -- 4. rewrite-rule coverage -------------------------------------------------


def test_criterion_4_rule_table_coverage():
    """All 13 threading-statement rewrites, under both flags, exactly."""
    def fmt(stmts):
        out = []
        for s in stmts:
            from mcfl.syntax import _format_stmt

            _format_stmt(s, 0, out)
        return out

    table = [
        (ThreadDecl("t"), [], []),
        (ThreadAttrDecl("attr"), [], []),
        (CondAttrDecl("cattr"), [], []),
        (ThreadCreate("t", "w"), [], []),
        (ThreadJoin("t"), [], []),
        (ThreadExit(), [], []),
        (MutexDecl("m"), [], ["int m = 0;"]),
        (MutexLock("m"), [], ["m = 1;"]),
        (MutexUnlock("m"), [], ["m = 0;"]),
        (CondDecl("c"), [], ["int c;"]),
        (CondInit("c"), [], ["c = 0;"]),
        (CondWait("c", "m"), [], ["c = 1;"]),
        (CondSignal("c"), [], ["c = 0;"]),
    ]
    assert len(table) == 13
    for stmt, plain, deadlocked in table:
        assert fmt(apply_pthread_rules(stmt, False)) == plain, stmt
        assert fmt(apply_pthread_rules(stmt, True)) == deadlocked, stmt
    _passed("criterion 4: 13 rewrite rows x 2 flags all exact")


# -- 5. call unwinding ---------------------------------------------------------


def test_criterion_5_unwinding_observational_equality():
    """The inlined form of a called function matches the expected block and
    computes identical final states for every input in -8..8."""
    template = """int a = {value};
int i = 0;

int f(int m) {{
  int b;
  b = m;
  return m;
}}

int main() {{
  i = f(a);
}}
"""
    expected_block = ["{", "  int m = a;", "  int b;", "  b = m;",
                      "  i = m;", "}"]
    config = VerifierConfig()
    unwound = unwind_calls(parse(template.format(value=0)))
    from mcfl.syntax import _format_stmt

    lines: list[str] = []
    _format_stmt(unwound.main.body.stmts[0], 0, lines)
    assert lines == expected_block
    for value in range(-8, 9):
        original = parse(template.format(value=value))
        transformed = unwind_calls(original)
        before = first_path(original, config)[2]
        after = first_path(transformed, config)[2]
        assert (before["a"], before["i"]) == (after["a"], after["i"]), value
    _passed("criterion 5: inlined block exact; final valuations equal for "
            "all 17 inputs")


# -- 6. benchmark-port sweep ---------------------------------------------------


def test_criterion_6_benchmark_port_sweep():
    """account, arithmetic_prog, circular_buffer, lazy01, queue and sync02
    localize with every diagnosis validated; sync01 and token_ring come out
    inconclusive; found counts match the brute-force oracle; the sweep
    stays under two minutes."""
    config = VerifierConfig(context_bound=4, loop_bound=3,
                            nondet_domain=(0, 8))
    useful = ["account", "arithmetic_prog", "circular_buffer", "lazy01",
              "queue", "sync02"]
    unexplained = ["sync01", "token_ring"]
    started = time.perf_counter()
    summary = []
    for name in useful:
        report = localize(parse(bench_source(name)), config)
        assert report.status == "faults-found", name
        assert report.diagnoses, name
        assert all(d.oracle_validated for d in report.diagnoses), name
        oracle = brute_force_diagnoses(report.sequential, config)
        assert report.found_error_count == len(oracle), name
        summary.append(f"{name} FE={report.found_error_count}")
    for name in unexplained:
        report = localize(parse(bench_source(name)), config)
        assert report.status == "inconclusive", name
        assert report.diagnoses[0].seq_line == 0, name
        summary.append(f"{name} inconclusive")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    _passed(f"criterion 6: {'; '.join(summary)} in {elapsed:.1f}s")


# -- 7. verifier oracle equivalence --------------------------------------------


def test_criterion_7_verifier_oracle_equivalence():
    """The engine and a naive enumerate-everything oracle agree on
    safe/violation over the whole generated corpus."""
    config = VerifierConfig(context_bound=2, loop_bound=2,
                            nondet_domain=(0, 2), deadlock_check=True,
                            max_states=500_000)
    disagreements = []
    total = 0
    for seed in range(150):
        source = generate_source(seed, max_threads=2, max_stmts=6,
                                 shared_vars=2)
        program = parse(source)
        total += 1
        mine = verify(program, config).outcome == "violation"
        theirs = naive_violates(program, config)
        if mine != theirs:
            disagreements.append(seed)
    assert disagreements == [], disagreements
    _passed(f"criterion 7: engine agrees with the brute-force oracle on "
            f"{total}/{total} programs")


# -- 8. termination and monotonicity -------------------------------------------


def test_criterion_8_termination_and_monotonicity():
    """No localization run exceeds its diag-domain budget and no diag value
    repeats, across the bundled ports and the random corpus."""
    config = VerifierConfig(context_bound=4, loop_bound=3,
                            nondet_domain=(0, 8))
    runs = 0
    for path in sorted(BENCH_DIR.glob("*.mc")):
        report = localize(parse(path.read_text()), config)
        seq_lines = [d.seq_line for d in report.diagnoses]
        assert len(seq_lines) == len(set(seq_lines)), path.stem
        if report.instrumented is not None:
            assert len(report.diagnoses) <= \
                len(report.instrumented.diag_domain) + 1, path.stem
        runs += 1
    corpus_config = VerifierConfig(context_bound=2, loop_bound=3,
                                   nondet_domain=(0, 2),
                                   deadlock_check=True)
    for seed in range(40):
        program = parse(generate_source(seed, max_threads=2, max_stmts=6))
        report = localize(program, corpus_config)
        seq_lines = [d.seq_line for d in report.diagnoses]
        assert len(seq_lines) == len(set(seq_lines)), seed
        if report.instrumented is not None:
            assert len(report.diagnoses) <= \
                len(report.instrumented.diag_domain) + 1, seed
        runs += 1
    _passed(f"criterion 8: {runs} localization runs, all within budget, "
            "no repeated diag values")
