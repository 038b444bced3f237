"""Rewrite rules, unwinding, framework shape and order control."""

import pytest

from mcfl.localizer import localize
from mcfl.parser import parse
from mcfl.sequentializer import (
    RuleGapError,
    Schedule,
    Segment,
    apply_pthread_rules,
    build_skeleton,
    inject_order_control,
    pthread_free,
    sequentialize,
    unwind_calls,
)
from mcfl.syntax import (
    Assign,
    Block,
    CaseLabel,
    CondAttrDecl,
    CondDecl,
    CondInit,
    CondSignal,
    CondWait,
    Decl,
    If,
    IntLit,
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
    pretty_print,
    program_stmts,
)
from mcfl.verifier import (
    VerifierConfig,
    Violation,
    extract_schedule,
    first_path,
    verify,
)

from randprog import generate_source


def _fmt(stmts):
    out = []
    for s in stmts:
        from mcfl.syntax import _format_stmt

        _format_stmt(s, 0, out)
    return out


RULE_TABLE = [
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


class TestPthreadRules:
    @pytest.mark.parametrize("stmt,plain,deadlocked", RULE_TABLE,
                             ids=lambda v: type(v).__name__
                             if not isinstance(v, list) else None)
    def test_rule_rows(self, stmt, plain, deadlocked):
        assert _fmt(apply_pthread_rules(stmt, deadlock=False)) == plain
        assert _fmt(apply_pthread_rules(stmt, deadlock=True)) == deadlocked

    def test_rule_count_covers_thirteen_rows(self):
        assert len(RULE_TABLE) == 13

    def test_plain_statements_unchanged(self):
        for stmt in (Decl("x", IntLit(1)), Assign("x", IntLit(2)),
                     If(IntLit(1), Block([]))):
            for flag in (False, True):
                assert apply_pthread_rules(stmt, flag) == [stmt]

    def test_rule_gap_for_framework_statements(self):
        with pytest.raises(RuleGapError):
            apply_pthread_rules(Switch(IntLit(1), Block([])), False)


FIG_CALL = """int a = 0;
int i = 0;

int f(int m) {
  int b;
  b = m;
  return m;
}

int main() {
  i = f(a);
}
"""

FIG_UNWOUND = """int a = 0;
int i = 0;

int main() {
  {
    int m = a;
    int b;
    b = m;
    i = m;
  }
}
"""


class TestUnwindCalls:
    def test_call_becomes_block(self):
        out = unwind_calls(parse(FIG_CALL))
        assert pretty_print(out) == FIG_UNWOUND

    def test_observational_equality(self):
        # replacing the call by its inlined body must not change any final
        # state; checked exhaustively over small initial values
        cfg = VerifierConfig()
        for value in range(-8, 9):
            src = FIG_CALL.replace("int a = 0;", f"int a = {value};")
            before = first_path(parse(src), cfg)[2]
            after = first_path(unwind_calls(parse(src)), cfg)[2]
            for var in ("a", "i"):
                assert before[var] == after[var], value

    def test_constant_function(self):
        src = """int i = 0;
int zero() {
  return 0;
}
int main() {
  i = zero();
}
"""
        out = unwind_calls(parse(src))
        body = out.main.body.stmts
        assert isinstance(body[0], Block)
        assert _fmt(body[0].stmts) == ["i = 0;"]

    def test_two_calls_renamed_apart(self):
        src = """int i = 0;
int j = 0;
int f(int m) {
  int b;
  b = m;
  return m;
}
int main() {
  i = f(1);
  j = f(2);
}
"""
        out = unwind_calls(parse(src))
        text = pretty_print(out)
        reparsed = parse(text)  # unique locals or the parser rejects
        decls = [s.name for s in program_stmts(reparsed)
                 if isinstance(s, Decl)]
        assert len(decls) == len(set(decls))

    def test_nested_calls(self):
        src = """int r = 0;
int inner(int x) {
  return x + 1;
}
int outer(int y) {
  int t;
  t = inner(y);
  return t * 2;
}
int main() {
  r = outer(3);
}
"""
        out = unwind_calls(parse(src))
        assert first_path(out, VerifierConfig())[2]["r"] == 8


def _one_segment_schedule(program) -> Schedule:
    lines = sorted(line_table(program))
    return Schedule(
        segments=[Segment(0, lines[0], lines[-1], {}, 11)],
        order_tags=[11],
        per_thread_counts={},
    )


# a plain race on the global cnt: main's update and the thread's are both
# repairs
RACE = """int cnt = 0;
pthread_t h;
void t() { cnt = cnt + 1; }
int main() {
  pthread_create(h, t);
  cnt = cnt + 2;
  pthread_join(h);
  assert(cnt != 3);
}
"""


class TestSequentialize:
    @pytest.mark.parametrize("name", ["order", "order_index"])
    def test_dispatch_names_avoid_user_globals(self, name):
        config = VerifierConfig()

        def diagnoses(program):
            report = localize(program, config)
            return report.status, [
                (d.original_line, d.witness_value, d.oracle_validated)
                for d in report.diagnoses]

        p = parse(RACE.replace("cnt", name))
        cex = verify(p, config).counterexample
        text = pretty_print(
            sequentialize(p, extract_schedule(cex), False).program)
        assert pretty_print(parse(text)) == text
        assert diagnoses(p) == diagnoses(parse(RACE))
        assert diagnoses(p)[0] == "faults-found"

    def test_trivial_single_thread_wrap(self):
        p = parse("int x = 0;\nint main(){ x = 1; assert(x == 1); "
                  "return 0; }")
        result = verify(p, VerifierConfig())
        assert result.outcome == "safe-within-bounds"
        seq = sequentialize(p, _one_segment_schedule(p), False)
        text = pretty_print(seq.program)
        assert "int order[1] = {11};" in text
        assert "case 1:" in text and "case 11:" in text
        assert "switch (order[order_index])" in text
        assert "order_index < 1" in text

    def test_three_thread_order(self, default_config):
        src = """pthread_mutex_t m;
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
        p = parse(src)
        result = verify(p, VerifierConfig(context_bound=2,
                                          deadlock_check=True))
        sched = extract_schedule(result.counterexample)
        assert sched.order_tags == [11, 31, 21]
        seq = sequentialize(p, sched, False)
        order = next(s for s in seq.program.globals
                     if getattr(s, "name", "") == "order")
        assert order.values == [11, 31, 21]
        labels = [s.value for s in program_stmts(seq.program)
                  if isinstance(s, CaseLabel)]
        assert {1, 2, 3}.issubset(labels)
        # replay enters the outer cases as 1, 3, 2
        seq_result = verify(seq.program, VerifierConfig(context_bound=0))
        sw_lines = {ln for ln, st in line_table(seq.program).items()
                    if isinstance(st, Switch)}
        visits = [sched.order_tags[s.valuation["order_index"]] // 10
                  for s in seq_result.counterexample.steps
                  if s.line in sw_lines]
        assert visits == [1, 3, 2]

    def test_deadlock_rules_model_mutexes(self, default_config):
        src = (__import__("conftest").bench_source("sync02"))
        p = parse(src)
        result = verify(p, VerifierConfig(context_bound=4,
                                          deadlock_check=True))
        assert result.counterexample.violation.kind == "deadlock"
        sched = extract_schedule(result.counterexample)
        seq = sequentialize(p, sched, True)
        assert pthread_free(seq.program)
        names = {s.name for s in seq.program.globals
                 if isinstance(s, Decl)}
        assert {"m", "full"}.issubset(names)
        text = pretty_print(seq.program)
        assert "int m = 0;" in text
        assert "full = 1;" in text  # the modelled wait

    def test_purge_completeness_on_corpus(self):
        cfg = VerifierConfig(context_bound=2, loop_bound=3,
                             nondet_domain=(0, 1), deadlock_check=True)
        done = 0
        for seed in range(60):
            p = parse(generate_source(seed))
            result = verify(p, cfg)
            if result.outcome != "violation":
                continue
            deadlock = result.counterexample.violation.kind == "deadlock"
            seq = sequentialize(p, extract_schedule(result.counterexample),
                                deadlock)
            assert pthread_free(seq.program)
            done += 1
        assert done >= 5

    def test_placement_conformance(self, default_config):
        from mcfl.syntax import iter_stmts

        src = __import__("conftest").bench_source("account")
        p = parse(src)
        result = verify(p, default_config)
        sched = extract_schedule(result.counterexample)
        seq = sequentialize(p, sched, False)
        assert seq.program.functions == []
        # which thread owns each original body line
        owners: dict[int, int] = {}
        for ordinal, fn in [(0, p.main)] + [
                (td.ordinal, next(f for f in p.functions
                                  if f.name == td.function))
                for td in p.threads]:
            for s in iter_stmts(fn.body.stmts):
                owners[s.line] = ordinal
        # each image must sit in the case group of its owner
        switch = next(s for s in program_stmts(seq.program)
                      if isinstance(s, Switch))
        current = None
        placed: dict[int, int] = {}
        for stmt in switch.body.stmts:
            if isinstance(stmt, CaseLabel) and stmt.value < 10:
                current = stmt.value
            for inner in iter_stmts([stmt]):
                entry = seq.line_map.get(inner.line)
                if entry is not None and entry.kind == "original" \
                        and entry.value in owners:
                    placed[entry.value] = current
        assert placed  # images of thread code exist
        for line, case in placed.items():
            assert case == owners[line] + 1, (line, case)

    def test_line_map_is_total(self, single_fault_program, default_config):
        result = verify(single_fault_program, default_config)
        seq = sequentialize(single_fault_program,
                            extract_schedule(result.counterexample), False)
        seq_lines = {s.line for s in program_stmts(seq.program)}
        assert set(seq.line_map) == seq_lines
        orig_lines = set(line_table(single_fault_program))
        for entry in seq.line_map.values():
            if entry.kind == "original":
                assert entry.value in orig_lines

    def test_unwound_copy_maps_to_callee_line(self):
        src = """int x = 0;
pthread_t h;
int f(int m) {
  int t = m + x;
  assert(t != 3);
  return t;
}
void w() {
  x = 2;
}
int main() {
  pthread_create(h, w);
  x = f(1);
  return 0;
}
"""
        p = parse(src)
        result = verify(p, VerifierConfig(context_bound=2))
        cex = result.counterexample
        assert cex.violation == Violation("assertion", 4)
        seq = sequentialize(p, extract_schedule(cex), False)
        seq_result = verify(seq.program, VerifierConfig(context_bound=0))
        seq_line = seq_result.counterexample.violation.line
        assert seq.line_map[seq_line].value == "unwind-copy"
        assert seq.original_line(seq_line) == cex.violation.line


class TestOrderControl:
    def test_single_segment_has_no_guards(self, single_fault_program,
                                          default_config):
        result = verify(single_fault_program, default_config)
        seq = sequentialize(single_fault_program,
                            extract_schedule(result.counterexample), False)
        reasons = {e.value for e in seq.line_map.values()
                   if e.kind == "synthetic"}
        assert "order-control" not in reasons

    def test_skeleton_then_injection(self, default_config):
        src = """int x = 0;
pthread_t h;
void w() { x = x + 1; }
int main() {
  pthread_create(h, w);
  pthread_join(h);
  assert(x == 0);
  return 0;
}
"""
        p = parse(src)
        result = verify(p, default_config)
        sched = extract_schedule(result.counterexample)
        skeleton = build_skeleton(p, sched, False)
        before = pretty_print(skeleton.program)
        assert "order[order_index] == 11" not in before
        seq = inject_order_control(skeleton, sched)
        after = pretty_print(seq.program)
        assert "if (order[order_index] == 11)" in after
        assert "case 12:" in after

    def test_guard_fires_after_switch_line(self, default_config):
        # thread 1 is preempted right after its first statement; the guard
        # for tag 21 must sit after that statement's image
        src = """int x = 0;
int y = 0;
pthread_t h;
void w() {
  x = 1;
  y = 1;
}
int main() {
  pthread_create(h, w);
  x = 2;
  assert(x + y == 1);
  return 0;
}
"""
        p = parse(src)
        result = verify(p, VerifierConfig(context_bound=3,
                                          deadlock_check=True))
        assert result.outcome == "violation"
        sched = extract_schedule(result.counterexample)
        seq = sequentialize(p, sched, False)
        seq_result = verify(seq.program, VerifierConfig(context_bound=0))
        assert seq_result.outcome == "violation"
        assert seq.original_line(
            seq_result.counterexample.violation.line) == \
            result.counterexample.violation.line
        shared = {"x", "y"}
        conc = result.counterexample.final_valuation
        sequ = seq_result.counterexample.final_valuation
        assert {v: conc[v] for v in shared} == {v: sequ[v] for v in shared}

    def test_mid_loop_switch_uses_loopcounter(self):
        src = """int x = 0;
pthread_t t1;
void observer() {
  assert(x != 2);
}
int main() {
  int i;
  pthread_create(t1, observer);
  i = 0;
  while (i < 3) {
    x = x + 1;
    i = i + 1;
  }
}
"""
        p = parse(src)
        cfg = VerifierConfig(context_bound=2, loop_bound=4,
                             deadlock_check=True)
        result = verify(p, cfg)
        assert result.outcome == "violation"
        sched = extract_schedule(result.counterexample)
        seq = sequentialize(p, sched, False)
        text = pretty_print(seq.program)
        assert "loopcounter_1 == 2" in text
        assert "loopcounter_1 = loopcounter_1 + 1;" in text
        seq_result = verify(seq.program,
                            VerifierConfig(context_bound=0, loop_bound=4))
        assert seq_result.outcome == "violation"
        assert seq_result.counterexample.final_valuation["x"] == 2
        assert seq.original_line(
            seq_result.counterexample.violation.line) == 3


HANDSHAKE = """int done = 0;
pthread_mutex_t m;
pthread_cond_t c;
pthread_t w;
void waiter() {
  pthread_mutex_lock(m);
  pthread_cond_wait(c, m);
  done = done + 1;
  pthread_mutex_unlock(m);
}
int main() {
  pthread_create(w, waiter);
  pthread_cond_signal(c);
  pthread_join(w);
  assert(done == 2);
}
"""


class TestWaitResume:
    def _cex(self):
        p = parse(HANDSHAKE)
        result = verify(p, VerifierConfig(context_bound=4,
                                          deadlock_check=True))
        assert result.outcome == "violation"
        assert result.counterexample.violation.kind == "assertion"
        assert result.counterexample.wait_resume_steps
        return p, result.counterexample

    def test_resume_boundary_without_lock_model(self):
        p, cex = self._cex()
        seq = sequentialize(p, extract_schedule(cex), False)
        replayed = verify(seq.program, VerifierConfig(context_bound=0))
        assert replayed.outcome == "violation"
        assert seq.original_line(
            replayed.counterexample.violation.line) == \
            cex.violation.line
        assert replayed.counterexample.final_valuation["done"] == \
            cex.final_valuation["done"]

    def test_resume_boundary_with_lock_model(self):
        # same schedule, integer lock modelling: the wait image is a real
        # assignment, so the segment boundary sits right after it
        p, cex = self._cex()
        seq = sequentialize(p, extract_schedule(cex), True)
        text = pretty_print(seq.program)
        assert "c = 1;" in text and "c = 0;" in text
        replayed = verify(seq.program, VerifierConfig(context_bound=0))
        assert replayed.outcome == "violation"
        assert replayed.counterexample.final_valuation["done"] == \
            cex.final_valuation["done"]


class TestEarlyThreadExit:
    def test_exit_guard_prevents_overshoot(self):
        src = """int x = 0;
pthread_t h;
void w() {
  x = 1;
  pthread_exit();
  x = 2;
}
int main() {
  pthread_create(h, w);
  pthread_join(h);
  assert(x == 2);
  return 0;
}
"""
        p = parse(src)
        result = verify(p, VerifierConfig(context_bound=4,
                                          deadlock_check=True))
        assert result.outcome == "violation"
        assert result.counterexample.final_valuation["x"] == 1
        seq = sequentialize(p, extract_schedule(result.counterexample),
                            False)
        replayed = verify(seq.program, VerifierConfig(context_bound=0))
        assert replayed.outcome == "violation"
        # the statement after the erased exit must not run
        assert replayed.counterexample.final_valuation["x"] == 1
