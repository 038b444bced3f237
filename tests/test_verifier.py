"""Bounded exploration, replay and schedule extraction."""

import json
import random
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest

import mcfl.localizer
from mcfl.instrumenter import NothingToInstrument, instrument, site_picks
from mcfl.localizer import localize
from mcfl.parser import parse
from mcfl.sequentializer import (
    Segment,
    UnsupportedScheduleError,
    extract_schedule,
    sequentialize,
    unwind_calls,
)
from mcfl.syntax import (
    ArrayDecl,
    Assign,
    Binary,
    CallAssign,
    Expr,
    If,
    Index,
    IntLit,
    MutexLock,
    Nondet,
    Stmt,
    Var,
    While,
    iter_stmts,
    renumber,
)
from mcfl.verifier import (
    CompiledProgram,
    ContextSwitchRecord,
    Counterexample,
    ModelError,
    TraceMismatch,
    TraceStep,
    VerifierConfig,
    Violation,
    _build_counterexample,
    _Ctx,
    _DivByZero,
    _explore,
    _Machine,
    _Site,
    _SiteSearch,
    _successors,
    _unlink,
    counterexample_from_json,
    counterexample_to_json,
    first_path,
    replay,
    verify,
)

from conftest import BENCH_DIR, bign_source, doc_example
from oracles import LazySites, naive_violates, reference_eval, uncached
from randprog import generate_callee_source, generate_source

ABBA = """pthread_mutex_t ma;
pthread_mutex_t mb;
pthread_t t1;
pthread_t t2;
void fwd() {
  pthread_mutex_lock(ma);
  pthread_mutex_lock(mb);
  pthread_mutex_unlock(mb);
  pthread_mutex_unlock(ma);
}
void rev() {
  pthread_mutex_lock(mb);
  pthread_mutex_lock(ma);
  pthread_mutex_unlock(ma);
  pthread_mutex_unlock(mb);
}
int main() {
  pthread_create(t1, fwd);
  pthread_create(t2, rev);
}
"""


class TestVerify:
    def test_tautology_is_safe(self, default_config):
        p = parse("int main(){ assert(1 == 1); return 0; }")
        assert verify(p, default_config).outcome == "safe-within-bounds"

    def test_single_fault_port_violates(self, single_fault_program,
                                        default_config):
        result = verify(single_fault_program, default_config)
        assert result.outcome == "violation"
        violation = result.counterexample.violation
        assert violation.kind == "assertion"
        # hand-run: the branch is taken with a = 1, so the sum check
        # compares 30 against 9 and fails at the assertion statement
        assert violation.line == 11
        assert result.counterexample.final_valuation["main_c"
            if "main_c" in result.counterexample.final_valuation
            else "c"] == 30

    def test_local_handles_and_cond_init_are_steps(self, default_config):
        src = """int x = 0;
void worker() {
  x = x + 1;
}
int main() {
  pthread_t t;
  pthread_attr_t a;
  pthread_cond_attr_t ca;
  pthread_mutex_t m;
  pthread_cond_t c;
  pthread_cond_init(c);
  pthread_create(t, worker);
  pthread_mutex_lock(m);
  x = x + 2;
  pthread_mutex_unlock(m);
  pthread_join(t);
  assert(x != 3);
}
"""
        p = parse(src)
        result = verify(p, default_config)
        assert result.outcome == "violation"
        assert naive_violates(p, default_config) is True
        cex = result.counterexample
        assert cex.violation.line == 14
        # each declaration and the initialization is one step of main
        assert [(s.thread, s.line) for s in cex.steps[:6]] == \
            [(0, line) for line in range(3, 9)]

    def test_abba_deadlock_matches_brute_force(self):
        p = parse(ABBA)
        cfg = VerifierConfig(context_bound=2, deadlock_check=True)
        result = verify(p, cfg)
        assert naive_violates(p, cfg) is True
        assert result.outcome == "violation"
        assert result.counterexample.violation == Violation(
            "deadlock", None, (1, 2))

    def test_abba_without_deadlock_check_is_safe(self):
        p = parse(ABBA)
        cfg = VerifierConfig(context_bound=2, deadlock_check=False)
        assert verify(p, cfg).outcome == "safe-within-bounds"

    def test_division_by_zero(self, default_config):
        p = parse("int y = 0;\nint main(){ int x; x = 4 / y; return 0; }")
        result = verify(p, default_config)
        assert result.counterexample.violation.kind == "division-by-zero"

    def test_resource_exhaustion(self, single_fault_program):
        cfg = VerifierConfig(max_states=3)
        assert verify(single_fault_program, cfg).outcome == \
            "resource-exhausted"

    def test_loop_bound_hit_is_flagged_safe(self):
        p = parse("int x = 0;\nint main(){ while (x < 10) "
                  "{ x = x + 1; } return 0; }")
        result = verify(p, VerifierConfig(loop_bound=3))
        assert result.outcome == "safe-within-bounds"
        assert result.bound_hit is True

    def test_determinism(self, single_fault_program, default_config):
        a = verify(single_fault_program, default_config)
        b = verify(single_fault_program, default_config)
        assert a.counterexample == b.counterexample

    def test_violation_reports_states_expanded(self, single_fault_program,
                                               default_config):
        a = verify(single_fault_program, default_config)
        b = verify(single_fault_program, default_config)
        assert a.outcome == "violation"
        assert a.states > 0
        assert a.states == b.states

    def test_wraparound_arithmetic(self):
        p = parse("int big = 9223372036854775807;\n"
                  "int main(){ int x; x = big + 1; "
                  "assert(x < 0); return 0; }")
        assert verify(p, VerifierConfig()).outcome == "safe-within-bounds"


# a pick of line 3 makes v 0, 1 or 2 and one of line 5 makes w 0, 1 or 2;
# the unchanged path (v = w = 0) fails the second assume, and w = 1 the
# assertion
SITES = """int main() {
  int v;
  int w;
  v = 0;
  assume(v != 1);
  w = 0;
  assume(v + w > 0);
  assert(w != 1);
}
"""
SITE_PICKS = {3: Nondet(0, 2), 5: Nondet(0, 2)}


# y is the first nondet draw (line 3 of each program), so each violation
# names the value it needs
IF_ELSE = """int x = 0;
int y = 0;
int main() {
  y = nondet();
  if (y == 1) {
    x = 2;
  } else {
    x = 3;
  }
  assert(x != 3);
}
"""

UNARY = """int x = 0;
int y = 0;
int main() {
  y = nondet();
  x = -y;
  assert(!(x == -2));
}
"""

SWITCH_DEFAULT = """int x = 0;
int y = 0;
int main() {
  y = nondet();
  switch (y) {
    case 0:
      x = 1;
      break;
    case 1:
      x = 2;
      break;
    default:
      x = 5;
  }
  assert(x != 5);
}
"""

SWITCH_NO_MATCH = """int x = 0;
int y = 0;
int main() {
  y = nondet();
  switch (y) {
    case 0:
      x = 1;
      break;
    case 1:
      x = 2;
      break;
  }
  assert(x != 0);
}
"""

# a thread that negates, branches on a ternary and calls a callee that
# calls another, against main's if-else and switch
MIXED_THREADS = """int x = 0;
int y = 0;
pthread_t h;
int inc(int a) {
  return a + 1;
}
int twice(int a) {
  int b = 0;
  b = inc(a);
  b = inc(b);
  return b;
}
void w() {
  y = -x;
  x = twice(y);
  x = y < 0 ? x : !y;
}
int main() {
  pthread_create(h, w);
  x = nondet(0, 2);
  if (x == 1) {
    y = 2;
  } else {
    y = twice(y);
  }
  switch (x) {
    case 0:
      x = 3;
      break;
    default:
      x = x + 1;
  }
  assert(x + y != 5);
}
"""


class TestSemantics:
    """Fixed outcomes, since the naive explorer shares the evaluator."""

    @pytest.mark.parametrize("source,line,choice", [
        (IF_ELSE, 7, 0), (UNARY, 5, 2), (SWITCH_DEFAULT, 13, 2),
        (SWITCH_NO_MATCH, 11, 2)],
        ids=["if-else", "unary", "switch-default", "switch-no-match"])
    def test_first_violation(self, source, line, choice):
        cex = verify(parse(source), VerifierConfig()).counterexample
        assert cex.violation == Violation("assertion", line)
        assert cex.nondet_choices == [(3, choice)]

    @pytest.mark.parametrize("config", [
        VerifierConfig(), VerifierConfig(context_bound=1),
        VerifierConfig(deadlock_check=True, nondet_domain=(1, 2))],
        ids=["defaults", "bound-1", "domain-1-2"])
    def test_threads_match_the_uncached_search(self, config):
        p = parse(MIXED_THREADS)
        result = verify(p, config)
        cex = result.counterexample
        assert (result.outcome, counterexample_to_json(cex) if cex else None,
                result.bound_hit) == uncached(p, config)[:3]
        assert result.reductions > 0


class TestCompile:
    @pytest.mark.parametrize("statement,message", [
        ("case 0:", "case label outside switch"),
        ("default:", "default label outside switch"),
        ("break;", "break outside switch")], ids=["case", "default", "break"])
    def test_switch_statement_outside_switch(self, statement, message):
        # the parser keeps these inside a switch; a hand-built tree need not
        p = parse(f"int x = 0;\nint main() {{ switch (x) {{ {statement} }} }}")
        (switch,) = p.main.body.stmts
        p.main.body.stmts = switch.body.stmts
        with pytest.raises(ModelError, match=f"^{message}$"):
            CompiledProgram(p)

    @pytest.mark.parametrize("stmt,message", [
        (Assign("x", Var("ghost")), "read of unknown variable 'ghost'"),
        (CallAssign("x", "f", [Var("ghost")]),
         "read of unknown variable 'ghost'"),
        (Assign("ghost", IntLit(0)), "write to unknown variable 'ghost'"),
        (Assign("x", Index("ghost", IntLit(0))), "unknown array 'ghost'"),
        (Assign("x", Binary("^", IntLit(1), IntLit(2))),
         "unknown operator '\\^'"),
        (CallAssign("x", "ghost"),
         "call to 'ghost', which is no int function"),
        (CallAssign("x", "w"), "call to 'w', which is no int function"),
    ], ids=["read", "read-argument", "write", "array", "operator",
            "undefined-callee", "void-callee"])
    def test_unresolved_names_fail_to_compile(self, stmt, message):
        # the parser rejects each of these; in a hand-built tree they fail
        # when compiled, even on a branch no path takes
        p = parse("""int x = 0;
int a[1] = {0};
pthread_t t;
int f(int k) {
  return k;
}
void w() {
}
int main() {
  pthread_create(t, w);
  if (0) {
    x = f(1);
  }
}
""")
        unreachable = next(s for s in p.main.body.stmts if isinstance(s, If))
        stmt.line = unreachable.then.stmts[0].line
        unreachable.then.stmts[0] = stmt
        with pytest.raises(ModelError, match=f"^{message}$"):
            CompiledProgram(p)
        with pytest.raises(ModelError, match=f"^{message}$"):
            verify(p, VerifierConfig())

    @pytest.mark.parametrize("where,stmt,message", [
        ("f", None, "function 'f' finished without return"),
        ("f", MutexLock("m"),
         "unsupported statement inside callable function: 'lock'"),
        ("main", ArrayDecl("b", [1]), "array declarations are global only"),
        ("main", Stmt(), "cannot compile statement Stmt\\(line=5\\)"),
    ], ids=["no-return", "callee-lock", "local-array", "unknown"])
    def test_trees_the_parser_rejects_raise_in_verify(self, where, stmt,
                                                      message):
        # the parser rejects each of these; a hand-built tree meets the
        # verifier's own check, when compiled or when a callee runs
        p = parse("""int x = 0;
pthread_mutex_t m;
int f(int k) {
  x = k;
  return k;
}
int main() {
  x = f(1);
}
""")
        body = (p.main if where == "main" else p.functions[0]).body.stmts
        if stmt is None:
            body.pop()  # f's return
        else:
            body.insert(0, stmt)
        renumber(p)
        with pytest.raises(ModelError, match=f"^{message}$"):
            verify(p, VerifierConfig())

    def test_long_sum_verifies_and_localizes(self):
        # compiling and evaluating each take one Python frame per level of
        # the sum, so 900 terms stay under the default recursion limit
        terms = " + ".join(["x"] + ["1"] * 899)
        p = parse(f"""int x = 0;
pthread_t t;
void w() {{
  x = x + 1;
}}
int main() {{
  pthread_create(t, w);
  x = {terms};
  assert(x != 900);
}}
""")
        assert verify(p, VerifierConfig()).outcome == "violation"
        report = localize(p, VerifierConfig())
        assert report.status == "faults-found"
        assert {d.original_line for d in report.diagnoses} == {3, 5}


def _stmt_exprs(program):
    """(function name, line, expression) for each expression a statement of
    program holds."""
    for fn in [program.main, *program.functions]:
        for stmt in iter_stmts(fn.body.stmts):
            for f in fields(stmt):
                value = getattr(stmt, f.name)
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, Expr):
                        yield fn.name, stmt.line, item


# values that reach the 64-bit wrap and the signs of / and %
EDGE_VALUES = (0, 1, -1, 2, -3, 7, 2 ** 63 - 1, -2 ** 63)


class TestCompiledEvaluation:
    """A compiled expression gives the reference evaluator's value, or its
    exception, and draws the same values, on every nondet path of the same
    context."""

    @staticmethod
    def _paths(compiled, fname, expr, line, values, decision=None):
        """Per nondet path, in the step's order: (outcome, drawn, decision)
        of the compiled expression, each checked equal to the reference's
        on a context with the same prefix. The globals and the locals of
        fname's code take values in slot order."""
        code = next(c for c in [*compiled.thread_codes,
                                *compiled.callee_codes.values()]
                    if c.fname == fname)
        machine = _Machine(compiled, VerifierConfig(nondet_domain=(0, 2)))
        state = machine.initial_state()
        state = state._replace(
            globals=values[:len(state.globals)],
            control=state.control._replace(
                decision=decision or state.control.decision))
        evaluators = (compiled._expr(expr, code.scope, set()),
                      lambda ctx: reference_eval(expr, ctx, code.scope))
        paths, prefix = [], []
        while True:
            runs = []
            for evaluate in evaluators:
                ctx = _Ctx(machine, state, prefix)
                ctx.line, ctx.locals = line, values[:len(code.names)]
                try:
                    outcome = evaluate(ctx)
                except (ModelError, _DivByZero) as exc:
                    outcome = type(exc)
                runs.append((outcome, list(ctx.drawn), ctx.decision))
            assert runs[0] == runs[1], (fname, line, expr, prefix)
            paths.append(runs[0])
            drawn = list(runs[0][1])
            while drawn and drawn[-1][0] >= drawn[-1][1]:
                drawn.pop()
            if not drawn:
                return paths
            prefix = [value for value, _ in drawn]
            prefix[-1] += 1

    @pytest.mark.parametrize("family", ["division", "three-thread",
                                        "callee"])
    def test_generated_programs(self, family):
        make = {"division": lambda seed: generate_source(seed, with_div=True),
                "three-thread": lambda seed: generate_source(
                    seed, max_threads=3),
                "callee": generate_callee_source}[family]
        outcomes = Counter()
        for seed in range(50):
            p = parse(make(seed))
            compiled = CompiledProgram(p)
            rng = random.Random(seed)
            valuations = [(0,) * 16, tuple(rng.randint(-3, 3)
                                           for _ in range(16)),
                          tuple(rng.choice(EDGE_VALUES) for _ in range(16))]
            for fname, line, expr in _stmt_exprs(p):
                for values in valuations:
                    for outcome, _, _ in self._paths(compiled, fname, expr,
                                                     line, values):
                        outcomes[outcome if isinstance(outcome, type)
                                 else int] += 1
        assert outcomes[int] > 0
        if family != "three-thread":
            assert outcomes[_DivByZero] > 0

    HAND = """int a[2] = {4, 5};
int y = 0;
int z = 0;
int main() {
  int x = 0;
  x = EXPR;
}
"""

    @pytest.mark.parametrize("expr,y,z,paths", [
        # short circuits before a draw
        ("y && nondet(0,2)", 0, 0, [(0, [])]),
        ("y || nondet(0,2)", 1, 0, [(1, [])]),
        ("y && nondet(0,1)", 1, 0, [(0, [(0, 1)]), (1, [(1, 1)])]),
        # ?: draws only in the branch taken
        ("nondet(0,1) ? nondet(0,1) : nondet(3,3)", 0, 0,
         [(3, [(0, 1), (3, 3)]), (0, [(1, 1), (0, 1)]),
          (1, [(1, 1), (1, 1)])]),
        # / and % by zero, and with negative operands
        ("-7 / y", 0, 0, [(_DivByZero, [])]),
        ("-7 % z + nondet(0,1)", 0, 0, [(_DivByZero, [])]),
        ("y / z", -7, 2, [(-3, [])]),
        ("y % z", -7, 2, [(-1, [])]),
        ("y % z", 7, -2, [(1, [])]),
        ("y % z", -7, -2, [(-1, [])]),
        ("y / z", -2 ** 63, -1, [(-2 ** 63, [])]),
        ("y % z", -2 ** 63, -1, [(0, [])]),
        # unary minus at the 64-bit wrap
        ("-y", -2 ** 63, 0, [(-2 ** 63, [])]),
        ("-y + 1", -2 ** 63, 0, [(-2 ** 63 + 1, [])]),
        # logical not of zero, one, the 64-bit minimum and a difference
        ("!y", 0, 0, [(1, [])]),
        ("!y", 1, 0, [(0, [])]),
        ("!y", -2 ** 63, 0, [(0, [])]),
        ("!(y - z)", 3, 3, [(1, [])]),
        ("!(y - z)", 3, 2, [(0, [])]),
        # an array index out of range, either side
        ("a[y]", 1, 0, [(5, [])]),
        ("a[y]", 2, 0, [(ModelError, [])]),
        ("a[y - 3]", 2, 0, [(ModelError, [])]),
    ])
    def test_hand_cases(self, expr, y, z, paths):
        p = parse(self.HAND.replace("EXPR", expr))
        assign = p.main.body.stmts[1]
        got = self._paths(CompiledProgram(p), "main", assign.expr,
                          assign.line, (y, z))
        assert [(outcome, drawn) for outcome, drawn, _ in got] == paths

    def test_site(self):
        # undecided, picked, picked with a kept value, another site picked
        p = parse(self.HAND.replace("EXPR", "a[0]"))
        assign = p.main.body.stmts[1]
        line = assign.line
        site = _Site(line, assign.expr, Nondet())
        compiled = CompiledProgram(p)
        for decision, paths in [
                ((0, frozenset()), [(4, [], (0, frozenset({line})))]),
                ((line, ()), [(0, [(0, 2)], (line, (0,))),
                                (1, [(1, 2)], (line, (1,))),
                                (2, [(2, 2)], (line, (2,)))]),
                ((line, (1,)), [(1, [], (line, (1,)))]),
                ((line + 1, ()), [(4, [], (line + 1, ()))])]:
            assert self._paths(compiled, "main", site, line, (0, 0),
                               decision) == paths, decision


def _passed(code, pcs) -> set[int]:
    """pcs and the pcs reached from them through jump, loop_enter and
    loop_iter, which a step passes without stopping."""
    found, todo = set(pcs), list(pcs)
    while todo:
        pc = todo.pop()
        if code.instrs[pc].op in ("jump", "loop_enter", "loop_iter"):
            for nxt in _successors(code, pc):
                if nxt not in found:
                    found.add(nxt)
                    todo.append(nxt)
    return found


class TestControlFlowGraph:
    """The control-flow graph that the independence analysis walks covers
    every move a step makes: a thread's new pc is one _successors edge
    from its old one, then only instructions a step passes. It stays put
    only where the step blocks on a wait, ends the thread by return or
    pthread_exit, or violates; another thread moves only when created,
    from its entry."""

    FAMILIES = {
        "ports": [path.read_text() for path in sorted(BENCH_DIR.glob("*.mc"))],
        "randprog": [generate_source(seed, with_div=True)
                     for seed in range(20)]
        + [generate_source(seed, max_threads=3) for seed in range(20)]
        + [generate_callee_source(seed) for seed in range(10)],
        "switches": [SWITCH_DEFAULT, SWITCH_NO_MATCH, MIXED_THREADS],
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_steps_follow_successor_edges(self, family, monkeypatch):
        step = _Machine.step
        moves = Counter()

        def checked(machine, state, tid):
            outcomes = step(machine, state, tid)
            code, old = machine.codes[tid], state.threads[tid]
            instr = code.instrs[old.pc]
            reachable = _passed(code, _successors(code, old.pc))
            for outcome in outcomes:
                if outcome[0] == "kill":
                    continue
                after = outcome[-1].threads
                new = after[tid]
                stays = outcome[0] == "violation" or \
                    instr.op == "wait" and new.status == "cond" or \
                    instr.op in ("return", "exit") and new.status == "exited"
                assert new.pc == old.pc if stays else new.pc in reachable, \
                    (code.fname, old.pc, instr.op, new.pc)
                for other, (was, now) in enumerate(zip(state.threads, after)):
                    if other != tid and now.pc != was.pc:
                        assert was.status == "new" and \
                            now.pc in _passed(machine.codes[other], [0])
                if instr.op == "switch":
                    moves["case" if new.pc in instr.aux.values()
                          else "unmatched"] += 1
                moves[instr.op] += 1
            return outcomes

        monkeypatch.setattr(_Machine, "step", checked)
        for source in self.FAMILIES[family]:
            if family == "switches":
                # the sequentializer has no rule for a user's switch
                verify(parse(source), VerifierConfig())
            else:
                # the first verify, then the site search of the sequential
                # program, whose dispatcher is a switch with a case per tag
                localize(parse(source), VerifierConfig())
        assert moves["case"] and moves["break"]
        if family == "switches":
            # to a default, and to the end of a switch without one
            assert moves["unmatched"] and moves["call"]


def _records(result):
    return [(f.site, f.witness, f.validated) for f in result.records]


class TestSiteSearch:
    def test_first_passing_value_of_each_site(self, default_config):
        result = verify(parse(SITES), default_config, sites=SITE_PICKS)
        assert result.outcome == "safe-within-bounds"
        assert result.counterexample is None
        assert result.states > 0
        # v = 1 never gets past its assume and w = 1 fails the assertion;
        # v = 2 and w = 2 reach the end of main, and no path with either
        # fails
        assert _records(result) == [(3, 2, True), (5, 2, True)]

    def test_witness_failing_on_another_input_is_not_validated(
            self, default_config):
        # v = 2 passes with c = 0, the first input, and fails with c = 1
        p = parse("""int main() {
  int v;
  int c;
  v = 0;
  c = nondet(0, 1);
  if (c == 1) {
    assert(v != 2);
  }
  assert(v > 1);
}
""")
        result = verify(p, default_config, sites={3: Nondet()})
        assert _records(result) == [(3, 2, False)]
        assert _records(verify(p, default_config,
                               sites={3: IntLit(3)})) == [(3, 3, True)]

    def test_undecided_path_reaching_the_end_ends_the_search(
            self, default_config):
        p = parse(SITES.replace("v + w > 0", "v + w >= 0"))
        result = verify(p, default_config, sites=SITE_PICKS)
        assert result.outcome == "violation"
        assert _records(result) == [(0, None, False)]

    def test_undecided_division_by_zero_ends_the_search(self,
                                                        default_config):
        p = parse("""int main() {
  int v;
  int y;
  v = 0;
  y = 1 / v;
  assert(y == 1);
}
""")
        result = verify(p, default_config, sites={3: Nondet(0, 2)})
        assert (result.outcome, _records(result)) == \
            ("violation", [(0, None, False)])
        # with its witness given, the line is only validated: the
        # undecided path declined it, so its failure does not count
        result = verify(p, default_config, sites={3: IntLit(1)})
        assert (result.outcome, _records(result)) == \
            ("safe-within-bounds", [(3, 1, True)])

    @pytest.mark.parametrize("pick,records", [
        (Binary("/", IntLit(1), IntLit(0)), []),
        (Binary("/", IntLit(1), Nondet(0, 1)), [(2, 1, True)]),
        (Binary("/", IntLit(1), Binary("-", IntLit(1), Nondet(0, 1))),
         [(2, 1, True)]),
    ], ids=["always", "before-the-witness", "after-the-witness"])
    def test_a_pick_dividing_by_zero_fails_no_value(self, pick, records,
                                                     default_config):
        # a path that divides by zero in the pick holds no value yet, so
        # its failure fails none, whether it runs before the path that
        # finds the witness or is still on the stack when that one prunes
        p = parse("int main() {\n  int v;\n  v = 0;\n  assert(v == 1);\n}\n")
        result = verify(p, default_config, sites={2: pick})
        assert (result.outcome, _records(result)) == \
            ("safe-within-bounds", records)
        assert uncached(p, default_config, sites={2: pick})[3] == records

    def test_pthread_exit_is_not_the_end_of_main(self, default_config):
        # v = 1 leaves main early, without failing; v = 2 reaches the
        # final return, the end of main
        p = parse("""int main() {
  int v;
  v = 0;
  if (v == 1) {
    pthread_exit();
  }
  assert(v == 2);
  return 0;
}
""")
        result = verify(p, default_config, sites={2: Nondet(0, 2)})
        assert _records(result) == [(2, 2, True)]

    def test_budget_bounds_the_whole_search(self, default_config):
        cfg = VerifierConfig(max_states=15)
        result = verify(parse(SITES), cfg, sites=SITE_PICKS)
        assert result.outcome == "resource-exhausted"
        assert _records(result) == [(3, 2, True)]

    def test_records_come_by_line(self, default_config):
        # c = 0 skips line 5 and picks line 6 first; the record of line 5
        # still comes first. That undecided path fails without running
        # line 5, so line 5 cannot validate, although its pick passes
        p = parse("""int main() {
  int c;
  int x;
  c = nondet(0, 1);
  if (c == 1) { x = 0; }
  x = x;
  assert(x == 1);
}
""")
        result = verify(p, default_config,
                        sites={5: Nondet(1, 1), 6: Nondet(1, 1)})
        assert _records(result) == [(5, 1, False), (6, 1, True)]

    def test_cut_fails_only_the_site_its_path_picked(self, default_config):
        # the pick of the loop condition runs past the bound; the paths
        # that pick line 3 or decline both leave the loop
        p = parse("""int main() {
  int i = 0;
  while (i < 1) {
    i = 1;
  }
}
""")
        result = verify(p, default_config, sites={2: IntLit(1), 3: IntLit(5)})
        assert _records(result) == [(2, 1, False), (3, 5, True)]
        p = parse("""int main() {
  int i = 0;
  while (i < 1) {
    i = 1;
  }
  assert(i == 2);
}
""")
        result = verify(p, default_config, sites={2: Nondet(0, 1)})
        assert (result.outcome, result.bound_hit, result.records) == \
            ("safe-within-bounds", True, [])


def _main_sites(program):
    """Every assignment of main a site that takes any value, every if and
    while one that takes 0 or 1, as site_picks makes them."""
    return {stmt.line: Nondet() if isinstance(stmt, Assign) else Nondet(0, 1)
            for stmt in iter_stmts(program.main.body.stmts)
            if isinstance(stmt, (Assign, If, While))}


def _assigned(program, name):
    """The line of main's first assignment to name."""
    return next(stmt.line for stmt in iter_stmts(program.main.body.stmts)
                if isinstance(stmt, Assign) and stmt.name == name)


def _one_value_per_path(source, sites, config):
    """The records of the site search, from the two searches that run one
    value of a pick per path (oracles.LazySites): the diagnosis over the
    model of source, its asserts made assumes and an assert(0) added at
    the end of main, which comes last; then the validation of each
    witness over source."""
    end = source.rstrip().rfind("}")
    model = parse(source[:end].replace("assert(", "assume(") +
                  "  assert(0);\n}\n")
    goal = model.main.body.stmts[-1].line
    diagnosis = LazySites(sites, False, goal=goal)
    uncached(model, config, sites=sites, search=diagnosis)
    if 0 in diagnosis.found:
        return [(0, None, False)]
    witnesses = {line: diagnosis.found[line][1]
                 for line in sorted(diagnosis.found)}
    validation = LazySites(witnesses, True)
    outcome = uncached(parse(source), config, sites={
        line: IntLit(w) for line, w in witnesses.items()},
        search=validation)[0]
    passing = validation.passing(outcome == "resource-exhausted")
    return [(line, w, line in passing) for line, w in witnesses.items()]


# main-only programs whose picked value flows into a test where the
# members of a value set disagree; each names the operator it splits at
VALUE_SET_SPLITS = {
    "and": """int main() {
  int v;
  int r;
  v = 0;
  r = 0;
  if (v > 2 && v < 6) {
    r = 1;
  }
  assert(r == 1);
}
""",
    "or": """int main() {
  int v;
  int r;
  v = 0;
  r = 0;
  if (v < 2 || v > 6) {
    r = v;
  }
  assert(r == 7);
}
""",
    "ternary": """int main() {
  int v;
  int r;
  v = 0;
  r = v > 4 ? v - 4 : 4 - v;
  assert(r == 2);
}
""",
    "not": """int main() {
  int v;
  int r;
  v = 0;
  r = 1;
  if (!(v - 5)) {
    r = 0;
  }
  assert(r == 0);
}
""",
    "assume": """int main() {
  int v;
  v = 0;
  assume(v != 3);
  assume(v % 2 == 1);
  assert(v > 2);
}
""",
    "assert": """int main() {
  int v;
  v = 0;
  assert(v < 7);
  assert(v > 4);
}
""",
    "switch": """int main() {
  int v;
  int r;
  v = 0;
  r = 0;
  switch (v) {
    case 2:
      r = 1;
      break;
    case 5:
      r = 2;
      break;
    case 6:
      r = 2;
    default:
      r = r + 3;
  }
  assert(r == 5);
}
""",
    "division": """int main() {
  int v;
  int r;
  v = 0;
  r = 12 / (v - 3);
  assert(r == 6);
}
""",
    "loop-runs-the-site-again": """int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < 2) {
    s = s + 1;
    i = i + 1;
  }
  assert(s == 5);
}
""",
    "loop-bound": """int main() {
  int i;
  int n;
  i = 0;
  n = 0;
  while (i < n) {
    i = i + 1;
  }
  assert(i == 2);
}
""",
    "callee": """int f(int a) {
  int t;
  t = 0;
  if (a > 3) {
    t = a * 2;
  }
  return t;
}
int main() {
  int v;
  int r;
  v = 0;
  r = f(v);
  assert(r == 10);
}
""",
    # 0 fails; 1 fails alone; then 2..8 reach the end of main with c = 0,
    # and the path with c = 1 holds only values from the witness 2 up
    "witness-fails-later": """int main() {
  int v;
  int c;
  v = 0;
  assert(v != 1);
  c = nondet(0, 1);
  if (c == 1) {
    assert(v != 2);
  }
  assert(v > 0);
}
""",
    # with c = 0, 1 and 2 fail as one; with c = 1, 2 is the witness and
    # 0 and 1 fail
    "witness-failed-with-others": """int main() {
  int v;
  int c;
  v = 0;
  c = nondet(0, 1);
  if (c == 0) {
    assert(v > 2);
  }
  assert(v * (v - 1) != 0);
}
""",
    "index": """int a[4] = {3, 1, 4, 1};
int main() {
  int v;
  int r;
  v = 0;
  r = a[v % 4];
  assert(r == 4);
}
""",
}


class TestValueSets:
    """The site search runs a pick's lowest value alone and the rest of
    its domain as one value set, which splits where its members disagree.
    Its records are those of the searches that run one value per path."""

    @staticmethod
    def _split_lines(monkeypatch):
        """The lines at which a run splits a value set, as they happen,
        other than a pick's first run splitting its domain."""
        lines = []
        real = _Ctx.split

        def split(ctx, values, key):
            before = ctx.decision[1]
            value = real(ctx, values, key)
            if ctx.decision[1] != before and \
                    sys._getframe(1).f_code is not _Ctx.site.__code__:
                lines.append(ctx.line)
            return value
        monkeypatch.setattr(_Ctx, "split", split)
        return lines

    @pytest.mark.parametrize("case", sorted(VALUE_SET_SPLITS))
    def test_splits_keep_the_records(self, case, default_config,
                                     monkeypatch):
        source = VALUE_SET_SPLITS[case]
        program = parse(source)
        sites = _main_sites(program)
        theirs = _one_value_per_path(source, sites, default_config)
        split = self._split_lines(monkeypatch)
        result = verify(program, default_config, sites=sites)
        assert _records(result) == theirs
        assert split, "no value set split"
        # some assignment's witness is a member of the set 1..8
        assert any(witness and sites[line].lo is None
                   for line, witness, _ in theirs), theirs

    @pytest.mark.parametrize("case", sorted(VALUE_SET_SPLITS))
    def test_narrow_domain(self, case, monkeypatch):
        # -2 alone, then -1..3 as one set; the index case reads a[-2 % 4]
        # out of range on the lowest value, in both searches
        config = VerifierConfig(nondet_domain=(-2, 3))
        source = VALUE_SET_SPLITS[case]
        sites = _main_sites(parse(source))

        def outcome(search):
            try:
                return search()
            except ModelError as exc:
                return str(exc)
        theirs = outcome(lambda: _one_value_per_path(source, sites, config))
        mine = outcome(lambda: _records(verify(parse(source), config,
                                               sites=sites)))
        assert mine == theirs

    def test_narrow_domain_splits(self, monkeypatch):
        config = VerifierConfig(nondet_domain=(-2, 3))
        source = """int main() {
  int v;
  v = 0;
  assume(v * v == 4 || v == 0);
  assert(v > 0);
}
"""
        split = self._split_lines(monkeypatch)
        sites = {_assigned(parse(source), "v"): Nondet()}
        result = verify(parse(source), config, sites=sites)
        assert _records(result) == [(2, 2, True)] == \
            _one_value_per_path(source, sites, config)
        assert split

    def test_partitions_go_in_order_of_their_least_member(
            self, default_config, monkeypatch):
        members = []
        real = _Ctx.split

        def split(ctx, values, key):
            value = real(ctx, values, key)
            members.append(ctx.decision[1])
            return value
        monkeypatch.setattr(_Ctx, "split", split)
        p = parse("""int main() {
  int v;
  v = 0;
  assert(v * (v - 5) * (v - 7) != 0 && v % 3 != 1);
}
""")
        result = verify(p, default_config, sites={2: Nondet()})
        assert _records(result) == [(2, 2, True)]
        # the pick's domain 0..8 splits into 0 and 1..8; the set 1..8
        # splits into 1..4, 6, 8 and 5, 7, and 1..4, 6, 8 into 1, 4 and 2,
        # 3, 6, 8: each run of the step splits the set again and takes the
        # next partition, the least member's first
        assert [m for m in members if len(m) < 8] == [
            (0,), (1, 2, 3, 4, 6, 8), (1, 4), (1, 2, 3, 4, 6, 8),
            (2, 3, 6, 8), (5, 7)]

    def test_a_failure_books_every_member(self, default_config):
        # the set 1..8 fails as one at the assert: no member reaches the
        # end of main, so no record; v = 9 would
        p = parse("""int main() {
  int v;
  v = 0;
  assert(v == 9);
}
""")
        result = verify(p, default_config, sites={2: Nondet()})
        assert (result.outcome, result.records) == ("safe-within-bounds", [])
        # three undecided states, then the lowest value alone and the rest
        # as one set, where the search per value expands nine picked states
        assert result.states == 5

    def test_witness_is_the_least_member_across_partitions(
            self, default_config):
        # {1, 8} splits off first, as the partition with the least
        # member; 8 reaches the end of main before 2 does, and 2 is
        # still the witness
        source = """int main() {
  int v;
  int r;
  v = 0;
  r = 0;
  if ((v - 1) * (v - 8) == 0) {
    r = v;
  }
  assert(r != 1);
  assert(v > 1);
}
"""
        sites = {_assigned(parse(source), "v"): Nondet()}
        result = verify(parse(source), default_config, sites=sites)
        assert _records(result) == [(3, 2, True)] == \
            _one_value_per_path(source, sites, default_config)

    # the set splits into {1, 8} and {2..7}; 8 indexes out of range
    # before 2 reaches the end of main, which the search per value never
    # gets to: the search runs again, one value per path
    OUT_OF_RANGE = """int a[2] = {0, 0};
int main() {
  int v;
  int k;
  v = 0;
  k = 0;
  if ((v - 1) * (v - 8) == 0) {
    k = a[v - 1];
  }
  assert(v == 2);
}
"""

    def test_model_error_is_raised_where_one_value_per_path_raises_it(
            self, default_config):
        source = self.OUT_OF_RANGE
        result = verify(parse(source), default_config, sites={4: Nondet()})
        assert _records(result) == [(4, 2, True)]
        # with 2 failing as well, 8 is reached: the error stands
        with pytest.raises(ModelError, match="index 7 out of range"):
            verify(parse(source.replace("v == 2", "v == 9")),
                   default_config, sites={4: Nondet()})

    def test_exact_search_after_a_model_error_is_counted_on(
            self, default_config):
        program, sites = parse(self.OUT_OF_RANGE), {4: Nondet()}
        machine = _Machine(CompiledProgram(program, sites), default_config)
        with pytest.raises(ModelError, match="index 7 out of range"):
            _explore(machine, sites=_SiteSearch(sites))
        exact = uncached(program, default_config, sites=sites)
        assert exact[3] == [(4, 2, True)]
        result = verify(program, default_config, sites=sites)
        # the search with value sets, then the one per value
        assert result.ordered_rerun
        assert result.states == machine.states + exact[4] == 28
        short = verify(program, replace(default_config,
                                        max_states=result.states - 1),
                       sites=sites)
        assert (short.outcome, short.ordered_rerun) == (
            "resource-exhausted", True)

    def test_uncached_runs_a_pick_again_after_a_model_error(
            self, default_config):
        # the reference search without the cache runs one value per path
        # from the start, so it never meets the error that makes verify
        # search again, and raises it where verify raises it
        source = self.OUT_OF_RANGE
        assert uncached(parse(source), default_config,
                        sites={4: Nondet()})[3] == [(4, 2, True)]
        with pytest.raises(ModelError, match="index 7 out of range"):
            uncached(parse(source.replace("v == 2", "v == 9")),
                     default_config, sites={4: Nondet()})

    def test_constants_and_references_stay_scalar(self, default_config,
                                                  monkeypatch):
        # a witness given from the start, with_constant and the per-value
        # reference never carry a value set
        program = parse(VALUE_SET_SPLITS["and"])
        sites = _main_sites(program)
        split = self._split_lines(monkeypatch)
        verify(program, default_config, sites={
            line: IntLit(3) for line in sites})
        compiled = CompiledProgram(program, sites)
        verify(compiled.with_constant(min(sites), 4), default_config)
        uncached(program, default_config, sites=sites,
                 search=LazySites(sites, True))
        assert split == []


def _replays_byte_for_byte(program, cex: Counterexample) -> bool:
    text = counterexample_to_json(cex)
    again = replay(program, counterexample_from_json(text))
    return counterexample_to_json(again.counterexample) == text


class TestReplay:
    def test_replay_reproduces_violation(self, single_fault_program,
                                         default_config):
        result = verify(single_fault_program, default_config)
        again = replay(single_fault_program, result.counterexample)
        assert again.outcome == "violation"
        assert again.counterexample.violation == \
            result.counterexample.violation
        assert again.counterexample.final_valuation == \
            result.counterexample.final_valuation

    def test_replay_deadlock(self):
        p = parse(ABBA)
        cfg = VerifierConfig(context_bound=2, deadlock_check=True)
        cex = verify(p, cfg).counterexample
        again = replay(p, cex)
        assert again.counterexample.violation == cex.violation

    def test_dead_thread_mismatch(self, single_fault_program,
                                  default_config):
        cex = verify(single_fault_program, default_config).counterexample
        cex.steps[0].thread = 7
        with pytest.raises(TraceMismatch):
            replay(single_fault_program, cex)

    def test_wrong_choice_line_mismatch(self, single_fault_program,
                                        default_config):
        cex = verify(single_fault_program, default_config).counterexample
        line, value = cex.nondet_choices[0]
        cex.nondet_choices[0] = (line + 1, value)
        with pytest.raises(TraceMismatch):
            replay(single_fault_program, cex)

    def test_replayed_corpus(self, default_config):
        checked = 0
        for seed in range(40):
            p = parse(generate_source(seed))
            cfg = VerifierConfig(context_bound=2, loop_bound=3,
                                 nondet_domain=(0, 1), deadlock_check=True)
            result = verify(p, cfg)
            if result.outcome != "violation":
                continue
            assert _replays_byte_for_byte(p, result.counterexample)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("port", sorted(
        path.stem for path in BENCH_DIR.glob("*.mc")))
    def test_replayed_port(self, port):
        p = parse((BENCH_DIR / f"{port}.mc").read_text())
        cfg = VerifierConfig(deadlock_check=True)
        result = verify(p, cfg)
        assert result.outcome == "violation"
        assert _replays_byte_for_byte(p, result.counterexample)

    def test_changed_line_names_the_step(self, single_fault_program,
                                         default_config):
        cex = verify(single_fault_program, default_config).counterexample
        cex.steps[3].line += 100
        with pytest.raises(TraceMismatch, match=r"^step 3 executed line"):
            replay(single_fault_program, cex)

    def test_unused_choice_is_rejected(self, single_fault_program,
                                       default_config):
        cex = verify(single_fault_program, default_config).counterexample
        cex.nondet_choices.append(cex.nondet_choices[-1])
        with pytest.raises(TraceMismatch, match="left unused"):
            replay(single_fault_program, cex)

    def test_wrong_valuation_names_the_step(self, single_fault_program,
                                            default_config):
        cex = verify(single_fault_program, default_config).counterexample
        cex.steps[2].valuation["a"] += 1
        with pytest.raises(TraceMismatch,
                           match=r"^step 2: valuation of 'a' is"):
            replay(single_fault_program, cex)

    @pytest.mark.parametrize("port", ["account", "circular_buffer",
                                      "sync02"])
    def test_first_path_matches_counterexample(self, port):
        p = parse((BENCH_DIR / f"{port}.mc").read_text())
        cfg = VerifierConfig(deadlock_check=True)
        cex = verify(p, cfg).counterexample
        assert first_path(p, cfg) == ("violation", cex.steps,
                                      cex.final_valuation)

    def test_choice_outside_an_explicit_range_is_rejected(self):
        p = parse("int x = 0;\nint main() {\n  x = nondet(0, 1);\n"
                  "  assert(x < 1);\n}\n")
        cex = verify(p, VerifierConfig()).counterexample
        assert cex.nondet_choices == [(2, 1)]
        cex.nondet_choices[0] = (2, 7)
        for step in cex.steps:
            step.valuation["x"] = 7
        with pytest.raises(TraceMismatch,
                           match=r"^nondet at line 2 takes 0\.\.1, "
                                 r"choice recorded 7$"):
            replay(p, cex)


# main draws y, passes the assume only with y = 1, and holds m across its
# update; w takes m after main has let it go
LOCKED_UPDATES = """int x = 0;
pthread_mutex_t m;
pthread_t h;
void w() {
  pthread_mutex_lock(m);
  x = x + 1;
  pthread_mutex_unlock(m);
}
int main() {
  int y;
  y = nondet();
  assume(y == 1);
  pthread_create(h, w);
  pthread_mutex_lock(m);
  x = x + 2;
  pthread_mutex_unlock(m);
  pthread_join(h);
  assert(x != 3);
}
"""


class TestReplayRejections:
    """replay rejects a counterexample document that no longer fits the
    program, naming what does not fit. The recorded trace runs main's
    steps 0..6 (lines 7..13), w's lines 4..6, then main's join and
    assert."""

    def test_recorded_trace(self):
        cex = verify(parse(LOCKED_UPDATES), VerifierConfig()).counterexample
        assert [(s.thread, s.line) for s in cex.steps] == \
            [(0, line) for line in range(7, 14)] + \
            [(1, 4), (1, 5), (1, 6), (0, 14), (0, 15)]
        assert cex.nondet_choices == [(8, 1)]

    @pytest.mark.parametrize("mutate,message", [
        (lambda doc: doc["steps"][0].update(thread=1),
         "step 0 schedules a dead thread 1"),
        (lambda doc: doc["steps"].insert(5, doc["steps"].pop(7)),
         "step 5: thread 1 is blocked"),
        (lambda doc: doc.update(nondet_choices=[[8, 0]]),
         "step 2 became infeasible on replay"),
        (lambda doc: doc["steps"].append(doc["steps"][-1]),
         "violation before the end of the trace"),
        (lambda doc: doc.update(violation={"kind": "deadlock",
                                          "blocked": [0]}),
         "deadlock does not reproduce"),
        (lambda doc: doc["steps"].pop(),
         "trace ends without the recorded violation"),
        (lambda doc: doc["violation"].update(line=14),
         "violation mismatch: Violation(kind='assertion', line=15, "
         "blocked=None) != Violation(kind='assertion', line=14, "
         "blocked=None)"),
        (lambda doc: doc["steps"][1].update(step_index=9),
         "step 1 has step_index 9"),
        (lambda doc: doc["switches"][0].update(at_line=1),
         "switches differ from the replayed trace"),
    ], ids=["dead-thread", "blocked-thread", "infeasible-step",
            "early-violation", "no-deadlock", "no-violation",
            "other-violation", "step-index", "switches"])
    def test_mismatch_message(self, mutate, message):
        p = parse(LOCKED_UPDATES)
        doc = json.loads(counterexample_to_json(
            verify(p, VerifierConfig()).counterexample))
        mutate(doc)
        with pytest.raises(TraceMismatch) as info:
            replay(p, counterexample_from_json(json.dumps(doc)))
        assert str(info.value) == message


def _hand_trace(threads: list[int]) -> Counterexample:
    steps = [TraceStep(i, t, 100 + i, {}) for i, t in enumerate(threads)]
    switches = []
    counters = []
    per_thread: dict[int, int] = {}
    for i in range(1, len(threads)):
        if threads[i] == threads[i - 1]:
            continue
        prev = threads[i - 1]
        per_thread[prev] = per_thread.get(prev, 0) + 1
        switches.append(ContextSwitchRecord(
            len(switches) + 1, prev, threads[i], 100 + i - 1,
            per_thread[prev]))
        counters.append({})
    return Counterexample(steps, switches,
                          Violation("assertion", 100 + len(threads) - 1),
                          [], counters, set())


class TestExtractSchedule:
    def test_single_segment(self):
        sched = extract_schedule(_hand_trace([0, 0, 0]))
        assert sched.order_tags == [11]
        assert len(sched.segments) == 1

    def test_main_then_t2_then_t1(self):
        sched = extract_schedule(_hand_trace([0, 2, 1]))
        assert sched.order_tags == [11, 31, 21]

    def test_thread_one_split_by_thread_two(self):
        sched = extract_schedule(_hand_trace([0, 1, 2, 1]))
        assert sched.order_tags == [11, 21, 31, 22]
        assert [t % 10 for t in sched.order_tags] == [1, 1, 1, 2]

    def test_too_many_segments_rejected(self):
        threads = [0]
        for _ in range(10):
            threads += [1, 0]
        with pytest.raises(UnsupportedScheduleError):
            extract_schedule(_hand_trace(threads))

    def test_segment_fields(self):
        cex = _hand_trace([0, 1, 1, 0, 2])
        cex.switch_loop_counters = [{7: 1}, {8: 2, 9: 0}, {5: 3}]
        sched = extract_schedule(cex)
        assert sched.segments == [
            Segment(0, 100, 100, {7: 1}, 11),
            Segment(1, 101, 102, {8: 2, 9: 0}, 21),
            Segment(0, 103, 103, {5: 3}, 12),
            Segment(2, 104, 104, {}, 31),
        ]
        # each segment holds a copy, not the counterexample's own dict
        sched.segments[0].loop_counters[7] = 99
        assert cex.switch_loop_counters[0] == {7: 1}

    def test_segment_fields_without_loop_counters(self):
        cex = _hand_trace([0, 1, 1, 0, 2])
        cex.switch_loop_counters = [{7: 1}, {8: 2, 9: 0}, {5: 3}]
        doc = json.loads(counterexample_to_json(cex))
        del doc["switch_loop_counters"]
        sched = extract_schedule(counterexample_from_json(json.dumps(doc)))
        assert sched.segments == [
            Segment(0, 100, 100, {}, 11),
            Segment(1, 101, 102, {}, 21),
            Segment(0, 103, 103, {}, 12),
            Segment(2, 104, 104, {}, 31),
        ]

    def test_segment_boundaries(self, default_config):
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
        result = verify(parse(src), default_config)
        sched = extract_schedule(result.counterexample)
        assert [seg.thread for seg in sched.segments] == [0, 1, 0]
        assert sched.order_tags == [11, 21, 12]


class TestSwitchAccounting:
    def test_switch_records_match_steps(self, default_config):
        for seed in range(30):
            p = parse(generate_source(seed))
            cfg = VerifierConfig(context_bound=3, loop_bound=3,
                                 nondet_domain=(0, 1), deadlock_check=True)
            result = verify(p, cfg)
            if result.outcome != "violation":
                continue
            cex = result.counterexample
            boundary_count = sum(
                1 for a, b in zip(cex.steps, cex.steps[1:])
                if a.thread != b.thread)
            assert len(cex.switches) == boundary_count
            assert len(cex.switches) <= cfg.context_bound
            per_thread: dict[int, list[int]] = {}
            for sw in cex.switches:
                per_thread.setdefault(sw.from_thread, []).append(
                    sw.per_thread_index)
            for indices in per_thread.values():
                assert indices == list(range(1, len(indices) + 1))


class TestOracleAgreement:
    def test_small_corpus_agreement(self):
        cfg = VerifierConfig(context_bound=2, loop_bound=2,
                             nondet_domain=(0, 2), deadlock_check=True,
                             max_states=500_000)
        disagreements = []
        for seed in range(60):
            p = parse(generate_source(seed, max_threads=2, max_stmts=5))
            mine = verify(p, cfg).outcome == "violation"
            theirs = naive_violates(p, cfg)
            if mine != theirs:
                disagreements.append(seed)
        assert disagreements == []


class TestCallees:
    """A call runs atomically in one step, but must explore its callee like
    the inlined body: same verdict, same first violation, same nondet
    values. Single-thread programs only, since inlining gives up the
    atomicity other threads could observe."""

    CONFIG = VerifierConfig(context_bound=0, loop_bound=2,
                            nondet_domain=(0, 3))

    @staticmethod
    def _summary(result):
        cex = result.counterexample
        return (result.outcome,
                cex.violation.kind if cex else None,
                result.bound_hit,
                [value for _, value in cex.nondet_choices] if cex else None)

    def _summaries(self, program):
        return (self._summary(verify(program, self.CONFIG)),
                self._summary(verify(unwind_calls(program), self.CONFIG)))

    def test_callee_forks_in_ascending_order(self):
        # nondet 0 passes the division and reaches main's assert first;
        # nondet 1 divides by zero, later in the search order
        p = parse("""int x = 0;
int f(int m) {
  int t = 6 / (nondet() - m);
  return t;
}
int main() {
  x = f(1);
  assert(x != -6);
}
""")
        cex = verify(p, self.CONFIG).counterexample
        assert cex.violation == Violation("assertion", 5)
        assert cex.nondet_choices == [(2, 0)]
        mine, unwound = self._summaries(p)
        assert mine == unwound

    def test_generated_callees_match_unwound(self):
        for seed in range(150):
            mine, unwound = self._summaries(
                parse(generate_callee_source(seed)))
            assert mine == unwound, seed


class TestStepOrder:
    """The outcomes of one step come one per nondet path, in ascending
    order of the drawn values in drawing order; a short circuit, a failed
    check or a division by zero ends a path before its later draws."""

    @staticmethod
    def _outcomes(body: str, callee: str = ""):
        """The outcomes of main's last statement, after the ones before it
        ran: ('state', x, choices), ('violation', kind, line, choices) or
        ('kill', reason)."""
        program = parse(f"int x = 0;\n{callee}int main() {{\n"
                        f"  int y = 0;\n  {body}\n}}\n")
        machine = _Machine(CompiledProgram(program), VerifierConfig())
        state = machine.initial_state()
        state = machine.step(state, 0)[0][1]  # int y = 0;
        summary = []
        for outcome in machine.step(state, 0):
            if outcome[0] == "kill":
                summary.append(outcome)
            elif outcome[0] == "violation":
                summary.append(("violation", outcome[1].kind,
                                outcome[1].line, _unlink(outcome[2].choices)))
            else:
                summary.append(("state", machine.variables(outcome[1])["x"],
                                _unlink(outcome[1].choices)))
        return summary

    def test_and_short_circuits_before_the_second_draw(self):
        assert self._outcomes("x = nondet(0,2) && nondet(0,1);") == [
            ("state", 0, [(3, 0)]),
            ("state", 0, [(3, 1), (3, 0)]),
            ("state", 1, [(3, 1), (3, 1)]),
            ("state", 0, [(3, 2), (3, 0)]),
            ("state", 1, [(3, 2), (3, 1)]),
        ]

    def test_ternary_draws_only_in_the_branch_taken(self):
        assert self._outcomes("x = nondet(0,1) ? nondet(0,2) : 7 / y;") == [
            ("violation", "division-by-zero", 3, [(3, 0)]),
            ("state", 0, [(3, 1), (3, 0)]),
            ("state", 1, [(3, 1), (3, 1)]),
            ("state", 2, [(3, 1), (3, 2)]),
        ]

    def test_division_by_zero_before_a_draw_is_one_path(self):
        assert self._outcomes("x = (1 / y) + nondet(0,2);") == [
            ("violation", "division-by-zero", 3, []),
        ]

    def test_failed_assumes_come_first(self):
        assert self._outcomes("assume(nondet(0,3) > 1);") == [
            ("kill", "assume"),
            ("kill", "assume"),
            ("state", 0, [(3, 2)]),
            ("state", 0, [(3, 3)]),
        ]

    def test_callee_draws_after_the_arguments(self):
        # lines: 2 f's t, 3 its assert, 4 its division, 5 its return,
        # 6 main's y, 7 the call
        callee = """int f(int a, int b) {
  int t = nondet(0,1);
  assert(a + t != 2);
  t = 6 / (b - t);
  return t;
}
"""
        outcomes = self._outcomes("x = f(nondet(0,1), nondet(0,1));",
                                  callee)
        assert outcomes == [
            ("violation", "division-by-zero", 4, [(7, 0), (7, 0), (2, 0)]),
            ("state", -6, [(7, 0), (7, 0), (2, 1)]),
            ("state", 6, [(7, 0), (7, 1), (2, 0)]),
            ("violation", "division-by-zero", 4, [(7, 0), (7, 1), (2, 1)]),
            ("violation", "division-by-zero", 4, [(7, 1), (7, 0), (2, 0)]),
            ("violation", "assertion", 3, [(7, 1), (7, 0), (2, 1)]),
            ("state", 6, [(7, 1), (7, 1), (2, 0)]),
            ("violation", "assertion", 3, [(7, 1), (7, 1), (2, 1)]),
        ]


class TestCounterexampleJson:
    def test_round_trip(self, single_fault_program, default_config):
        cex = verify(single_fault_program, default_config).counterexample
        text = counterexample_to_json(cex)
        loaded = counterexample_from_json(text)
        assert loaded == cex
        assert counterexample_to_json(loaded) == text

    def test_documented_example_round_trips(self):
        text = doc_example("counterexample")
        assert json.loads(counterexample_to_json(
            counterexample_from_json(text))) == json.loads(text)

    def test_reader_ignores_keys_that_are_no_fields(self):
        text = doc_example("counterexample")
        doc = json.loads(text)
        doc["steps"][0]["comment"] = "extra"
        doc["switches"][0]["comment"] = "extra"
        assert counterexample_from_json(json.dumps(doc)) == \
            counterexample_from_json(text)


def _cached(program, config, sites=None):
    """(outcome, counterexample JSON, bound_hit, records, states)."""
    result = verify(program, config, sites=sites)
    cex = result.counterexample
    return (result.outcome, counterexample_to_json(cex) if cex else None,
            result.bound_hit, _records(result), result.states)


OUTCOMES = {"violation": "violation", "exhausted": "resource-exhausted",
            "safe": "safe-within-bounds"}


def _ordered(program, config):
    """The summary _cached returns, from the ordered search alone: the
    finished-state cache without the reduction, which verify ran before
    it had one and runs after it where the reduced search can differ.
    Also returns the states it skipped."""
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program)
    machine = _Machine(compiled, config)
    result = _explore(machine, done={})
    cex = None
    if result[0] == "violation":
        cex = counterexample_to_json(_build_counterexample(
            compiled, _unlink(result[2].trace), _unlink(result[2].choices),
            result[1]))
    return (OUTCOMES[result[0]], cex, machine.bound_hit, [],
            machine.states), machine.pruned


def _locked_workers(n_threads: int, trips: int) -> str:
    """n_threads workers each add 1 to c under a lock, trips times; main
    joins them and asserts the total. Safe at any schedule."""
    lines = ["int c = 0;", "pthread_mutex_t m;"]
    lines += [f"pthread_t h{i};" for i in range(n_threads)]
    for i in range(n_threads):
        lines += [f"void w{i}() {{", "  int k;", "  k = 0;",
                  f"  while (k < {trips}) {{", "    pthread_mutex_lock(m);",
                  "    c = c + 1;", "    pthread_mutex_unlock(m);",
                  "    k = k + 1;", "  }", "}"]
    lines += ["int main() {"]
    lines += [f"  pthread_create(h{i}, w{i});" for i in range(n_threads)]
    lines += [f"  pthread_join(h{i});" for i in range(n_threads)]
    lines += [f"  assert(c == {n_threads * trips});", "}"]
    return "\n".join(lines) + "\n"


# main creates w, writes a and stops; w writes b three times. The runs
# (create, a = 1, b = 1, b = 2) and (create, b = 1, a = 1, b = 2) reach
# the same state, with one context switch and with three
SWITCH_PROBE = """int a = 0;
int b = 0;
pthread_t h;
void w() {
  b = 1;
  b = 2;
  b = 3;
}
int main() {
  pthread_create(h, w);
  a = 1;
  assume(0);
}
"""


# w1 and w2 add to c under a lock, w1 also to d outside it; main reads c
# between the creates, so its two sites see racing values
RACING_SITES = """int c = 0;
int d = 0;
pthread_mutex_t m;
pthread_t h1;
pthread_t h2;
void w1() {
  pthread_mutex_lock(m);
  c = c + 1;
  pthread_mutex_unlock(m);
  d = d + 1;
}
void w2() {
  pthread_mutex_lock(m);
  c = c + 2;
  pthread_mutex_unlock(m);
}
int main() {
  int k;
  pthread_create(h1, w1);
  k = c;
  pthread_create(h2, w2);
  d = d + k;
  pthread_join(h1);
  pthread_join(h2);
  assert(c + d != 5);
}
"""


class TestStateCache:
    """The finished-state cache skips only states whose subtree is part of
    one that found nothing, so every observable result equals the uncached
    search's."""

    @staticmethod
    def _agree(program, config, sites=None, label=None):
        """The cached and the uncached summary, checked to agree. Without
        sites, verify's result is checked as well, and the cached summary
        is the ordered search's, whose states the cache bounds."""
        mine = _cached(program, config, sites)
        theirs = uncached(program, config, sites=sites)
        assert mine[:4] == theirs[:4], label
        if sites is None:
            mine = _ordered(program, config)[0]
            assert mine[:4] == theirs[:4], label
        assert mine[4] <= theirs[4], label
        return mine, theirs

    @pytest.mark.parametrize("port", sorted(
        path.stem for path in BENCH_DIR.glob("*.mc")))
    def test_ports(self, port):
        p = parse((BENCH_DIR / f"{port}.mc").read_text())
        for deadlock in (False, True):
            self._agree(p, VerifierConfig(deadlock_check=deadlock))

    @pytest.mark.parametrize("deadlock", [False, True])
    @pytest.mark.parametrize("context_bound", [3, 4])
    def test_generated_programs(self, deadlock, context_bound):
        cfg = VerifierConfig(context_bound=context_bound,
                             deadlock_check=deadlock)
        for seed in range(150):
            self._agree(parse(generate_source(seed, with_div=True)), cfg,
                        label=seed)

    @pytest.mark.parametrize("trips,context_bound",
                             [(1, 4), (1, 3), (2, 3), (2, 2)])
    def test_three_locked_threads(self, trips, context_bound):
        p = parse(_locked_workers(3, trips))
        mine, theirs = self._agree(
            p, VerifierConfig(context_bound=context_bound))
        assert mine[0] == "safe-within-bounds"
        assert mine[4] < theirs[4]

    @pytest.mark.parametrize("port", ["account", "circular_buffer",
                                      "single_fault"])
    def test_diagnosis_models(self, port):
        p = parse((BENCH_DIR / f"{port}.mc").read_text())
        cfg = VerifierConfig(deadlock_check=True)
        cex = verify(p, cfg).counterexample
        seq = sequentialize(p, extract_schedule(cex),
                            cex.violation.kind == "deadlock")
        seq_cfg = replace(cfg, context_bound=0, deadlock_check=False)
        compiled = CompiledProgram(seq.program)
        sites = site_picks(seq)
        self._agree(compiled, seq_cfg, sites)
        # a site search runs uncached, so nothing is skipped
        assert verify(compiled, seq_cfg, sites=sites).pruned == 0

    @pytest.mark.parametrize("check,states", [("== 1", 189), ("> 1", 189)])
    def test_site_searches_do_not_cache(self, check, states):
        # both orders of the workers' first statements reach the same state
        # before main reaches the site g = 0, and the first order's subtree
        # defers the pick; the site search skips neither, and searches both.
        # The unchanged g = 0 fails both checks, and the pick g = 1 passes
        # the first
        p = parse("""int x = 0;
int y = 0;
pthread_t h1;
pthread_t h2;
void w1() {
  x = 1;
  x = 2;
}
void w2() {
  y = 1;
  y = 2;
}
int main() {
  int g;
  pthread_create(h1, w1);
  pthread_create(h2, w2);
  g = 0;
  assert(g CHECK);
}
""".replace("CHECK", check))
        mine, theirs = self._agree(p, VerifierConfig(), {12: Nondet(1, 1)})
        assert [g[0] for g in mine[3]] == ([12] if check == "== 1" else [])
        result = verify(p, VerifierConfig(), sites={12: Nondet(1, 1)})
        assert (result.states, result.pruned) == (states, 0)

    @pytest.mark.parametrize("deadlock", [False, True])
    @pytest.mark.parametrize("context_bound", [1, 2, 4])
    def test_threaded_site_searches(self, deadlock, context_bound):
        cfg = VerifierConfig(context_bound=context_bound,
                             deadlock_check=deadlock)
        # lines 15 and 17: k = c and d = d + k in main
        self._agree(parse(RACING_SITES), cfg,
                    {15: Nondet(0, 3), 17: Nondet(0, 3)})
        for seed in range(150):
            p = parse(generate_source(seed, with_div=True))
            lines = [s.line for s in p.main.body.stmts
                     if isinstance(s, Assign)]
            if lines:
                self._agree(p, cfg, {line: Nondet(0, 2) for line in lines},
                            label=seed)

    def test_thread_locals_are_part_of_the_state(self):
        # the two values of t leave equal globals; t = 0 finishes first
        p = parse("""pthread_t h;
void w() {
  int t;
  t = nondet(0, 1);
  assert(t == 0);
}
int main() {
  pthread_create(h, w);
  pthread_join(h);
}
""")
        assert self._agree(p, VerifierConfig())[0][0] == "violation"

    def test_mutex_owner_is_part_of_the_state(self):
        # w holds m or not when it exits; holding it finishes first
        p = parse("""int x = 0;
pthread_mutex_t m;
pthread_t h;
void w() {
  if (nondet(0, 1) == 0) {
    pthread_mutex_lock(m);
  }
  x = 1;
}
int main() {
  pthread_create(h, w);
  pthread_join(h);
  pthread_mutex_lock(m);
  assert(x == 0);
}
""")
        assert self._agree(p, VerifierConfig())[0][0] == "violation"

    def test_state_equal_to_an_ancestor_is_not_skipped(self):
        # both threads loop forever without changing a thing, so every
        # state recurs below itself, where its subtree is not finished
        p = parse("""int x = 0;
pthread_t h;
void w() {
  int j;
  for (j = 0; j < 1; j = j) {
    x = 1;
  }
}
int main() {
  int i;
  pthread_create(h, w);
  for (i = 0; i < 1; i = i) {
    x = 0;
  }
}
""")
        cfg = VerifierConfig(max_states=5000)
        ordered = _ordered(p, cfg)[0]
        assert (ordered[0], ordered[4]) == ("resource-exhausted", 5001)
        assert ordered == uncached(p, cfg)
        # verify runs out in the reduced search, which leaves the ordered
        # one nothing of max_states
        result = verify(p, cfg)
        assert (result.outcome, result.reduced_states, result.states,
                result.ordered_rerun) == ("resource-exhausted", 5001,
                                          5001, False)

    def test_counts_repeat(self):
        p = parse(_locked_workers(2, 2))
        first = verify(p, VerifierConfig())
        again = verify(p, VerifierConfig())
        assert (first.states, first.pruned, first.reduced_states,
                first.reductions) == (again.states, again.pruned,
                                      again.reduced_states, again.reductions)
        assert first.outcome == "safe-within-bounds"
        assert first.pruned > 0 and first.reductions > 0

    @pytest.mark.parametrize("trips,context_bound,ordered,reduced", [
        (1, 3, (1900, 584), (348, 46)), (1, 4, (2898, 2779), (445, 98)),
        (2, 3, (5761, 1312), (917, 106)), (2, 4, (9520, 8534), (1211, 289))])
    def test_counts_are_pinned(self, trips, context_bound, ordered, reduced):
        # exact (states, pruned) of the ordered search and of verify, for
        # later changes to the search to cite
        p = parse(_locked_workers(3, trips))
        config = VerifierConfig(context_bound=context_bound)
        summary, pruned = _ordered(p, config)
        assert (summary[0], summary[4], pruned) == \
            ("safe-within-bounds", *ordered)
        result = verify(p, config)
        assert (result.outcome, result.states, result.pruned) == \
            ("safe-within-bounds", *reduced)

    def test_fewer_switches_cover_more(self):
        summary, pruned = _ordered(parse(SWITCH_PROBE),
                                   VerifierConfig(context_bound=3))
        assert (summary[0], summary[4], pruned) == \
            ("safe-within-bounds", 13, 1)
        # w touches only b, which main never touches, so w runs on alone
        result = verify(parse(SWITCH_PROBE), VerifierConfig(context_bound=3))
        assert (result.outcome, result.states, result.pruned) == \
            ("safe-within-bounds", 6, 0)

    def test_first_path_keeps_exact_switch_counts(self):
        # every path on which main reaches assume(0) dies; the first leaf
        # runs main's a = 1 between w's steps and, with all three switches
        # used, ends on the budget once w exits
        kind, steps, valuation = first_path(parse(SWITCH_PROBE),
                                            VerifierConfig(context_bound=3))
        assert kind == "budget"
        assert [(s.thread, s.line) for s in steps] == [
            (0, 7), (1, 4), (0, 8), (1, 5), (1, 6)]
        assert valuation == {"a": 1, "b": 3}

    def test_single_thread_prunes_nothing(self):
        # both nondet values reach the same state, but with one live
        # thread no state is keyed
        p = parse("int x = 0;\nint main(){ x = nondet(); x = 0; "
                  "assert(x == 0); return 0; }")
        result = verify(p, VerifierConfig())
        assert result.outcome == "safe-within-bounds"
        assert result.pruned == 0


def _diagnosis_models(family, config):
    """(name, instrumented model) of every program of the family whose
    first verify under config violates, built the way localize builds
    them; the ports with the deadlock check off and on."""
    if family == "ports":
        sources = [(f"{path.stem}/{deadlock}", path.read_text(), deadlock)
                   for path in sorted(BENCH_DIR.glob("*.mc"))
                   for deadlock in (False, True)]
    elif family == "division":
        sources = [(seed, generate_source(seed, with_div=True), True)
                   for seed in range(300)]
    elif family == "threads3":
        sources = [(seed, generate_source(seed, max_threads=3), True)
                   for seed in range(150)]
    else:
        sources = [(seed, generate_callee_source(seed), True)
                   for seed in range(200)]
    for name, source, deadlock in sources:
        p = parse(source)
        first = verify(p, replace(config, deadlock_check=deadlock))
        if first.outcome != "violation":
            continue
        cex = first.counterexample
        try:
            seq = sequentialize(p, extract_schedule(cex),
                                cex.violation.kind == "deadlock")
            yield name, instrument(seq)
        except (NothingToInstrument, UnsupportedScheduleError):
            continue


class TestLazyDiagnosis:
    """The site search decides diag lazily; the search that draws it at
    the root of the model, kept as oracles.uncached(group_by=...), is the
    reference, under the model's two rules: only the final assert(0)
    counts on a path with a nonzero diag, and a wrap site keeps the value
    it draws first. Wherever neither runs out, the site search over the
    sequential program finds the same diagnoses, by line, each with the
    witness the reference's path drew first at the site, and ends the
    same way; and it never expands more states."""

    @pytest.mark.parametrize("family", ["ports", "division", "threads3",
                                        "callee"])
    @pytest.mark.parametrize("config", [
        VerifierConfig(), VerifierConfig(nondet_domain=(-2, 3),
                                         context_bound=2)],
        ids=["defaults", "narrow"])
    def test_matches_the_root_draw(self, family, config):
        seq_cfg = replace(config, context_bound=0, deadlock_check=False)
        compared = 0
        for name, model in _diagnosis_models(family, config):
            lazy = verify(CompiledProgram(model.seq.program), seq_cfg,
                          sites=site_picks(model.seq))
            mine = [(g.site, g.witness) for g in lazy.records]
            outcome, _, _, groups, states = uncached(
                model.program, seq_cfg, group_by=model.diag_var,
                goal=model.assert_false_line, fixed=model.wrap_sites)
            theirs = [(value, next((v for line, v in choices
                                    if line == model.wrap_sites.get(value)),
                                   None))
                      for value, _, choices in groups]
            assert lazy.states <= states, name
            if "resource-exhausted" in (lazy.outcome, outcome):
                continue
            assert (mine, lazy.outcome) == (theirs, outcome), name
            compared += 1
        assert compared > 0

    def test_bign_finishes_where_the_root_draw_runs_out(self):
        # 1,200 states cover the one search of bigN at N = 30 (971),
        # but not the root draw (1,646)
        config = VerifierConfig(max_states=1200)
        report = localize(parse(bign_source(30)), config)
        assert report.status == "faults-found"
        assert len(report.diagnoses) == 31
        assert all(d.oracle_validated for d in report.diagnoses)
        model = report.instrumented
        assert uncached(model.program, replace(
            config, context_bound=0, deadlock_check=False),
            group_by=model.diag_var)[0] == "resource-exhausted"

    def test_counts_are_pinned(self, monkeypatch):
        # exact states of the one search of the benchmark's straightline
        # workload (N = 100, seed 1); the root draw expanded 12,356, and the
        # two searches it replaced 6,679 (diagnosis) and 6,771 (validation)
        monkeypatch.syspath_prepend(str(BENCH_DIR.parents[2] / "perfbench"))
        from workloads import straightline
        ((_, source),) = straightline(1, n=100)
        config = VerifierConfig()
        report = localize(parse(source), config)
        assert len(report.diagnoses) == 101
        assert all(d.oracle_validated for d in report.diagnoses)
        seq = report.sequential
        result = verify(CompiledProgram(seq.program), replace(
            config, context_bound=0, deadlock_check=False),
            sites=site_picks(seq))
        assert result.states == 6676 <= 7000

    def test_corpus_counts_are_pinned(self, monkeypatch):
        # exact states of the site searches over the benchmark's corpus
        # workload (309 programs, seed 1) at CLI defaults; with one value
        # of a pick per path they expanded 47,999
        monkeypatch.syspath_prepend(str(BENCH_DIR.parents[2] / "perfbench"))
        from workloads import corpus
        states = []

        def counted(program, config, sites=None):
            result = verify(program, config, sites=sites)
            if sites is not None:
                states.append(result.states)
            return result

        monkeypatch.setattr(mcfl.localizer, "verify", counted)
        programs = corpus(1)
        for _, source in programs:
            localize(parse(source), VerifierConfig())
        assert len(programs) == 309
        assert sum(states) == 20877 <= 24000


def _reduction_cases(step):
    """(label, program, config) of every program of the reduction's
    differential sweep whose index is a multiple of step, under each
    config. Loop bound 1 cuts the generated loops, which run up to twice."""
    sources = [(f"port {path.stem}", path.read_text())
               for path in sorted(BENCH_DIR.glob("*.mc"))]
    sources += [(f"division {seed}", generate_source(seed, with_div=True))
                for seed in range(300)]
    sources += [(f"threads3 {seed}", generate_source(seed, max_threads=3))
                for seed in range(150)]
    sources += [(f"unlocked {seed}", generate_source(
        seed, max_threads=3, with_locks=False)) for seed in range(100)]
    sources += [(f"wide {seed}", generate_source(
        seed, max_threads=3, max_stmts=9, shared_vars=3))
        for seed in range(100)]
    configs = [VerifierConfig(), VerifierConfig(deadlock_check=True),
               VerifierConfig(context_bound=2, loop_bound=2,
                              nondet_domain=(-2, 3)),
               VerifierConfig(context_bound=1, nondet_domain=(0, 2)),
               VerifierConfig(loop_bound=1),
               VerifierConfig(context_bound=2, loop_bound=1,
                              deadlock_check=True)]
    return [(label, source, config) for label, source in sources[::step]
            for config in configs]

# w1 changes g twice under m and checks it; w2 frees m without holding it,
# so main's store to g under m can come between w1's steps
FOREIGN_UNLOCK = """int g = 0;
pthread_mutex_t m;
pthread_t h1;
pthread_t h2;
void w1() {
  pthread_mutex_lock(m);
  g = 1;
  g = g + 1;
  assert(g == 2);
  pthread_mutex_unlock(m);
}
void w2() {
  pthread_mutex_unlock(m);
}
int main() {
  pthread_create(h1, w1);
  pthread_create(h2, w2);
  pthread_mutex_lock(m);
  g = 5;
  pthread_mutex_unlock(m);
}
"""

# as FOREIGN_UNLOCK, but w2's wait is what frees m
FOREIGN_WAIT = FOREIGN_UNLOCK.replace(
    "pthread_t h1;", "pthread_cond_t c;\npthread_t h1;").replace(
    "  pthread_mutex_unlock(m);\n}\nint main", "  pthread_cond_wait(c, m);\n"
    "}\nint main")

# main waits for w1's f = 1; its join then waits for w2, which the second
# create points h to, so main's store to g can come between w1's steps
TWICE_CREATED = """int f = 0;
int g = 0;
pthread_t h;
void w1() {
  f = 1;
  g = 1;
  g = g + 1;
  assert(g == 2);
}
void w2() {
}
int main() {
  pthread_create(h, w1);
  assume(f == 1);
  pthread_create(h, w2);
  pthread_join(h);
  g = 5;
}
"""

# main's assert fails only after w's g = 1, and w's next steps touch only
# its own k; the last one kills every path (STEP is the killing statement)
KILLED_STEP = """int g = 0;
pthread_t h;
void w() {
  int k;
  g = 1;
  k = 0;
  STEP
}
int main() {
  pthread_create(h, w);
  assert(g == 0);
}
"""

# main's assume passes only after w's g = 1; w's next steps touch no
# global, and its array read is out of range
ERROR_REORDERED = """int a[2] = {0, 0};
int g = 0;
pthread_t h;
void w() {
  int k;
  g = 1;
  k = 5;
  k = a[k];
}
int main() {
  pthread_create(h, w);
  assume(g == 1);
  assert(0);
}
"""


class TestReduction:
    """verify's reduced search, and the ordered search it falls back on,
    give the ordered search's outcome, counterexample, loop-bound flag
    and exception."""

    @staticmethod
    def _agree(program, config, label=None):
        """verify's result, checked to have the ordered search's outcome,
        counterexample and loop-bound flag; None where both raise the same
        exception."""
        try:
            theirs = _ordered(program, config)[0][:3]
        except ModelError as exc:
            with pytest.raises(type(exc)):
                verify(program, config)
            return None
        result = verify(program, config)
        cex = result.counterexample
        assert (result.outcome, counterexample_to_json(cex) if cex else None,
                result.bound_hit) == theirs, label
        return result

    def test_matches_the_ordered_search(self):
        # a slice of the sweep (see CHANGES.md for the whole one)
        reran = 0
        for label, source, config in _reduction_cases(4):
            result = self._agree(parse(source), config, label)
            reran += result is not None and result.ordered_rerun
        assert reran > 0

    @pytest.mark.parametrize("source", [FOREIGN_UNLOCK, FOREIGN_WAIT,
                                        TWICE_CREATED],
                             ids=["unlock", "wait", "create"])
    def test_guards(self, source):
        # reading the mutex as held, or the join as waiting for w1, would
        # run w1 on alone and miss the violation
        p = parse(source)
        assert self._agree(p, VerifierConfig()).outcome == "violation"

    @pytest.mark.parametrize("step", ["assume(k == 1);",
                                      "while (k == 0) {\n  }"])
    def test_killed_step_is_not_run_alone(self, step):
        p = parse(KILLED_STEP.replace("STEP", step))
        assert self._agree(p, VerifierConfig()).outcome == "violation"

    def test_error_reached_first_in_reduced_order(self):
        p = parse(ERROR_REORDERED)
        assert self._agree(p, VerifierConfig()).outcome == "violation"
        with pytest.raises(ModelError):
            _explore(_Machine(CompiledProgram(p), VerifierConfig()),
                     reduce=True)

    def test_user_loop_without_progress_runs_out(self):
        p = parse("""int x = 0;
pthread_t h;
void w() {
  int i;
  for (i = 0; i < 1; i = i) {
    x = x + 1;
  }
}
int main() {
  pthread_create(h, w);
  pthread_join(h);
  assert(x == 0);
}
""")
        config = VerifierConfig(max_states=2000)
        assert self._agree(p, config).outcome == "resource-exhausted"

    def test_sequential_search_builds_no_analysis(self):
        compiled = CompiledProgram(parse(
            "int x = 0;\nint main(){ x = nondet(); assert(x < 8); }"))
        assert verify(compiled, VerifierConfig()).outcome == "violation"
        assert compiled._independence is None
