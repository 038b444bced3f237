"""Bounded exploration, replay and schedule extraction."""

from dataclasses import replace

import pytest

from mcfl.instrumenter import instrument
from mcfl.parser import parse
from mcfl.sequentializer import sequentialize, unwind_calls
from mcfl.verifier import (
    CompiledProgram,
    ContextSwitchRecord,
    Counterexample,
    TraceMismatch,
    TraceStep,
    UnsupportedScheduleError,
    VerifierConfig,
    Violation,
    _build_counterexample,
    _Machine,
    _unlink,
    counterexample_from_json,
    counterexample_to_json,
    extract_schedule,
    first_path,
    replay,
    verify,
)

from conftest import BENCH_DIR
from oracles import naive_violates
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

    def test_wraparound_arithmetic(self):
        p = parse("int big = 9223372036854775807;\n"
                  "int main(){ int x; x = big + 1; "
                  "assert(x < 0); return 0; }")
        assert verify(p, VerifierConfig()).outcome == "safe-within-bounds"


GROUPED = """int main() {
  int g;
  int v;
  g = nondet(1, 3);
  assume(g != 2);
  v = nondet(0, 2);
  assume(v >= g - 1);
  assert(v == 9);
}
"""


class TestGroupedSearch:
    def test_first_violation_of_each_group_value(self, default_config):
        result = verify(parse(GROUPED), default_config, group_by="g")
        assert result.outcome == "safe-within-bounds"
        assert result.counterexample is None
        assert result.states > 0
        # g = 2 never gets past its assume; the later violations of g = 1
        # (v = 1 and v = 2) are skipped with the rest of its subtree
        assert [(f.value, f.violation, f.nondet_choices)
                for f in result.groups] == [
            (1, Violation("assertion", 7), [(3, 1), (5, 0)]),
            (3, Violation("assertion", 7), [(3, 3), (5, 2)]),
        ]
        plain = verify(parse(GROUPED), default_config)
        assert plain.counterexample.nondet_choices == \
            result.groups[0].nondet_choices

    def test_zero_group_value_ends_the_search(self, default_config):
        p = parse(GROUPED.replace("nondet(1, 3)", "nondet(0, 3)"))
        result = verify(p, default_config, group_by="g")
        assert result.outcome == "violation"
        assert [(f.value, f.nondet_choices) for f in result.groups] == \
            [(0, [(3, 0), (5, 0)])]

    def test_budget_bounds_the_whole_search(self, default_config):
        cfg = VerifierConfig(max_states=9)
        result = verify(parse(GROUPED), cfg, group_by="g")
        assert result.outcome == "resource-exhausted"
        assert [f.value for f in result.groups] == [1]


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
        assert sched.per_thread_counts == {}

    def test_main_then_t2_then_t1(self):
        sched = extract_schedule(_hand_trace([0, 2, 1]))
        assert sched.order_tags == [11, 31, 21]

    def test_thread_one_split_by_thread_two(self):
        sched = extract_schedule(_hand_trace([0, 1, 2, 1]))
        assert sched.order_tags == [11, 21, 31, 22]
        assert [t % 10 for t in sched.order_tags] == [1, 1, 1, 2]
        assert sched.per_thread_counts == {0: 1, 1: 1, 2: 1}

    def test_too_many_segments_rejected(self):
        threads = [0]
        for _ in range(10):
            threads += [1, 0]
        with pytest.raises(UnsupportedScheduleError):
            extract_schedule(_hand_trace(threads))

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
                summary.append(("state", outcome[1].globals["x"],
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


def _uncached(program, config, group_by=None):
    """Reference search without the finished-state cache: the DFS loop the
    verifier ran before it had one, kept only here. Returns the summary
    _cached returns."""
    compiled = CompiledProgram(program)
    machine = _Machine(compiled, config)
    groups = []
    stack = [("state", machine.initial_state())]
    visited = 0

    def group_value(state):
        return state.threads[0].locals.get(group_by)

    def violated(violation, state):
        cex = None
        if group_by is None:
            cex = counterexample_to_json(_build_counterexample(
                compiled, _unlink(state.trace), _unlink(state.choices),
                violation))
        return ("violation", cex, machine.bound_hit, groups, 0)

    while stack:
        kind = stack.pop()
        if kind[0] == "violation":
            if group_by is not None:
                value = group_value(kind[2])
                groups.append((value, kind[1], _unlink(kind[2].choices)))
                if value:
                    while stack and group_value(stack[-1][-1]) == value:
                        stack.pop()
                    continue
            return violated(kind[1], kind[2])
        if kind[0] == "cut":
            machine.bound_hit = True
            continue
        state = kind[1]
        visited += 1
        if visited > config.max_states:
            return ("resource-exhausted", None, machine.bound_hit, groups,
                    visited)
        live = machine.live_threads(state)
        classes = {tid: machine.classify(state, tid) for tid in live}
        eligible = [tid for tid in live if classes[tid] == "eligible"]
        if live and not eligible:
            if config.deadlock_check and all(
                    c == "sync" for c in classes.values()):
                return violated(
                    Violation("deadlock", None, tuple(sorted(live))), state)
            continue
        pushes = []
        for tid in eligible:
            if state.last_thread not in (None, tid) and \
                    state.switches >= config.context_bound:
                continue
            for outcome in machine.step(state, tid):
                if outcome[0] == "kill":
                    if outcome[1] == "bound":
                        pushes.append(("cut", state))
                    continue
                pushes.append(outcome)
        stack.extend(reversed(pushes))
    return ("safe-within-bounds", None, machine.bound_hit, groups, visited)


def _cached(program, config, group_by=None):
    """(outcome, counterexample JSON, bound_hit, groups, states)."""
    result = verify(program, config, group_by=group_by)
    cex = result.counterexample
    return (result.outcome, counterexample_to_json(cex) if cex else None,
            result.bound_hit,
            [(g.value, g.violation, g.nondet_choices) for g in result.groups],
            result.states)


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


class TestStateCache:
    """The finished-state cache skips only repeats of subtrees that found
    nothing, so every observable result equals the uncached search's."""

    @staticmethod
    def _agree(program, config, group_by=None, label=None):
        """The cached and the uncached summary, checked to agree."""
        mine = _cached(program, config, group_by)
        theirs = _uncached(program, config, group_by)
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
                             [(1, 4), (1, 3), (2, 3)])
    def test_three_locked_threads(self, trips, context_bound):
        p = parse(_locked_workers(3, trips))
        mine, theirs = self._agree(
            p, VerifierConfig(context_bound=context_bound))
        assert mine[0] == "safe-within-bounds"
        assert mine[4] < theirs[4]

    @pytest.mark.parametrize("port", ["account", "circular_buffer",
                                      "single_fault"])
    def test_grouped_diagnosis_models(self, port):
        p = parse((BENCH_DIR / f"{port}.mc").read_text())
        cfg = VerifierConfig(deadlock_check=True)
        cex = verify(p, cfg).counterexample
        model = instrument(sequentialize(
            p, extract_schedule(cex), cex.violation.kind == "deadlock"))
        seq_cfg = replace(cfg, context_bound=0, deadlock_check=False)
        self._agree(model.program, seq_cfg, group_by=model.diag_var)
        # one thread: no state is keyed, so nothing is skipped
        assert verify(model.program, seq_cfg,
                      group_by=model.diag_var).pruned == 0

    def test_subtree_that_recorded_a_group_is_not_cached(self):
        # both orders of the workers' first statements reach the same state
        # before main draws g; the first order's subtree records g = 1, so
        # the second must be searched and record it again
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
  g = nondet(1, 1);
  assert(g == 0);
}
""")
        groups = self._agree(p, VerifierConfig(), group_by="g")[0][3]
        assert len(groups) > 1

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
        result = verify(p, cfg)
        assert (result.outcome, result.states) == ("resource-exhausted",
                                                   5001)
        assert _cached(p, cfg) == _uncached(p, cfg)

    def test_counts_repeat(self):
        p = parse(_locked_workers(2, 2))
        first = verify(p, VerifierConfig())
        again = verify(p, VerifierConfig())
        assert (first.states, first.pruned) == (again.states, again.pruned)
        assert first.outcome == "safe-within-bounds"
        assert first.pruned > 0

    def test_single_thread_prunes_nothing(self):
        # both nondet values reach the same state, but with one live
        # thread no state is keyed
        p = parse("int x = 0;\nint main(){ x = nondet(); x = 0; "
                  "assert(x == 0); return 0; }")
        result = verify(p, VerifierConfig())
        assert result.outcome == "safe-within-bounds"
        assert result.pruned == 0
