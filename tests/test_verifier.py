"""Bounded exploration, replay and schedule extraction."""

from dataclasses import replace

import pytest

from mcfl.instrumenter import NothingToInstrument, instrument
from mcfl.localizer import _diag_header, _diag_sites, _diagnose, localize
from mcfl.parser import parse
from mcfl.sequentializer import sequentialize, unwind_calls
from mcfl.syntax import Assign, IntLit, Nondet
from mcfl.verifier import (
    CompiledProgram,
    ContextSwitchRecord,
    Counterexample,
    ModelError,
    TraceMismatch,
    TraceStep,
    UnsupportedScheduleError,
    VerifierConfig,
    Violation,
    _build_counterexample,
    _explore,
    _Machine,
    _Reduction,
    _SiteSearch,
    _unlink,
    counterexample_from_json,
    counterexample_to_json,
    extract_schedule,
    first_path,
    passing_sites,
    replay,
    verify,
)

from conftest import BENCH_DIR, bign_source
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
# the unchanged path (v = w = 0) fails the second assume
SITES = """int main() {
  int v;
  int w;
  v = 0;
  assume(v != 1);
  w = 0;
  assume(v + w > 0);
  assert(w == 9);
}
"""
SITE_PICKS = {3: Nondet(0, 2), 5: Nondet(0, 2)}


class TestSiteSearch:
    def test_first_violation_of_each_site(self, default_config):
        result = verify(parse(SITES), default_config, sites=SITE_PICKS)
        assert result.outcome == "safe-within-bounds"
        assert result.counterexample is None
        assert result.states > 0
        # v = 1 never gets past its assume; the later violation of line 5
        # (w = 2) is skipped with the rest of its subtree
        assert [(f.site, f.violation, f.nondet_choices)
                for f in result.records] == [
            (3, Violation("assertion", 7), [(3, 2)]),
            (5, Violation("assertion", 7), [(5, 1)]),
        ]
        plain = verify(parse(SITES.replace("v = 0;", "v = nondet(0, 2);")),
                       default_config)
        assert plain.counterexample.nondet_choices == \
            result.records[0].nondet_choices

    def test_undecided_violation_ends_the_search(self, default_config):
        p = parse(SITES.replace("v + w > 0", "v + w >= 0"))
        result = verify(p, default_config, sites=SITE_PICKS)
        assert result.outcome == "violation"
        assert [(f.site, f.nondet_choices) for f in result.records] == \
            [(0, [])]

    def test_budget_bounds_the_whole_search(self, default_config):
        cfg = VerifierConfig(max_states=15)
        result = verify(parse(SITES), cfg, sites=SITE_PICKS)
        assert result.outcome == "resource-exhausted"
        assert [f.site for f in result.records] == [3]

    def test_records_come_by_line(self, default_config):
        # c = 0 skips line 5 and picks line 6 first; the record of line 5
        # still comes first
        p = parse("""int main() {
  int c;
  int x;
  c = nondet(0, 1);
  if (c == 1) { x = 0; }
  x = x;
  assert(x == 0);
}
""")
        result = verify(p, default_config,
                        sites={5: Nondet(1, 1), 6: Nondet(1, 1)})
        assert [(f.site, f.nondet_choices) for f in result.records] == [
            (5, [(3, 1), (5, 1)]), (6, [(3, 0), (6, 1)])]

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
        assert passing_sites(p, default_config,
                             {2: IntLit(1), 3: IntLit(5)})[0] == {3}
        result = verify(p, default_config, sites={2: Nondet(1, 1)})
        assert (result.outcome, result.bound_hit, result.records) == \
            ("safe-within-bounds", True, [])


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


def _uncached(program, config, group_by=None, sites=None):
    """Reference search without the finished-state cache: the DFS loop the
    verifier ran before it had one, kept only here. With group_by, the
    grouped search that draws the value of that local of main at the root
    and records the first violation of each nonzero value, in discovery
    order; with sites, the verifier's lazy-decision search. Returns the
    summary _cached returns."""
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program)
    search = None
    if sites is not None:
        compiled = compiled.with_sites(sites)
        search = _SiteSearch(sites, every_path=False)
    machine = _Machine(compiled, config)
    groups = []
    stack = [("state", machine.initial_state())]
    visited = 0

    def group_value(state):
        return machine.variables(state, 0).get(group_by)

    def violated(violation, state):
        cex = None
        if group_by is None and search is None:
            cex = counterexample_to_json(_build_counterexample(
                compiled, _unlink(state.trace), _unlink(state.choices),
                violation))
        return ("violation", cex, machine.bound_hit, records(), visited)

    def records():
        if search is None:
            return groups
        return [(g.site, g.violation, g.nondet_choices)
                for _, g in sorted(search.records.items())]

    while stack or search is not None and search.next_pick(machine, stack):
        kind = stack.pop()
        if kind[0] == "violation":
            if search is not None:
                if search.fail(kind[1], kind[2].control.decision, kind[2],
                               stack):
                    return violated(kind[1], kind[2])
                continue
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
            return ("resource-exhausted", None, machine.bound_hit, records(),
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
            if search is not None and not state.control.decision[0]:
                search.defer(machine, state, tid)
            for outcome in machine.step(state, tid):
                if outcome[0] == "kill":
                    if outcome[1] == "bound":
                        pushes.append(("cut", outcome[2], state))
                    continue
                pushes.append(outcome)
        stack.extend(reversed(pushes))
    return ("safe-within-bounds", None, machine.bound_hit, records(), visited)


def _cached(program, config, sites=None):
    """(outcome, counterexample JSON, bound_hit, records, states)."""
    result = verify(program, config, sites=sites)
    cex = result.counterexample
    return (result.outcome, counterexample_to_json(cex) if cex else None,
            result.bound_hit,
            [(g.site, g.violation, g.nondet_choices) for g in result.records],
            result.states)


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
    result = _explore(machine)
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
        theirs = _uncached(program, config, sites=sites)
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
        model = instrument(sequentialize(
            p, extract_schedule(cex), cex.violation.kind == "deadlock"))
        seq_cfg = replace(cfg, context_bound=0, deadlock_check=False)
        compiled = CompiledProgram(model.program).with_constant(
            _diag_header(model), 0)
        sites = _diag_sites(model)
        self._agree(compiled, seq_cfg, sites)
        # one thread: no state is keyed, so nothing is skipped
        assert verify(compiled, seq_cfg, sites=sites).pruned == 0

    @pytest.mark.parametrize("check,counts", [
        ("== 0", (131, 26)), ("< 5", (225, 52))])
    def test_subtree_that_deferred_a_pick_is_not_cached(self, check,
                                                        counts):
        # both orders of the workers' first statements reach the same state
        # before main reaches the site g = 0; the first order's subtree
        # defers the pick, which is still to run when its marker pops, so
        # the second is searched as well. (Caching it would expand 118 and
        # 210 states, with the same records.)
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
        assert [g[0] for g in mine[3]] == ([12] if check == "== 0" else [])
        result = verify(p, VerifierConfig(), sites={12: Nondet(1, 1)})
        assert (result.states, result.pruned) == counts

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
        assert ordered == _uncached(p, cfg)
        # verify runs out in the reduced search, then in the ordered one
        result = verify(p, cfg)
        assert (result.outcome, result.reduced_states, result.states,
                result.ordered_rerun) == ("resource-exhausted", 5001,
                                          10002, True)

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
        # the state's subtree with one switch used finishes without a leaf;
        # with three used, b = 3 ends on the budget, which is the uncached
        # search's first leaf
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
    """The diagnosis search decides diag lazily; the search that draws it
    at the root, kept here as _uncached(group_by=...), is the reference.
    Wherever neither runs out, both give the same records (line,
    violation, and nondet choices without the header draw), outcome and
    loop-bound flag, and the lazy search never expands more states."""

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
            lazy = _diagnose(model, config)
            diag_of_site = {site: d for d, site in model.wrap_sites.items()}
            mine = [(diag_of_site.get(g.site, 0), g.violation,
                     g.nondet_choices) for g in lazy.records]
            outcome, _, bound_hit, groups, states = _uncached(
                model.program, seq_cfg, group_by=model.diag_var)
            header = _diag_header(model)
            assert all(choices[0][0] == header for *_, choices in groups)
            theirs = [(value, violation, choices[1:])
                      for value, violation, choices in groups]
            assert lazy.states <= states, name
            if "resource-exhausted" in (lazy.outcome, outcome):
                continue
            assert (mine, lazy.outcome, lazy.bound_hit) == \
                (theirs, outcome, bound_hit), name
            compared += 1
        assert compared > 0

    def test_bign_finishes_where_the_root_draw_runs_out(self):
        # 1,200 states cover the lazy search (974) and the validation
        # (996) of bigN at N = 30, but not the root draw (1,646)
        config = VerifierConfig(max_states=1200)
        report = localize(parse(bign_source(30)), config)
        assert report.status == "faults-found"
        assert len(report.diagnoses) == 31
        assert all(d.oracle_validated for d in report.diagnoses)
        model = report.instrumented
        assert _uncached(model.program, replace(
            config, context_bound=0, deadlock_check=False),
            group_by=model.diag_var)[0] == "resource-exhausted"

    def test_counts_are_pinned(self, monkeypatch):
        # exact states of the diagnosis search and of the validation of
        # the benchmark's straightline workload (N = 100, seed 1); the root
        # draw expanded 12,356 and the per-line validations 12,221
        monkeypatch.syspath_prepend(str(BENCH_DIR.parents[2] / "perfbench"))
        from workloads import straightline
        ((_, source),) = straightline(1, n=100)
        config = VerifierConfig()
        report = localize(parse(source), config)
        assert len(report.diagnoses) == 101
        witnesses = {d.seq_line: IntLit(d.witness_value)
                     for d in report.diagnoses}
        seq_cfg = replace(config, context_bound=0, deadlock_check=False)
        passing, states = passing_sites(
            CompiledProgram(report.sequential.program), seq_cfg, witnesses)
        assert passing == set(witnesses)
        assert (_diagnose(report.instrumented, config).states, states) == \
            (6679, 6771)


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
                     reduction=_Reduction(CompiledProgram(p)))

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
