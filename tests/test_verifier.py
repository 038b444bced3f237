"""Bounded exploration, replay and schedule extraction."""

import pytest

from mcfl.parser import parse
from mcfl.sequentializer import unwind_calls
from mcfl.verifier import (
    ContextSwitchRecord,
    Counterexample,
    TraceMismatch,
    TraceStep,
    UnsupportedScheduleError,
    VerifierConfig,
    Violation,
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


class TestCounterexampleJson:
    def test_round_trip(self, single_fault_program, default_config):
        cex = verify(single_fault_program, default_config).counterexample
        text = counterexample_to_json(cex)
        loaded = counterexample_from_json(text)
        assert loaded == cex
        assert counterexample_to_json(loaded) == text
