"""Independent brute-force oracles used to cross-check the engine.

The naive explorer reuses the single-step semantics but replaces the
search: breadth-first, descending thread order, no first-violation
discipline — only the safe/violating verdict is compared. The uncached
search is the verifier's depth-first loop as it was before the
finished-state cache, the partial-order reduction and the lazy site
decisions, kept as the reference for all three; its site search takes
one value of a pick per path, the exact search that verify runs after
its search with value sets meets a model error, so the differentials
against it check the value sets too. The two-search localizer
is the pipeline as it was before one search both diagnosed and validated.
The reference evaluator walks an expression's tree on every evaluation,
as the verifier did before it compiled each expression once; its
arithmetic is written apart from the verifier's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from mcfl.instrumenter import NothingToInstrument, instrument, site_picks
from mcfl.sequentializer import extract_schedule, sequentialize
from mcfl.syntax import (
    Assign,
    Binary,
    Index,
    IntLit,
    Nondet,
    Ternary,
    Unary,
    Var,
    clone,
    program_stmts,
)
from mcfl.verifier import (
    CompiledProgram,
    ModelError,
    VerifierConfig,
    Violation,
    _build_counterexample,
    _DivByZero,
    _entries,
    _Machine,
    _Site,
    _SiteSearch,
    _unlink,
    counterexample_to_json,
    verify,
)


def _wrap(v: int) -> int:
    """v in 64-bit two's complement."""
    return (v + 2 ** 63) % 2 ** 64 - 2 ** 63


def _apply(op: str, a: int, b: int) -> int:
    if op == "+":
        return _wrap(a + b)
    if op == "-":
        return _wrap(a - b)
    if op == "*":
        return _wrap(a * b)
    if op in ("/", "%"):
        if b == 0:
            raise _DivByZero
        q = a // b
        if q < 0 and q * b != a:
            q += 1  # C rounds toward zero, Python's // down
        return _wrap(q if op == "/" else a - b * q)
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    raise ModelError(f"unknown operator {op!r}")


def reference_eval(expr, ctx, scope: dict) -> int:
    """The value of expr on ctx's nondet path, its names looked up in scope
    (a Code's). Operands are evaluated left to right; && || ?: evaluate
    only what they need."""
    if isinstance(expr, IntLit):
        return _wrap(expr.value)
    if isinstance(expr, Var):
        where = scope.get(expr.name)
        if where is None:
            raise ModelError(f"read of unknown variable {expr.name!r}")
        return (ctx.globals if where[0] else ctx.locals)[where[1]]
    if isinstance(expr, Binary):
        left = reference_eval(expr.left, ctx, scope)
        if expr.op == "&&":
            return 1 if left != 0 and \
                reference_eval(expr.right, ctx, scope) != 0 else 0
        if expr.op == "||":
            return 1 if left != 0 or \
                reference_eval(expr.right, ctx, scope) != 0 else 0
        return _apply(expr.op, left, reference_eval(expr.right, ctx, scope))
    if isinstance(expr, Nondet):
        return ctx.draw(None if expr.lo is None else (expr.lo, expr.hi))
    if isinstance(expr, Index):
        array = ctx.machine.compiled.arrays.get(expr.name)
        if array is None:
            raise ModelError(f"unknown array {expr.name!r}")
        i = reference_eval(expr.index, ctx, scope)
        if not (0 <= i < len(array)):
            raise ModelError(
                f"array index {i} out of range for {expr.name!r}")
        return array[i]
    if isinstance(expr, Unary):
        v = reference_eval(expr.operand, ctx, scope)
        if expr.op == "-":
            return _wrap(-v)
        return 0 if v != 0 else 1
    if isinstance(expr, Ternary):
        cond = reference_eval(expr.cond, ctx, scope)
        return reference_eval(expr.then_expr if cond != 0
                              else expr.else_expr, ctx, scope)
    if isinstance(expr, _Site):
        return ctx.site(
            expr, lambda c: reference_eval(expr.default, c, scope),
            lambda c: reference_eval(expr.pick, c, scope))
    raise ModelError(f"cannot evaluate {expr!r}")


def naive_violates(program, config: VerifierConfig) -> bool:
    """True iff some bounded execution reaches a violation."""
    compiled = CompiledProgram(program)
    machine = _Machine(compiled, config)
    queue = deque([machine.initial_state()])
    seen = 0
    while queue:
        state = queue.popleft()
        seen += 1
        if seen > config.max_states:
            raise RuntimeError("oracle exceeded the state budget")
        live = machine.live_threads(state)
        if not live:
            continue
        classes = {tid: machine.classify(state, tid) for tid in live}
        eligible = [tid for tid in live if classes[tid] == "eligible"]
        if not eligible:
            if config.deadlock_check and all(
                    classes[tid] == "sync" for tid in live):
                return True
            continue
        for tid in sorted(eligible, reverse=True):
            if state.control.last_thread is not None and \
                    tid != state.control.last_thread \
                    and state.switches >= config.context_bound:
                continue
            for outcome in machine.step(state, tid):
                if outcome[0] == "violation":
                    return True
                if outcome[0] == "state":
                    queue.append(outcome[1])
    return False


def redrawn(state, site: int) -> bool:
    """Whether state's path drew two different values at line site."""
    return len({value for line, value in _unlink(state.choices)
                if line == site}) > 1


def uncached(program, config, group_by=None, sites=None, goal=None,
             fixed=None, first=False, search=None):
    """Reference search without the finished-state cache: the DFS loop the
    verifier ran before it had one. With group_by, the grouped search that
    draws the value of that local of main at the root and records the
    first violation of each nonzero value, in discovery order (with first,
    it stops at the first record); with sites, the verifier's exact
    lazy-decision search, one value of a pick per path, its records as
    (site, witness, validated), or the bookkeeping given as search, its
    results read by the caller.
    Returns (outcome, counterexample JSON, bound_hit, records, states).

    The grouped search takes the diagnosis model's two rules from goal and
    fixed: on a path with a nonzero value, a violation at a line other
    than goal ends the path, and the site fixed[value] keeps the value it
    draws first, so a path that draws another one there is dropped."""
    if sites is not None:
        search = search or _SiteSearch(sites, start=())
        if isinstance(program, CompiledProgram):
            program = program.program
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program, sites)
    machine = _Machine(compiled, config)
    groups = []
    stack = [("state", machine.initial_state())]
    visited = 0
    fixed = fixed or {}

    names = compiled.thread_codes[0].names
    slot = names.index(group_by) if group_by in names else None

    def group_value(state):
        return None if slot is None else state.threads[0].locals[slot]

    def violated(violation, state):
        cex = None
        if group_by is None and search is None:
            cex = counterexample_to_json(_build_counterexample(
                compiled, _unlink(state.trace), _unlink(state.choices),
                violation))
        return ("violation", cex, machine.bound_hit, records("violation"),
                visited)

    def records(result):
        if not isinstance(search, _SiteSearch):
            return groups
        return [(g.site, g.witness, g.validated)
                for g in search.records(result)]

    def dropped(state):
        if not fixed:
            return False
        site = fixed.get(group_value(state))
        return site is not None and state.trace[1][1] == site and \
            redrawn(state, site)

    while stack or search is not None and search.next_pick(machine, stack):
        kind = stack.pop()
        if kind[0] == "violation":
            if search is not None:
                if search.fail(kind[1], kind[2].control.decision, stack):
                    return violated(kind[1], kind[2])
                continue
            if group_by is not None:
                value = group_value(kind[2])
                if value and goal is not None and kind[1].line != goal:
                    continue
                groups.append((value, kind[1], _unlink(kind[2].choices)))
                if value and not first:
                    while stack and group_value(stack[-1][-1]) == value:
                        stack.pop()
                    continue
            return violated(kind[1], kind[2])
        if kind[0] == "cut":
            machine.bound_hit = True
            if search is not None:
                search.fail(None, kind[1], stack)
            continue
        state = kind[1]
        main = state.threads[0]
        if search is not None and main.status == "exited" and \
                compiled.thread_codes[0].instrs[main.pc].op != "exit":
            if search.goal(state.control.decision, stack):
                return violated(None, state)
            continue
        visited += 1
        if visited > config.max_states:
            return ("resource-exhausted", None, machine.bound_hit,
                    records("exhausted"), visited)
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
            if state.control.last_thread not in (None, tid) and \
                    state.switches >= config.context_bound:
                continue
            if search is not None and not state.control.decision[0]:
                search.defer(machine, state, tid)
            for outcome in machine.step(state, tid):
                if outcome[0] == "kill":
                    if outcome[1] == "bound":
                        pushes.append(("cut", outcome[2], state))
                    continue
                if not dropped(outcome[-1]):
                    pushes.append(outcome)
        stack.extend(reversed(pushes))
    return ("safe-within-bounds", None, machine.bound_hit,
            records("safe"), visited)


class LazySites:
    """The bookkeeping of the two lazy-decision searches localize ran
    before one search both diagnosed and validated, for uncached(search=).

    The diagnosis search (every_path False) runs the model: a violation at
    the goal line on a path that picked a site records the site with the
    value it kept, drops the rest of that pick's subtree and the site's
    pending picks, and any violation on an undecided path ends the search
    as site 0. The validation (every_path True) runs the sequential program
    with each site fixed to its witness: a violation or cut fails the site
    picked, or every site an undecided path has not declined."""

    def __init__(self, lines, every_path, goal=None):
        self.lines = frozenset(lines)
        self.every_path = every_path
        self.goal_line = goal
        self.found = {}  # site -> (violation, value kept)
        self.open = set(self.lines)
        self.picks = []
        self.ran = 0

    def defer(self, machine, state, tid):
        line = machine.codes[tid].instrs[state.threads[tid].pc].line
        if line in self.lines and line not in state.control.decision[1]:
            picked = state.control._replace(decision=(line, ()))
            self.picks.append((line, state._replace(control=picked), tid))

    def next_pick(self, machine, stack):
        while self.ran < len(self.picks):
            line, state, tid = self.picks[self.ran]
            self.ran += 1
            if line not in self.found:
                stack.extend(reversed(_entries(state,
                                               machine.step(state, tid))))
                return True
        return False

    def fail(self, violation, decision, stack):
        picked, kept = decision
        if violation is None and not self.every_path:
            return False  # a cut only sets bound_hit
        if picked and self.goal_line and violation.line != self.goal_line:
            return False
        if picked:
            self.found[picked] = (violation, kept[0])
            self.open.discard(picked)
            stack.clear()
            return False
        if not self.every_path:
            self.found[0] = (violation, None)
            return True
        for line in self.open - kept:
            self.found[line] = (violation, None)
        self.open &= kept
        return False

    def goal(self, decision, stack):
        return False  # the model's goal is its final assert(0)

    def passing(self, exhausted):
        """With every_path, the sites that pass: not failed, and settled if
        the search ran out."""
        unsettled = set()
        if exhausted:
            unsettled = set(self.lines) if not self.ran else \
                {line for line, _, _ in self.picks[self.ran - 1:]}
        return self.lines - self.found.keys() - unsettled


def two_search_localize(program, config):
    """localize as it was with two lazy-decision searches: the diagnosis
    search over the instrumented model, its header draw fixed to diag = 0,
    and the validation of every witness over the sequential program.
    Returns (status, diagnosis tuples) comparable to localize's report."""
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
    seq_cfg = replace(config, context_bound=0, deadlock_check=False)
    model = clone(instr.program)
    header = next(s for s in program_stmts(model)
                  if isinstance(s, Assign) and s.name == instr.diag_var)
    header.expr = IntLit(0)
    sites = {instr.wrap_sites[d]: pick
             for d, pick in site_picks(seq).items()}
    diagnosis = LazySites(sites, False, goal=instr.assert_false_line)
    outcome = uncached(model, seq_cfg, sites=sites, search=diagnosis)[0]
    if 0 in diagnosis.found:
        return "inconclusive", [(0, None, None, 1, False)]
    # by line of the model, as its search recorded them
    diag_of_site = {site: d for d, site in instr.wrap_sites.items()}
    witnesses = {diag_of_site[site]: diagnosis.found[site][1]
                 for site in sorted(diagnosis.found)}
    passing = set()
    if witnesses:
        validation = LazySites(witnesses, True)
        checked = uncached(
            CompiledProgram(seq.program), seq_cfg, sites={
                d: IntLit(w) for d, w in witnesses.items()},
            search=validation)[0]
        passing = validation.passing(checked == "resource-exhausted")
    found = [(d, seq.original_line(d), w, iteration, d in passing)
             for iteration, (d, w) in enumerate(witnesses.items(), start=1)]
    if outcome == "resource-exhausted":
        return outcome, found
    return ("faults-found" if found else "inconclusive"), found
