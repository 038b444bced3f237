"""Explicit-state bounded verifier for mini-C programs.

Each function body compiles to a flat instruction list; threads interleave at
statement granularity under a context-switch budget, loops unwind up to a
bound, and every nondet() branches over its value domain. Exploration is
depth-first with a fixed order (ascending thread ordinal, ascending nondet
value), so "first violation found" is deterministic and reproducible.

A state holds its values in tuples, one slot per global, local, mutex,
thread handle and loop; a step rebuilds only the tuples it changes.
Expressions evaluate to plain integers, and a nondet() takes its value from
one draw. A step runs its statement once per nondet path, the draws of each
run stepping through their domains in order; a replay runs the same step
code with every draw taking the recorded value, so search and replay cannot
disagree on how a value is drawn.

A lazy-decision search takes candidate sites, lines of main each with the
expression a path runs there once it picks the line. A path decides a site
only when it first runs it, declining it first and then picking it, and the
picked paths run after the whole undecided tree, so all sites share the
unchanged prefix. The diagnosis search (verify with sites) and the
validation of its diagnoses (passing_sites) are such searches.

The search caches finished states: once the whole subtree below a state with
two or more live threads has been explored without ending the search, a
later state equal to it apart from its path (schedule and nondet choices)
and with at least as many context switches used is skipped. Its subtree is
part of the finished one, so it could only repeat work that found nothing;
the first violation, its schedule and choices, the site records and the
loop-bound flag are those of the search without the cache. first_path,
which stops at the first leaf, skips only on an equal switch count.

verify, outside a lazy-decision search, first runs a reduced search: at a
state where the thread that ran last can run together with others, it runs
that thread alone if its statement commutes with every step the others can
take before it (persistent sets, Godefroid 1996). That holds for a
statement that neither blocks nor is blocked, changes no thread, handle or
mutex other than unlocking one the thread owns, kills none of its nondet
paths, and touches only globals that every other thread, from its pc on,
accesses only while it must hold a mutex that the running thread holds now.
Critical sections and thread-local steps so run without preemption points.
Running on the last thread never adds a context switch (Coons, Musuvathi
and McKinley 2013), so the reduced search finds a violation, and a
loop-bound cut, exactly when the ordered one does. Its result is final
when it is safe, or when its violation lies on a path that never ran a
thread ahead of a lower-numbered one: the ordered search finds that
violation first. Otherwise (a reordered violation, a search that ran out, or a
ModelError) the ordered search runs, skipping the states the reduced one
finished with neither a violation nor a cut below them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple

from .syntax import (
    ArrayDecl,
    Assert,
    Assign,
    Assume,
    Block,
    Break,
    CallAssign,
    CaseLabel,
    CondAttrDecl,
    CondDecl,
    CondInit,
    CondSignal,
    CondWait,
    Decl,
    DefaultLabel,
    Expr,
    For,
    FunctionDef,
    If,
    Index,
    IntLit,
    MutexDecl,
    MutexLock,
    MutexUnlock,
    Nondet,
    Program,
    Return,
    Stmt,
    Switch,
    Ternary,
    ThreadAttrDecl,
    ThreadCreate,
    ThreadDecl,
    ThreadExit,
    ThreadJoin,
    Unary,
    Binary,
    Var,
    While,
    enclosing_loops,
    iter_stmts,
    program_stmts,
)


class ModelError(Exception):
    """The program performed an operation outside the modelled semantics
    (double thread creation, array index out of range)."""


class TraceMismatch(Exception):
    """A counterexample does not replay against the given program."""


# ---------------------------------------------------------------------------
# Configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifierConfig:
    context_bound: int = 4
    loop_bound: int = 3
    nondet_domain: tuple[int, int] = (0, 8)
    deadlock_check: bool = False
    max_states: int = 200_000

    def __post_init__(self):
        if self.loop_bound < 1:
            raise ValueError("loop_bound must be >= 1")
        if self.nondet_domain[0] > self.nondet_domain[1]:
            raise ValueError("nondet domain must be a non-empty interval")
        if self.context_bound < 0:
            raise ValueError("context_bound must be >= 0")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


@dataclass
class TraceStep:
    step_index: int
    thread: int
    line: int
    valuation: dict[str, int]


@dataclass(frozen=True)
class ContextSwitchRecord:
    switch_index: int  # 1-based, global
    from_thread: int
    to_thread: int
    at_line: int
    per_thread_index: int  # 1-based within from_thread


@dataclass(frozen=True)
class Violation:
    kind: str  # 'assertion' | 'deadlock' | 'division-by-zero'
    line: int | None = None
    blocked: tuple[int, ...] | None = None


@dataclass
class Counterexample:
    steps: list[TraceStep]
    switches: list[ContextSwitchRecord]
    violation: Violation
    nondet_choices: list[tuple[int, int]]
    # per switch: completed-iteration counts of the loops enclosing the
    # switch position, keyed by the loop's line id
    switch_loop_counters: list[dict[int, int]] = field(default_factory=list)
    # indices of steps that resume a condition wait (lock reacquisition)
    wait_resume_steps: set[int] = field(default_factory=set)

    @property
    def final_valuation(self) -> dict[str, int]:
        return self.steps[-1].valuation if self.steps else {}


@dataclass
class SiteRecord:
    """One record of a lazy-decision search: the site the path picked (0 on
    an undecided path), the violation it reached (None for a path cut at
    the loop bound) and its nondet choices."""

    site: int
    violation: Violation | None
    nondet_choices: list[tuple[int, int]]


@dataclass
class VerificationResult:
    outcome: str  # 'safe-within-bounds' | 'violation' | 'resource-exhausted'
    counterexample: Counterexample | None = None
    bound_hit: bool = False
    states: int = 0  # states expanded, whatever the outcome
    # states skipped as equal to one whose subtree was already finished
    pruned: int = 0
    # lazy-decision search only, by site line
    records: list[SiteRecord] = field(default_factory=list)
    # without sites: states the reduced search expanded, its expansions
    # cut to one thread, and whether the ordered search ran after it
    reduced_states: int = 0
    reductions: int = 0
    ordered_rerun: bool = False


# ---------------------------------------------------------------------------
# 64-bit two's-complement arithmetic
# ---------------------------------------------------------------------------

_HALF = 1 << 63
_FULL = 1 << 64


def wrap64(v: int) -> int:
    return ((v + _HALF) % _FULL) - _HALF


def c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def c_mod(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return wrap64(a - b * q)


# ---------------------------------------------------------------------------
# Compilation to flat instruction lists
# ---------------------------------------------------------------------------


@dataclass
class Instr:
    op: str
    line: int = 0
    name: str = ""
    expr: Expr | None = None
    args: tuple = ()
    target: int = -1  # jump/branch target
    aux: dict | None = None  # switch label map
    slot: int = -1  # mutex, handle or loop slot


class Code:
    def __init__(self, fn: FunctionDef, global_scope: dict):
        self.fname = fn.name
        self.instrs: list[Instr] = []
        # a slot for every parameter and local of the function; a fresh
        # frame zeroes them all
        self.names = list(dict.fromkeys([*fn.params, *(
            s.name for s in iter_stmts(fn.body.stmts)
            if isinstance(s, Decl))]))
        self.locals = (0,) * len(self.names)
        # name -> (is a global, slot): the locals, else the globals
        self.scope = {**global_scope, **{
            name: (False, i) for i, name in enumerate(self.names)}}
        self.param_slots = [self.scope[p][1] for p in fn.params]

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1


class CompiledProgram:
    """The functions as instruction lists, and a slot for every global,
    mutex, thread handle and while loop: a state holds their values in
    tuples, in slot order."""

    def __init__(self, program: Program):
        self.arrays: dict[str, tuple[int, ...]] = {}
        self.mutex_slots: dict[str, int] = {}
        self.handle_slots: dict[str, int] = {}
        self.loop_slots: dict[int, int] = {}  # by the loop's line
        self.enclosing = enclosing_loops(program)

        for stmt in program_stmts(program):
            if isinstance(stmt, MutexDecl):
                self.mutex_slots.setdefault(stmt.name, len(self.mutex_slots))
            elif isinstance(stmt, (ThreadCreate, ThreadJoin)):
                self.handle_slots.setdefault(stmt.handle,
                                             len(self.handle_slots))
            elif isinstance(stmt, While):
                self.loop_slots.setdefault(stmt.line, len(self.loop_slots))

        init: dict[str, int] = {}
        for g in program.globals:
            if isinstance(g, Decl):
                value = 0
                if g.init is not None:
                    if not isinstance(g.init, IntLit):
                        raise ModelError(
                            "global initializers must be literals")
                    value = wrap64(g.init.value)
                init[g.name] = value
            elif isinstance(g, ArrayDecl):
                self.arrays[g.name] = tuple(wrap64(v) for v in g.values)
        self.global_init = tuple(init.values())
        # name -> (is a global, slot), in slot order
        self.global_scope = {name: (True, i) for i, name in enumerate(init)}

        # thread table: ordinal 0 is main, then creation-statement order
        fn_by_name = {fn.name: fn for fn in program.functions}
        self.thread_codes = [self._compile_fn(program.main)] + [
            self._compile_fn(fn_by_name[td.function])
            for td in program.threads]
        self.thread_of_fn = {td.function: td.ordinal
                             for td in program.threads}
        self.callee_codes = {fn.name: self._compile_fn(fn)
                             for fn in program.functions
                             if fn.return_type == "int"}
        self._independence: _Independence | None = None

    def independence(self) -> "_Independence":
        """The facts the reduced search decides commuting steps from, built
        on first use."""
        if self._independence is None:
            self._independence = _Independence(self)
        return self._independence

    def with_constant(self, line: int, value: int) -> "CompiledProgram":
        """A copy in which main's assignment, if or while at line evaluates
        IntLit(value) as its value or condition. Only main's instruction
        list is copied; everything else is shared with this program."""
        return self._rewritten([line], lambda line, expr: IntLit(value))

    def with_sites(self, sites: dict[int, Expr]) -> "CompiledProgram":
        """A copy in which main's assignment, if or while at each line of
        sites is a candidate site of a lazy-decision search: a path that
        picked it evaluates sites[line] there, any other path the line's
        own expression."""
        return self._rewritten(sites, lambda line, expr: _Site(
            line, expr, sites[line]))

    def _rewritten(self, lines: Iterable[int],
                   rewrite: Callable[[int, Expr], Expr]) -> "CompiledProgram":
        """A copy in which the value or condition of main's assignment, if or
        while at each of lines is rewrite(line, expr)."""
        main = self.thread_codes[0]
        carriers: dict[int, list[int]] = {line: [] for line in lines}
        for pc, instr in enumerate(main.instrs):
            if instr.line in carriers and instr.expr is not None:
                carriers[instr.line].append(pc)
        code = copy.copy(main)
        code.instrs = list(main.instrs)
        for line, pcs in carriers.items():
            if len(pcs) != 1 or main.instrs[pcs[0]].op not in (
                    "assign", "branch", "loop_head"):
                raise ValueError(
                    f"line {line} is no assignment, if or while of main")
            instr = main.instrs[pcs[0]]
            code.instrs[pcs[0]] = replace(instr,
                                          expr=rewrite(line, instr.expr))
        compiled = copy.copy(self)
        compiled.thread_codes = [code, *self.thread_codes[1:]]
        compiled._independence = None
        return compiled

    def _compile_fn(self, fn: FunctionDef) -> Code:
        code = Code(fn, self.global_scope)
        self._compile_body(code, fn.body.stmts, [], [])
        code.emit(Instr("thread_end", 0))
        return code

    def _compile_body(self, code: Code, stmts: list[Stmt],
                      switch_ends: list[int], switch_frames: list[dict]):
        for stmt in stmts:
            self._compile_stmt(code, stmt, switch_ends, switch_frames)

    def _compile_stmt(self, code: Code, stmt: Stmt, switch_ends: list[int],
                      switch_frames: list[dict]) -> None:
        ln = stmt.line
        body = self._compile_body
        if isinstance(stmt, Decl):
            code.emit(Instr("decl", ln, name=stmt.name, expr=stmt.init))
        elif isinstance(stmt, Assign):
            code.emit(Instr("assign", ln, name=stmt.name, expr=stmt.expr))
        elif isinstance(stmt, CallAssign):
            code.emit(Instr("call", ln, name=stmt.name,
                            args=(stmt.func, tuple(stmt.args))))
        elif isinstance(stmt, Assert):
            code.emit(Instr("assert", ln, expr=stmt.expr))
        elif isinstance(stmt, Assume):
            code.emit(Instr("assume", ln, expr=stmt.expr))
        elif isinstance(stmt, Return):
            code.emit(Instr("return", ln, expr=stmt.expr))
        elif isinstance(stmt, Block):
            body(code, stmt.stmts, switch_ends, switch_frames)
        elif isinstance(stmt, If):
            br = code.emit(Instr("branch", ln, expr=stmt.cond))
            body(code, stmt.then.stmts, switch_ends, switch_frames)
            if stmt.els is not None:
                jmp = code.emit(Instr("jump", ln))
                code.instrs[br].target = len(code.instrs)
                body(code, stmt.els.stmts, switch_ends, switch_frames)
                code.instrs[jmp].target = len(code.instrs)
            else:
                code.instrs[br].target = len(code.instrs)
        elif isinstance(stmt, While):
            loop = self.loop_slots[ln]
            code.emit(Instr("loop_enter", ln, slot=loop))
            head = code.emit(Instr("loop_head", ln, expr=stmt.cond,
                                   slot=loop))
            body(code, stmt.body.stmts, switch_ends, switch_frames)
            code.emit(Instr("loop_iter", ln, slot=loop))
            code.emit(Instr("jump", ln, target=head))
            code.instrs[head].target = len(code.instrs)
        elif isinstance(stmt, For):
            code.emit(Instr("assign", ln, name=stmt.var, expr=stmt.init))
            head = code.emit(Instr("branch", ln, expr=stmt.cond))
            body(code, stmt.body.stmts, switch_ends, switch_frames)
            code.emit(Instr("assign", ln, name=stmt.var, expr=stmt.update))
            code.emit(Instr("jump", ln, target=head))
            code.instrs[head].target = len(code.instrs)
        elif isinstance(stmt, Switch):
            frame: dict = {"labels": {}, "default": None}
            sw = code.emit(Instr("switch", ln, expr=stmt.scrutinee,
                                 aux=frame))
            switch_ends.append(sw)
            switch_frames.append(frame)
            body(code, stmt.body.stmts, switch_ends, switch_frames)
            switch_frames.pop()
            switch_ends.pop()
            frame["end"] = len(code.instrs)
        elif isinstance(stmt, CaseLabel):
            pc = code.emit(Instr("label", ln))
            if not switch_frames:
                raise ModelError("case label outside switch")
            switch_frames[-1]["labels"][stmt.value] = pc
        elif isinstance(stmt, DefaultLabel):
            pc = code.emit(Instr("label", ln))
            switch_frames[-1]["default"] = pc
        elif isinstance(stmt, Break):
            if not switch_ends:
                raise ModelError("break outside switch")
            code.emit(Instr("break", ln, target=switch_ends[-1]))
        elif isinstance(stmt, ThreadCreate):
            code.emit(Instr("create", ln, args=(stmt.func,),
                            slot=self.handle_slots[stmt.handle]))
        elif isinstance(stmt, ThreadJoin):
            code.emit(Instr("join", ln, slot=self.handle_slots[stmt.handle]))
        elif isinstance(stmt, ThreadExit):
            code.emit(Instr("exit", ln))
        elif isinstance(stmt, MutexLock):
            code.emit(Instr("lock", ln, slot=self.mutex_slots[stmt.name]))
        elif isinstance(stmt, MutexUnlock):
            code.emit(Instr("unlock", ln, slot=self.mutex_slots[stmt.name]))
        elif isinstance(stmt, CondWait):
            code.emit(Instr("wait", ln, name=stmt.cond,
                            slot=self.mutex_slots[stmt.mutex]))
        elif isinstance(stmt, CondSignal):
            code.emit(Instr("signal", ln, name=stmt.name))
        elif isinstance(stmt, (ThreadDecl, ThreadAttrDecl, CondAttrDecl,
                               MutexDecl, CondDecl, CondInit)):
            code.emit(Instr("nopstep", ln))
        elif isinstance(stmt, ArrayDecl):
            raise ModelError("array declarations are global only")
        else:
            raise ModelError(f"cannot compile statement {stmt!r}")


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


class _DivByZero(Exception):
    """A division or remainder by zero; the step reports it as a
    division-by-zero violation at the running instruction's line."""


class _Site(NamedTuple):
    """The expression of a candidate site: pick on a path that picked the
    site's line, default on any other."""

    line: int
    default: Expr
    pick: Expr


# the decision of a path outside a lazy-decision search, or before it has
# picked or declined a site: (picked site, 0 while undecided; the sites
# declined)
_UNDECIDED = (0, frozenset())


class _Ctx:
    """One run of a step along one nondet path: the parts of the state it
    has rebuilt so far, the running frame's scope, locals and instruction
    line, and the values drawn.

    Draw i takes prefix[i] where the prefix has one, else the lowest value
    of its domain; a replaying machine takes the next recorded choice
    instead. Each draw records (value, hi), so that the step can tell which
    draws have a next value, and appends (line, value) to the choices."""

    __slots__ = ("machine", "line", "prefix", "drawn", "choices", "scope",
                 "locals", "globals", "threads", "handles", "mutexes",
                 "per_entry", "cum_iters", "decision")

    def __init__(self, machine: "_Machine", state: "_State",
                 prefix: list[int]):
        self.machine = machine
        self.prefix = prefix
        self.drawn: list[tuple[int, int]] = []
        self.choices = state.choices
        self.globals = state.globals
        self.threads = state.threads
        (self.handles, self.mutexes, self.per_entry, self.cum_iters,
         _, self.decision) = state.control

    def store(self, name: str, value: int) -> None:
        """Writes value to name in the running frame's scope."""
        where = self.scope.get(name)
        if where is None:
            raise ModelError(f"write to unknown variable {name!r}")
        if where[0]:
            self.globals = _put(self.globals, where[1], value)
        else:
            self.locals = _put(self.locals, where[1], value)

    def draw(self, bounds: tuple[int, int] | None) -> int:
        lo, hi = bounds or self.machine.config.nondet_domain
        replay = self.machine.replay
        if replay is not None:
            if not replay:
                raise TraceMismatch("nondet choice list exhausted")
            line, value = replay.pop()
            if line != self.line:
                raise TraceMismatch(
                    f"nondet at line {self.line}, choice recorded for {line}")
            # the search's domain of a plain nondet() is not known here
            if bounds is not None and not lo <= value <= hi:
                raise TraceMismatch(
                    f"nondet at line {line} takes {lo}..{hi}, "
                    f"choice recorded {value}")
            # a replayed draw has no next value: the step has one path
            value = hi = wrap64(value)
        elif len(self.drawn) < len(self.prefix):
            value = self.prefix[len(self.drawn)]
        else:
            value = lo
        self.drawn.append((value, hi))
        self.choices = (self.choices, (self.line, value))
        return value

    def decide(self, line: int) -> bool:
        """Whether the path picked the site at line. An undecided path
        declines a site it runs for the rest of the path; the search runs
        the pick later, from the state before the step."""
        picked, declined = self.decision
        if not picked and line not in declined:
            self.decision = (0, declined | {line})
        return picked == line


def _put(items: tuple, i: int, value) -> tuple:
    """items with item i replaced by value."""
    copy = list(items)
    copy[i] = value
    return tuple(copy)


def _eval(expr: Expr, ctx: _Ctx) -> int:
    """The value of expr on ctx's nondet path. Operands are evaluated left
    to right; && || ?: evaluate only what they need."""
    if isinstance(expr, IntLit):
        return wrap64(expr.value)
    if isinstance(expr, Var):
        where = ctx.scope.get(expr.name)
        if where is None:
            raise ModelError(f"read of unknown variable {expr.name!r}")
        return (ctx.globals if where[0] else ctx.locals)[where[1]]
    if isinstance(expr, Binary):
        left = _eval(expr.left, ctx)
        if expr.op == "&&":
            return 1 if left != 0 and _eval(expr.right, ctx) != 0 else 0
        if expr.op == "||":
            return 1 if left != 0 or _eval(expr.right, ctx) != 0 else 0
        return _apply(expr.op, left, _eval(expr.right, ctx))
    if isinstance(expr, Nondet):
        return ctx.draw(None if expr.lo is None else (expr.lo, expr.hi))
    if isinstance(expr, Index):
        array = ctx.machine.compiled.arrays.get(expr.name)
        if array is None:
            raise ModelError(f"unknown array {expr.name!r}")
        i = _eval(expr.index, ctx)
        if not (0 <= i < len(array)):
            raise ModelError(
                f"array index {i} out of range for {expr.name!r}")
        return array[i]
    if isinstance(expr, Unary):
        v = _eval(expr.operand, ctx)
        if expr.op == "-":
            return wrap64(-v)
        return 0 if v != 0 else 1
    if isinstance(expr, Ternary):
        cond = _eval(expr.cond, ctx)
        return _eval(expr.then_expr if cond != 0 else expr.else_expr, ctx)
    if isinstance(expr, _Site):
        return _eval(expr.pick if ctx.decide(expr.line) else expr.default,
                     ctx)
    raise ModelError(f"cannot evaluate {expr!r}")


def _apply(op: str, a: int, b: int) -> int:
    if op == "+":
        return wrap64(a + b)
    if op == "-":
        return wrap64(a - b)
    if op == "*":
        return wrap64(a * b)
    if op in ("/", "%"):
        if b == 0:
            raise _DivByZero
        return c_div(a, b) if op == "/" else c_mod(a, b)
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


# ---------------------------------------------------------------------------
# Machine state
# ---------------------------------------------------------------------------


class _Thread(NamedTuple):
    pc: int
    locals: tuple[int, ...]  # by the slots of the thread's code
    status: str  # 'new' | 'ready' | 'cond' | 'reacquire' | 'exited'
    wait_cond: str = ""
    wait_mutex: int | None = None  # mutex slot


class _Control(NamedTuple):
    handles: tuple[int | None, ...]  # thread ordinal, None until created
    mutexes: tuple[int | None, ...]  # owner ordinal, None while free
    # started iterations in the current entry, None before the first entry
    per_entry: tuple[int | None, ...]
    cum_iters: tuple[int, ...]  # completed iterations, in total
    last_thread: int | None
    decision: tuple[int, frozenset[int]] = _UNDECIDED


class _State(NamedTuple):
    """A search state. Its parts are tuples that a step rebuilds where it
    changes them and shares where it does not. The first three fields are
    all that steers the successors, up to the switch budget left."""

    globals: tuple[int, ...]
    threads: tuple[_Thread, ...]
    control: _Control
    switches: int
    trace: tuple | None  # linked list: (parent, (thread, line))
    choices: tuple | None  # linked list: (parent, (line, value))
    # the reduced search ran a thread on this path ahead of a lower-numbered
    # one that the ordered search would have run first
    reordered: bool = False

    @property
    def last_thread(self) -> int | None:
        return self.control.last_thread


class _Machine:
    def __init__(self, compiled: CompiledProgram, config: VerifierConfig,
                 replay: list[tuple[int, int]] | None = None):
        self.compiled = compiled
        self.codes = compiled.thread_codes
        self.config = config
        # replaying: the recorded (line, value) choices not yet drawn,
        # last first
        self.replay = replay
        # set by the search when it reaches a path cut at the loop bound
        self.bound_hit = False
        # states the search expanded, and those it skipped as covered by
        # finished subtrees
        self.states = 0
        self.pruned = 0

    # -- state construction ---------------------------------------------

    def initial_state(self) -> _State:
        c = self.compiled
        loops = len(c.loop_slots)
        state = _State(c.global_init, tuple(
            _Thread(0, code.locals, "new") for code in self.codes), _Control(
            (None,) * len(c.handle_slots), (None,) * len(c.mutex_slots),
            (None,) * loops, (0,) * loops, None), 0, None, None)
        ctx = _Ctx(self, state, [])
        main = self._settle(ctx, 0, 0, state.threads[0].locals)
        return state._replace(threads=_put(state.threads, 0, main),
                              control=state.control._replace(
                                  per_entry=ctx.per_entry,
                                  cum_iters=ctx.cum_iters))

    def variables(self, state: _State, tid: int | None = None
                  ) -> dict[str, int]:
        """The globals by name or, given tid, that thread's locals."""
        if tid is None:
            return dict(zip(self.compiled.global_scope, state.globals))
        return dict(zip(self.codes[tid].names, state.threads[tid].locals))

    # -- scheduling -------------------------------------------------------

    def classify(self, state: _State, tid: int) -> str:
        """'eligible' | 'sync' | 'join' for a live thread."""
        thread = state.threads[tid]
        if thread.status == "cond":
            return "sync"
        mutexes = state.control.mutexes
        if thread.status == "reacquire":
            return "eligible" if mutexes[thread.wait_mutex] is None \
                else "sync"
        instr = self.codes[tid].instrs[thread.pc]
        if instr.op == "lock":
            return "eligible" if mutexes[instr.slot] is None else "sync"
        if instr.op == "join":
            target = state.control.handles[instr.slot]
            if target is None or state.threads[target].status != "exited":
                return "join"
        return "eligible"

    def live_threads(self, state: _State) -> list[int]:
        return [i for i, t in enumerate(state.threads)
                if t.status not in ("new", "exited")]

    # -- stepping ---------------------------------------------------------

    def _normalize(self, ctx: _Ctx, code: Code, pc: int,
                   callee: bool = False) -> int:
        """Advances pc through micro instructions of code to the next
        steppable one, or a thread's end, and returns it."""
        while True:
            instr = code.instrs[pc]
            op = instr.op
            if op == "jump":
                pc = instr.target
            elif op == "label":
                pc += 1
            elif op == "loop_enter":
                ctx.per_entry = _put(ctx.per_entry, instr.slot, 0)
                pc += 1
            elif op == "loop_iter":
                ctx.cum_iters = _put(ctx.cum_iters, instr.slot,
                                     ctx.cum_iters[instr.slot] + 1)
                pc += 1
            elif op == "thread_end" and callee:
                raise ModelError(
                    f"function {code.fname!r} finished without return")
            else:
                return pc

    def _settle(self, ctx: _Ctx, tid: int, pc: int,
                locals: tuple[int, ...]) -> _Thread:
        """Ready thread tid at pc, normalized; exited at its end."""
        code = self.codes[tid]
        pc = self._normalize(ctx, code, pc)
        return _Thread(pc, locals, "exited" if code.instrs[pc].op ==
                       "thread_end" else "ready")

    def step(self, state: _State, tid: int):
        """Executes one statement of thread tid. A call runs its callee to
        the return inside this step, so the callee's own statements add no
        trace entry, context switch or state.

        The statement runs once per nondet path, each time from state,
        which no run changes. The first run draws the lowest value at every
        nondet it reaches; each next run keeps the values drawn before the
        last draw below its highest value, and draws that one's successor.
        So the paths come in ascending order of their values in drawing
        order, and a short circuit, failed check or division by zero before
        a nondet ends the path without a draw there. A replaying machine
        draws the recorded values, so a replayed step has one path.

        Returns a list of outcomes in that order: ('state', s) |
        ('violation', Violation, s) | ('kill', 'assume') |
        ('kill', 'bound', the path's decision).
        """
        outcomes = []
        prefix: list[int] = []
        while True:
            ctx = _Ctx(self, state, prefix)
            outcomes.append(self._run(ctx, state, tid))
            drawn = ctx.drawn
            while drawn and drawn[-1][0] >= drawn[-1][1]:
                drawn.pop()
            if not drawn:
                return outcomes
            prefix = [value for value, _ in drawn]
            prefix[-1] += 1

    def _run(self, ctx: _Ctx, state: _State, tid: int):
        """Runs the statement of thread tid from state along ctx's nondet
        path, a called function to its return included, and returns the
        outcome."""
        thread = state.threads[tid]
        code, pc = self.codes[tid], thread.pc
        ctx.scope, ctx.locals = code.scope, thread.locals
        callers: list[tuple] = []  # (code, pc, locals), innermost last
        try:
            while True:
                instr = code.instrs[pc]
                op = instr.op
                line = ctx.line = instr.line
                if op in ("assign", "decl"):
                    ctx.store(instr.name, 0 if instr.expr is None
                              else _eval(instr.expr, ctx))
                    pc += 1
                elif op in ("assume", "assert"):
                    if _eval(instr.expr, ctx) == 0:
                        if op == "assume":
                            return ("kill", "assume")
                        violation = Violation("assertion", line)
                        break
                    pc += 1
                elif op in ("branch", "loop_head"):
                    if _eval(instr.expr, ctx) == 0:
                        pc = instr.target
                    else:
                        if op == "loop_head":
                            started = (ctx.per_entry[instr.slot] or 0) + 1
                            if started > self.config.loop_bound:
                                return ("kill", "bound", ctx.decision)
                            ctx.per_entry = _put(ctx.per_entry, instr.slot,
                                                 started)
                        pc += 1
                elif op == "switch":
                    table = instr.aux
                    target = table["labels"].get(_eval(instr.expr, ctx))
                    if target is None:
                        target = table["default"]
                    if target is None:
                        target = table["end"]
                    pc = target
                elif op == "break":
                    pc = code.instrs[instr.target].aux["end"]
                elif op == "call":
                    callee = self.compiled.callee_codes[instr.args[0]]
                    env = list(callee.locals)
                    for slot, value in zip(callee.param_slots, [
                            _eval(arg, ctx) for arg in instr.args[1]]):
                        env[slot] = value
                    callers.append((code, pc, ctx.locals))
                    code, pc, ctx.locals = callee, 0, tuple(env)
                    ctx.scope = code.scope
                elif op == "return":
                    value = _eval(instr.expr, ctx)
                    if not callers:
                        # a thread's return value is irrelevant; evaluated
                        # for effects only
                        return self._finish(ctx, state, tid, thread._replace(
                            locals=ctx.locals, status="exited"), line)
                    code, pc, ctx.locals = callers.pop()
                    ctx.scope = code.scope
                    site = code.instrs[pc]
                    ctx.store(site.name, value)
                    pc += 1
                    line = site.line
                elif callers:
                    raise ModelError("unsupported statement inside callable "
                                     f"function: {op!r}")
                else:
                    return self._exec_thread(ctx, state, tid, instr)
                if not callers:
                    return self._finish(ctx, state, tid, self._settle(
                        ctx, tid, pc, ctx.locals), line)
                pc = self._normalize(ctx, code, pc, callee=True)
        except _DivByZero:
            violation = Violation("division-by-zero", ctx.line)
        # the thread stays at the statement, in its own frame, the outermost
        _, pc, locals = callers[0] if callers else (code, pc, ctx.locals)
        return self._finish(ctx, state, tid, thread._replace(
            pc=pc, locals=locals), violation.line, violation)

    def _exec_thread(self, ctx: _Ctx, state: _State, tid: int,
                     instr: Instr):
        """Executes a threading statement or handle declaration of thread
        tid and returns the outcome."""
        thread = state.threads[tid]
        op = instr.op
        if op == "exit":
            return self._finish(ctx, state, tid,
                                thread._replace(status="exited"), instr.line)
        if op == "wait":
            if thread.status != "reacquire":
                # releases the mutex and blocks; pc stays on the wait until
                # the reacquisition step completes it
                ctx.mutexes = _put(ctx.mutexes, instr.slot, None)
                return self._finish(ctx, state, tid, _Thread(
                    thread.pc, thread.locals, "cond", instr.name, instr.slot),
                    instr.line)
            # completion of a condition wait: grab the mutex and move on
            if ctx.mutexes[thread.wait_mutex] is not None:
                raise ModelError("reacquire scheduled while mutex held")
            ctx.mutexes = _put(ctx.mutexes, thread.wait_mutex, tid)
        elif op == "create":
            fname = instr.args[0]
            ordinal = self.compiled.thread_of_fn[fname]
            target = ctx.threads[ordinal]
            if target.status != "new":
                raise ModelError(
                    f"thread function {fname!r} created twice")
            ctx.handles = _put(ctx.handles, instr.slot, ordinal)
            ctx.threads = _put(ctx.threads, ordinal, self._settle(
                ctx, ordinal, target.pc, target.locals))
        elif op == "join":
            target = ctx.handles[instr.slot]
            if target is None or ctx.threads[target].status != "exited":
                raise ModelError("join scheduled while target is running")
        elif op == "lock":
            if ctx.mutexes[instr.slot] is not None:
                raise ModelError("lock scheduled while mutex held")
            ctx.mutexes = _put(ctx.mutexes, instr.slot, tid)
        elif op == "unlock":
            ctx.mutexes = _put(ctx.mutexes, instr.slot, None)
        elif op == "signal":
            for i, waiter in enumerate(ctx.threads):
                if waiter.status == "cond" and waiter.wait_cond == instr.name:
                    ctx.threads = _put(ctx.threads, i, waiter._replace(
                        status="reacquire", wait_cond=""))
                    break
        elif op != "nopstep":
            raise ModelError(f"unexpected instruction {op!r}")
        return self._finish(ctx, state, tid, self._settle(
            ctx, tid, thread.pc + 1, thread.locals), instr.line)

    def _finish(self, ctx: _Ctx, state: _State, tid: int, thread: _Thread,
                line: int, violation: Violation | None = None):
        """The outcome of thread tid's step from state that executed line
        and left the thread as `thread`."""
        last = state.control.last_thread
        switches = state.switches + (last is not None and last != tid)
        control = state.control
        parts = (ctx.handles, ctx.mutexes, ctx.per_entry, ctx.cum_iters, tid,
                 ctx.decision)
        if parts != control:
            control = _Control(*parts)
        new = _State(ctx.globals, _put(ctx.threads, tid, thread), control,
                     switches, (state.trace, (tid, line)), ctx.choices,
                     state.reordered)
        return ("state", new) if violation is None else \
            ("violation", violation, new)


# ---------------------------------------------------------------------------
# Counterexample construction
# ---------------------------------------------------------------------------


def _unlink(node: tuple | None) -> list:
    """The items of a (parent, item) linked list, oldest first."""
    items = []
    while node is not None:
        node, item = node
        items.append(item)
    items.reverse()
    return items


def _run_schedule(compiled: CompiledProgram, schedule, choices):
    """Re-executes a schedule of (thread, line) steps, feeding the recorded
    nondet choices in order. This is the one place that builds TraceSteps.

    Returns (steps, counters, wait_resumes, machine, state, violation):
    the completed-iteration counts by loop slot after each step, the
    indices of steps that complete a condition wait, the final state and
    the violation of the last step, if any. Raises TraceMismatch where the
    schedule does not fit the program or leaves recorded choices unused."""
    # a schedule is checked against the program, not the search bounds, so
    # the replay never cuts it at the loop bound
    machine = _Machine(compiled, VerifierConfig(loop_bound=10 ** 9),
                       replay=list(reversed(choices)))
    state = machine.initial_state()
    steps: list[TraceStep] = []
    counters: list[tuple[int, ...]] = []
    wait_resumes: set[int] = set()
    violation: Violation | None = None
    for i, (tid, line) in enumerate(schedule):
        if violation is not None:
            raise TraceMismatch("violation before the end of the trace")
        if not 0 <= tid < len(state.threads):
            raise TraceMismatch(f"step references unknown thread {tid}")
        if state.threads[tid].status in ("new", "exited"):
            raise TraceMismatch(f"step {i} schedules a dead thread {tid}")
        if machine.classify(state, tid) != "eligible":
            raise TraceMismatch(f"step {i}: thread {tid} is blocked")
        if state.threads[tid].status == "reacquire":
            wait_resumes.add(i)
        (outcome,) = machine.step(state, tid)
        if outcome[0] == "kill":
            raise TraceMismatch(f"step {i} became infeasible on replay")
        if outcome[0] == "violation":
            violation = outcome[1]
        state = outcome[-1]
        executed = state.trace[1][1]
        if executed != line:
            raise TraceMismatch(
                f"step {i} executed line {executed}, trace says {line}")
        valuation = machine.variables(state)
        valuation.update(machine.variables(state, tid))
        steps.append(TraceStep(i, tid, line, valuation))
        counters.append(state.control.cum_iters)
    if machine.replay:
        raise TraceMismatch(
            f"{len(machine.replay)} recorded nondet choices left unused")
    return steps, counters, wait_resumes, machine, state, violation


def _build_counterexample(compiled: CompiledProgram, schedule, choices,
                          expected: Violation) -> Counterexample:
    """Replays a schedule and its nondet choices, checks that it ends in
    the expected violation, and records its switches."""
    steps, counters, wait_resumes, machine, state, violation = \
        _run_schedule(compiled, schedule, choices)
    if expected.kind == "deadlock":
        live = machine.live_threads(state)
        if not live or any(
                machine.classify(state, tid) != "sync" for tid in live):
            raise TraceMismatch("deadlock does not reproduce")
        violation = Violation("deadlock", None, tuple(sorted(live)))
    elif violation is None:
        raise TraceMismatch("trace ends without the recorded violation")
    if violation != expected:
        raise TraceMismatch(
            f"violation mismatch: {violation} != {expected}")
    switches: list[ContextSwitchRecord] = []
    switch_counters: list[dict[int, int]] = []
    per_thread: dict[int, int] = {}
    for prev, nxt, after in zip(steps, steps[1:], counters):
        if prev.thread == nxt.thread:
            continue
        per_thread[prev.thread] = per_thread.get(prev.thread, 0) + 1
        switches.append(ContextSwitchRecord(
            switch_index=len(switches) + 1,
            from_thread=prev.thread,
            to_thread=nxt.thread,
            at_line=prev.line,
            per_thread_index=per_thread[prev.thread],
        ))
        enclosing = list(compiled.enclosing.get(prev.line, []))
        if prev.line in compiled.loop_slots:
            # a switch after a loop-header evaluation may resume inside the
            # loop body, so the loop's own count is needed for the guard
            enclosing.append(prev.line)
        switch_counters.append(
            {ln: after[compiled.loop_slots[ln]] for ln in enclosing})
    return Counterexample(
        steps=steps,
        switches=switches,
        violation=violation,
        nondet_choices=_unlink(state.choices),
        switch_loop_counters=switch_counters,
        wait_resume_steps=wait_resumes,
    )


# ---------------------------------------------------------------------------
# Independence of steps
# ---------------------------------------------------------------------------

# the key of _Independence.reach for an access whose globals are not resolved
_ANY = -1

# the statements a thread may run ahead of the others where the globals they
# touch allow it: none blocks, is blocked by another thread, or changes a
# thread, handle, mutex or condition
_LOCAL_OPS = frozenset(("assign", "decl", "branch", "loop_head", "assume",
                        "assert", "switch", "break", "nopstep", "call"))


def _successors(code: Code, pc: int) -> tuple[int, ...]:
    """The pcs that code may run right after its instruction at pc."""
    instr = code.instrs[pc]
    op = instr.op
    if op == "jump":
        return (instr.target,)
    if op in ("branch", "loop_head"):
        return (pc + 1, instr.target)
    if op == "switch":
        table = instr.aux
        last = table["end"] if table["default"] is None else table["default"]
        return (*table["labels"].values(), last)
    if op == "break":
        return (code.instrs[instr.target].aux["end"],)
    if op in ("return", "exit", "thread_end"):
        return ()
    return (pc + 1,)


def _reads(expr: Expr, scope: dict, found: set[int]) -> bool:
    """Adds the global slots expr reads under scope to found; False if expr
    names a variable that scope does not hold, or is of a kind not known
    here. Global arrays are never written, so reading one is no access."""
    if isinstance(expr, Var):
        where = scope.get(expr.name)
        if where is not None and where[0]:
            found.add(where[1])
        return where is not None
    if isinstance(expr, (IntLit, Nondet)):
        return True
    if isinstance(expr, Index):
        return _reads(expr.index, scope, found)
    if isinstance(expr, Unary):
        return _reads(expr.operand, scope, found)
    if isinstance(expr, Binary):
        return _reads(expr.left, scope, found) and \
            _reads(expr.right, scope, found)
    if isinstance(expr, Ternary):
        return all(_reads(part, scope, found) for part in (
            expr.cond, expr.then_expr, expr.else_expr))
    return False


def _own_globals(code: Code, instr: Instr) -> frozenset[int] | None:
    """The global slots instr of code reads or writes itself, a callee's
    aside; None if it names a variable that code's scope does not hold."""
    found: set[int] = set()
    if instr.op in ("assign", "decl", "call"):
        where = code.scope.get(instr.name)
        if where is None:
            return None
        if where[0]:
            found.add(where[1])
    exprs = instr.args[1] if instr.op == "call" else \
        () if instr.expr is None else (instr.expr,)
    if not all(_reads(expr, code.scope, found) for expr in exprs):
        return None
    return frozenset(found)


def _callee_globals(compiled: CompiledProgram, name: str
                    ) -> frozenset[int] | None:
    """The global slots that function name and the functions it calls read
    or write; None if one of them names a variable or function that is not
    resolved."""
    found: set[int] = set()
    todo, seen = [name], {name}
    while todo:
        code = compiled.callee_codes.get(todo.pop())
        if code is None:
            return None
        for instr in code.instrs:
            own = _own_globals(code, instr)
            if own is None:
                return None
            found |= own
            if instr.op == "call" and instr.args[0] not in seen:
                seen.add(instr.args[0])
                todo.append(instr.args[0])
    return frozenset(found)


def _must_hold(code: Code) -> list[frozenset[int] | None]:
    """By pc, the mutex slots that a thread running code holds on every
    path from its start to pc; None at a pc no path reaches. A wait ends
    holding its mutex again."""
    held: list[frozenset[int] | None] = [None] * len(code.instrs)
    held[0] = frozenset()
    todo = [0]
    while todo:
        pc = todo.pop()
        instr = code.instrs[pc]
        after = held[pc]
        if instr.op in ("lock", "wait"):
            after = after | {instr.slot}
        elif instr.op == "unlock":
            after = after - {instr.slot}
        for nxt in _successors(code, pc):
            meet = after if held[nxt] is None else held[nxt] & after
            if meet != held[nxt]:
                held[nxt] = meet
                todo.append(nxt)
    return held


class _Independence:
    """What the reduced search decides commuting steps from, for one
    compiled program: the globals each instruction of each thread reads or
    writes (a call with its callees', transitively; None where a name is
    not resolved), and the mutexes each thread must hold at each pc.

    A mutex counts as held only where no thread may unlock or wait on it
    without holding it, since unlock and wait free a mutex whoever owns it.
    A join waits for the thread its handle points to only where a single
    pthread_create sets that handle, since a second one re-points it."""

    def __init__(self, compiled: CompiledProgram):
        self.codes = compiled.thread_codes
        callees = {name: _callee_globals(compiled, name)
                   for name in compiled.callee_codes}
        self.globals: list[list[frozenset[int] | None]] = []
        for code in self.codes:
            row = []
            for instr in code.instrs:
                touched = _own_globals(code, instr)
                if touched is not None and instr.op == "call":
                    callee = callees.get(instr.args[0])
                    touched = None if callee is None else touched | callee
                row.append(touched)
            self.globals.append(row)
        self.held = [_must_hold(code) for code in self.codes]
        self.unsafe = frozenset(
            instr.slot for code, held in zip(self.codes, self.held)
            for pc, instr in enumerate(code.instrs)
            if instr.op in ("unlock", "wait") and held[pc] is not None
            and instr.slot not in held[pc])
        creates = [instr.slot for code in self.codes
                   for instr in code.instrs if instr.op == "create"]
        self.joinable = tuple(sorted(
            slot for slot in set(creates) if creates.count(slot) == 1))
        self._reach: dict[tuple, dict] = {}

    def reach(self, tid: int, pc: int, stops: frozenset[int]
              ) -> dict[int, tuple[frozenset[int], ...]]:
        """For each global that thread tid may access from pc on, the
        distinct sets of mutexes it must hold where it does (_ANY for an
        access not resolved). The walk does not pass a join on a handle of
        stops."""
        key = (tid, pc, stops)
        found = self._reach.get(key)
        if found is None:
            code, touches, held = \
                self.codes[tid], self.globals[tid], self.held[tid]
            sets: dict[int, set[frozenset[int]]] = {}
            seen, todo = {pc}, [pc]
            while todo:
                at = todo.pop()
                touched = touches[at]
                for g in (_ANY,) if touched is None else touched:
                    sets.setdefault(g, set()).add(held[at])
                instr = code.instrs[at]
                if instr.op == "join" and instr.slot in stops:
                    continue
                for nxt in _successors(code, at):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            found = self._reach[key] = {
                g: tuple(held_sets) for g, held_sets in sets.items()}
        return found

    def commutes(self, state: _State, tid: int) -> bool:
        """Whether the statement of ready thread tid commutes with every
        step the other threads can take before it: it blocks no one and no
        one blocks it, and each global it touches is accessed by every
        other thread not exited, from its pc on, only where that thread
        must hold a mutex that tid holds now. Nondet paths that the step
        kills are left to the caller."""
        pc = state.threads[tid].pc
        instr = self.codes[tid].instrs[pc]
        control = state.control
        if instr.op == "unlock":
            # no one else can take the mutex before it, nor free it
            return control.mutexes[instr.slot] == tid and \
                instr.slot not in self.unsafe
        touched = self.globals[tid][pc]
        if instr.op not in _LOCAL_OPS or touched is None:
            return False
        if not touched:
            return True
        held = frozenset(slot for slot, owner in enumerate(control.mutexes)
                         if owner == tid) - self.unsafe
        stops = frozenset(slot for slot in self.joinable
                          if control.handles[slot] == tid)
        for other, thread in enumerate(state.threads):
            if other == tid or thread.status == "exited":
                continue
            reach = self.reach(other, thread.pc, stops)
            for g in (*touched, _ANY):
                for must in reach.get(g, ()):
                    if must.isdisjoint(held):
                        return False
        return True


class _Reduction:
    """The bookkeeping of the reduced search (see _explore): its
    expansions cut to one thread, a count that grows with every loop-bound
    cut it reaches or may skip, and the keys of the states it finished
    clean, with neither a violation nor a cut below them, mapped to their
    switch counts."""

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.reductions = 0
        self.cuts = 0
        self.clean: dict[tuple, int] = {}

    def expand(self, machine: _Machine, state: _State,
               schedulable: list[int]) -> list[tuple]:
        """The entries of state's expansion, in order: those of the last
        thread alone where its step commutes and kills no path, else those
        of every schedulable thread."""
        last = state.control.last_thread
        own = None
        if len(schedulable) > 1 and last in schedulable and \
                self.compiled.independence().commutes(state, last):
            own = machine.step(state, last)
            if all(outcome[0] != "kill" for outcome in own):
                self.reductions += 1
                if last != schedulable[0]:
                    own = [(*outcome[:-1], outcome[-1]._replace(
                        reordered=True)) for outcome in own]
                return own
        pushes = []
        for tid in schedulable:
            pushes += _entries(state, own if tid == last and own is not None
                               else machine.step(state, tid))
        return pushes


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def _shared(key: tuple, canon: dict) -> tuple:
    """key with its globals, control and each thread replaced by the copy
    kept in canon, so that the keys of finished states share their parts."""
    globals, threads, control, *switches = key
    return (canon.setdefault(globals, globals),
            tuple(canon.setdefault(t, t) for t in threads),
            canon.setdefault(control, control), *switches)


def _entries(state: _State, outcomes: list) -> list[tuple]:
    """The search entries of a step's outcomes from state, in order: the
    outcomes, a loop-bound kill as ('cut', the path's decision, state)."""
    entries = []
    for outcome in outcomes:
        if outcome[0] == "kill":
            if outcome[1] == "bound":
                entries.append(("cut", outcome[2], state))
        else:
            entries.append(outcome)
    return entries


class _SiteSearch:
    """The bookkeeping of a lazy-decision search over the candidate sites of
    a program made by CompiledProgram.with_sites.

    A path starts undecided. A step of an undecided path that runs a site
    it has not declined declines it for the rest of the path and defers
    the pick: the search first finishes the whole undecided tree, then
    runs the deferred picks one at a time, in the order they were made,
    each by stepping the state before the site again with the site picked
    and searching below. A failure on a path that picked site d records d
    with it, drops the rest of that pick's subtree and every pending pick
    of d: a recorded site is never picked again. A failure is a violation
    and, with every_path, also a loop-bound cut. On an undecided path it
    ends the search, recorded as site 0; with every_path it instead
    records every site the path has not declined, and an undecided path
    that has declined every site not recorded is dropped, since it can
    neither fail one nor pick one."""

    def __init__(self, lines: Iterable[int], every_path: bool):
        self.lines = frozenset(lines)
        self.every_path = every_path
        self.records: dict[int, SiteRecord] = {}
        self.open = set(self.lines)  # the sites not recorded
        # deferred picks (site, state before it with the site picked,
        # thread), in the order made
        self.picks: list[tuple[int, _State, int]] = []
        self.ran = 0  # picks[:ran] have run or been dropped

    def progress(self) -> int:
        """Grows with every record and every deferred pick."""
        return len(self.records) + len(self.picks)

    def defer(self, machine: _Machine, state: _State, tid: int) -> None:
        """Defers the pick of the site that thread tid's step from the
        undecided state runs, if it is one the path has not declined."""
        line = machine.codes[tid].instrs[state.threads[tid].pc].line
        if line in self.lines and line not in state.control.decision[1]:
            # a picked path declines nothing, so the set is not kept
            picked = state.control._replace(decision=(line, frozenset()))
            self.picks.append((line, state._replace(control=picked), tid))

    def next_pick(self, machine: _Machine, stack: list) -> bool:
        """Runs the next pick of a site not recorded: pushes the entries of
        its step onto the empty stack. False once none is left."""
        while self.ran < len(self.picks):
            line, state, tid = self.picks[self.ran]
            self.ran += 1
            if line not in self.records:
                stack.extend(reversed(_entries(state,
                                               machine.step(state, tid))))
                return True
        return False

    def fail(self, violation: Violation | None, decision: tuple,
             state: _State, stack: list) -> bool:
        """Records a failure on a path with that decision; True if it ends
        the search."""
        picked, declined = decision
        found = SiteRecord(picked, violation, _unlink(state.choices))
        if picked:
            self.records[picked] = found
            self.open.discard(picked)
            stack.clear()  # the rest of this pick's subtree
            return False
        if not self.every_path:
            self.records[0] = found
            return True
        for line in self.open - declined:
            self.records[line] = replace(found, site=line)
        self.open &= declined
        return False

    def moot(self, state: _State) -> bool:
        """Whether state's path can no longer fail or pick a site not
        recorded, with every_path."""
        picked, declined = state.control.decision
        return self.every_path and not picked and self.open <= declined

    def unsettled(self) -> set[int]:
        """The sites not recorded that a search which ran out had not yet
        shown to pass: all of them before the first pick ran, else those of
        the running pick and the picks still pending."""
        if not self.ran:
            return set(self.lines)
        return {line for line, _, _ in self.picks[self.ran - 1:]}


def _explore(machine: _Machine, first_leaf: bool = False,
             sites: _SiteSearch | None = None,
             reduction: _Reduction | None = None,
             finished: dict[tuple, int] | None = None):
    """DFS over interleavings and nondet values.

    Returns ('violation', Violation, state) | ('exhausted',) | ('safe',)
    and, in first_leaf mode, ('leaf', kind, state) for the first
    completed/cut path; machine.states counts the expanded states.

    With sites, a lazy-decision search (see _SiteSearch): a step of an
    undecided path that runs a site defers its pick, a violation or cut
    goes to sites.fail, a moot state is dropped, and the search ends only
    once no pick is left or a failure ends it.

    A state with two or more live threads, where interleavings meet again,
    is keyed by state[:3]; the sequential models of diagnosis and
    validation have none and pay nothing. Expanding such a state pushes a
    ('done', key, progress, state) marker under its children; when the
    marker is popped, its subtree is finished, and unless it recorded a
    site or deferred a pick, whose subtree is still to run, `done` maps the
    key to the state's switch count. A popped state whose key maps to at
    most its own switch count is skipped and not counted toward max_states
    (machine.pruned counts it): its subtree is part of the finished one, so
    it reaches no violation, and any cut in it has set bound_hit already.
    In first_leaf mode the key is state[:4], switch count included, since
    with fewer switches left the same state can end on a 'budget' leaf that
    the finished subtree ran past. A state equal to one of its own
    ancestors is never skipped, since that subtree is not finished.

    With reduction, the reduced search (see the module docstring): a
    state's expansion comes from reduction.expand, and reduction.clean
    collects the finished states whose subtree reached no cut, nor skipped
    a state that is not clean itself. finished seeds `done`, so that the
    ordered search skips the states of the reduced search's `clean`.
    """
    config = machine.config

    def progress() -> int:
        if sites is not None:
            return sites.progress()
        return 0 if reduction is None else reduction.cuts

    stack: list[tuple] = [("state", machine.initial_state())]
    done: dict[tuple, int] = {} if finished is None else finished
    # one copy of each key part, shared by all keys in done
    canon: dict[tuple, tuple] = {}
    while stack or sites is not None and sites.next_pick(machine, stack):
        kind = stack.pop()
        if kind[0] == "done":
            # a count stored for the key came from below, no lower
            if reduction is not None:
                done[kind[1]] = kind[3].switches
                if kind[2] == reduction.cuts:
                    reduction.clean[kind[1]] = kind[3].switches
            elif kind[2] == progress():
                done[kind[1]] = kind[3].switches
            continue
        if kind[0] == "violation":
            if sites is None or sites.fail(
                    kind[1], kind[2].control.decision, kind[2], stack):
                return ("violation", kind[1], kind[2])
            continue
        if kind[0] == "cut":
            # a loop-bound kill counts once the search reaches it, in the
            # same order whether or not it happened inside a callee
            machine.bound_hit = True
            if reduction is not None:
                reduction.cuts += 1
            if first_leaf:
                return ("leaf", "cut", kind[2])
            if sites is not None and sites.every_path:
                sites.fail(None, kind[1], kind[2], stack)
            continue
        state = kind[1]
        if sites is not None and sites.moot(state):
            continue
        live = machine.live_threads(state)
        if len(live) > 1:
            key = state[:4] if first_leaf else state[:3]
            if done.get(key, state.switches + 1) <= state.switches:
                machine.pruned += 1
                if reduction is not None and reduction.clean.get(
                        key, state.switches + 1) > state.switches:
                    reduction.cuts += 1  # the finished subtree may hold one
                continue
            stack.append(("done", _shared(key, canon), progress(), state))
        machine.states += 1
        if machine.states > config.max_states:
            return ("exhausted",)
        if not live:
            if first_leaf:
                return ("leaf", "completed", state)
            continue
        eligible = [tid for tid in live
                    if machine.classify(state, tid) == "eligible"]
        if not eligible:
            if all(machine.classify(state, tid) == "sync" for tid in live):
                if config.deadlock_check:
                    # handled as the next entry, like any violation
                    stack.append(("violation", Violation(
                        "deadlock", None, tuple(sorted(live))), state))
                    continue
            if first_leaf:
                return ("leaf", "stuck", state)
            continue
        last = state.control.last_thread
        schedulable = eligible
        if last is not None and state.switches >= config.context_bound:
            schedulable = [last] if last in eligible else []
        if not schedulable:
            if first_leaf:
                return ("leaf", "budget", state)
            continue
        if reduction is not None:
            stack.extend(reversed(reduction.expand(machine, state,
                                                   schedulable)))
            continue
        deferring = sites is not None and not state.control.decision[0]
        pushes = []
        for tid in schedulable:
            if deferring:
                sites.defer(machine, state, tid)
            pushes += _entries(state, machine.step(state, tid))
        stack.extend(reversed(pushes))
    return ("safe",)


def verify(program: Program | CompiledProgram, config: VerifierConfig, *,
           sites: dict[int, Expr] | None = None) -> VerificationResult:
    """Explores all interleavings within bounds; returns the first violation
    in the fixed exploration order, or safe-within-bounds.

    With sites, a map from lines of main to expressions (see
    CompiledProgram.with_sites), one lazy-decision search collects into
    `records`, sorted by line, the first violation of every site picked.
    Each path decides a site only when it first runs it: declining it for
    the rest of the path first, then picking it, so the paths share their
    undecided prefix. A violation on a path that picked no site ends the
    search as outcome 'violation' and is the only record, with site 0; the
    search otherwise ends 'safe-within-bounds' or, past max_states in
    total, 'resource-exhausted'. No counterexample is built in this mode.

    Without sites, the reduced search runs first (see the module
    docstring); the ordered search runs after it only where its result
    could differ: a violation on a reordered path, a search that ran out,
    or a ModelError. max_states bounds each of the two on its own.

    A program compiled already is searched as it is.
    """
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program)
    if sites is not None:
        search = _SiteSearch(sites, every_path=False)
        machine = _Machine(compiled.with_sites(sites), config)
        result = _explore(machine, sites=search)
        counts = {"records": [search.records[line]
                              for line in sorted(search.records)]}
    else:
        reduction = _Reduction(compiled)
        machine = _Machine(compiled, config)
        try:
            result = _explore(machine, reduction=reduction)
        except ModelError:
            result = ("error",)
        counts = {"reduced_states": machine.states,
                  "reductions": reduction.reductions}
        final = result[0] == "safe" or \
            result[0] == "violation" and not result[2].reordered
        if not final:
            reduced = machine
            machine = _Machine(compiled, config)
            result = _explore(machine, finished=reduction.clean)
            machine.states += reduced.states
            machine.pruned += reduced.pruned
            counts["ordered_rerun"] = True
    cex = None
    if result[0] == "violation" and sites is None:
        state = result[2]
        cex = _build_counterexample(compiled, _unlink(state.trace),
                                    _unlink(state.choices), result[1])
    outcome = {"violation": "violation", "exhausted": "resource-exhausted",
               "safe": "safe-within-bounds"}[result[0]]
    return VerificationResult(outcome, cex, bound_hit=machine.bound_hit,
                              states=machine.states, pruned=machine.pruned,
                              **counts)


def passing_sites(program: Program | CompiledProgram, config: VerifierConfig,
                  sites: dict[int, Expr]) -> tuple[set[int], int]:
    """The lines d of sites such that the program, with line d evaluating
    sites[d], passes: every path within bounds ends without a violation
    and without being cut at the loop bound; and the states expanded.

    One lazy-decision search checks every site. A violation or cut on a
    path that picked d fails d; one on an undecided path fails every site
    that path has not declined. Past max_states in total, a site whose
    paths were not all explored does not pass.
    """
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program)
    search = _SiteSearch(sites, every_path=True)
    machine = _Machine(compiled.with_sites(sites), config)
    result = _explore(machine, sites=search)
    unsettled = search.unsettled() if result[0] == "exhausted" else set()
    return set(sites) - search.records.keys() - unsettled, machine.states


def first_path(program: Program | CompiledProgram, config: VerifierConfig):
    """Follows the first surviving path to a leaf.

    Returns (kind, steps, valuation) where kind is 'violation', 'completed',
    'cut', 'stuck' or 'budget'; steps is the executed line trace.
    """
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program)
    machine = _Machine(compiled, config)
    result = _explore(machine, first_leaf=True)
    if result[0] == "exhausted":
        raise ModelError("state budget exhausted while tracing a path")
    if result[0] == "safe":
        raise ModelError("program has no executable path")
    state = result[2]
    schedule, choices = _unlink(state.trace), _unlink(state.choices)
    if result[0] == "violation":
        cex = _build_counterexample(compiled, schedule, choices, result[1])
        return ("violation", cex.steps, cex.final_valuation)
    steps = _run_schedule(compiled, schedule, choices)[0]
    return (result[1], steps, steps[-1].valuation if steps else {})


def replay(program: Program, counterexample: Counterexample
           ) -> VerificationResult:
    """Re-executes the exact schedule and nondet choices of a counterexample.
    Raises TraceMismatch if it does not fit the program, or if the
    counterexample it rebuilds differs from the given one."""
    cex = _build_counterexample(
        CompiledProgram(program),
        [(step.thread, step.line) for step in counterexample.steps],
        counterexample.nondet_choices, counterexample.violation)
    for got, given in zip(cex.steps, counterexample.steps):
        if got.step_index != given.step_index:
            raise TraceMismatch(
                f"step {got.step_index} has step_index {given.step_index}")
        if got.valuation != given.valuation:
            name = next(n for n in sorted({*got.valuation, *given.valuation})
                        if got.valuation.get(n) != given.valuation.get(n))
            raise TraceMismatch(
                f"step {got.step_index}: valuation of {name!r} is "
                f"{given.valuation.get(name)}, replay gives "
                f"{got.valuation.get(name)}")
    for name in ("switches", "switch_loop_counters", "wait_resume_steps"):
        if getattr(cex, name) != getattr(counterexample, name):
            raise TraceMismatch(f"{name} differ from the replayed trace")
    return VerificationResult("violation", cex)


# ---------------------------------------------------------------------------
# Schedule extraction
# ---------------------------------------------------------------------------


class UnsupportedScheduleError(Exception):
    """A thread is interrupted too often to be tagged (occurrence >= 10)."""


def extract_schedule(counterexample: Counterexample):
    """Distills the ordered context-switch structure from a counterexample.

    Tag numbering: segment j of thread n (both counted from their first
    occurrence) receives (n + 1) * 10 + j with j starting at 1.
    """
    from .sequentializer import Schedule, Segment

    steps = counterexample.steps
    if not steps:
        raise UnsupportedScheduleError("empty trace")
    segments: list[Segment] = []
    occurrence: dict[int, int] = {}
    start = 0
    boundary = 0  # index into switches
    for i in range(1, len(steps) + 1):
        if i < len(steps) and steps[i].thread == steps[start].thread:
            continue
        thread = steps[start].thread
        occurrence[thread] = occurrence.get(thread, 0) + 1
        if occurrence[thread] >= 10:
            raise UnsupportedScheduleError(
                f"thread {thread} has {occurrence[thread]} execution "
                "segments; at most 9 are supported")
        tag = (thread + 1) * 10 + occurrence[thread]
        is_last = i == len(steps)
        counters: dict[int, int] = {}
        if not is_last and boundary < len(
                counterexample.switch_loop_counters):
            counters = dict(counterexample.switch_loop_counters[boundary])
        segments.append(Segment(
            thread=thread,
            from_line=steps[start].line,
            to_line=steps[i - 1].line,
            loop_counters=counters,
            tag=tag,
        ))
        if not is_last:
            boundary += 1
        start = i
    return Schedule(
        segments=segments,
        order_tags=[seg.tag for seg in segments],
        nondet_pins=list(counterexample.nondet_choices),
    )


# ---------------------------------------------------------------------------
# Counterexample JSON serialization
# ---------------------------------------------------------------------------


def counterexample_to_json(cex: Counterexample) -> str:
    doc = {
        "steps": [
            {
                "step_index": s.step_index,
                "thread": s.thread,
                "line": s.line,
                "valuation": dict(sorted(s.valuation.items())),
            }
            for s in cex.steps
        ],
        "switches": [
            {
                "switch_index": s.switch_index,
                "from_thread": s.from_thread,
                "to_thread": s.to_thread,
                "at_line": s.at_line,
                "per_thread_index": s.per_thread_index,
            }
            for s in cex.switches
        ],
        "violation": _violation_to_obj(cex.violation),
        "nondet_choices": [[line, value]
                           for line, value in cex.nondet_choices],
        "switch_loop_counters": [
            {str(k): v for k, v in sorted(c.items())}
            for c in cex.switch_loop_counters
        ],
        "wait_resume_steps": sorted(cex.wait_resume_steps),
    }
    return json.dumps(doc, indent=2) + "\n"


def _violation_to_obj(v: Violation) -> dict:
    if v.kind == "deadlock":
        return {"kind": "deadlock", "blocked": list(v.blocked or ())}
    return {"kind": v.kind, "line": v.line}


def counterexample_from_json(text: str) -> Counterexample:
    doc = json.loads(text)
    violation_obj = doc["violation"]
    if violation_obj["kind"] == "deadlock":
        violation = Violation("deadlock", None,
                              tuple(violation_obj["blocked"]))
    else:
        violation = Violation(violation_obj["kind"], violation_obj["line"])
    return Counterexample(
        steps=[TraceStep(s["step_index"], s["thread"], s["line"],
                         dict(s["valuation"]))
               for s in doc["steps"]],
        switches=[ContextSwitchRecord(s["switch_index"], s["from_thread"],
                                      s["to_thread"], s["at_line"],
                                      s["per_thread_index"])
                  for s in doc["switches"]],
        violation=violation,
        nondet_choices=[(line, value)
                        for line, value in doc["nondet_choices"]],
        switch_loop_counters=[
            {int(k): v for k, v in c.items()}
            for c in doc.get("switch_loop_counters", [])
        ],
        wait_resume_steps=set(doc.get("wait_resume_steps", [])),
    )
