"""Explicit-state bounded verifier for mini-C programs.

Each function body compiles to a flat instruction list; threads interleave at
statement granularity under a context-switch budget, loops unwind up to a
bound, and every nondet() branches over its value domain. Exploration is
depth-first with a fixed order (ascending thread ordinal, ascending nondet
value), so "first violation found" is deterministic and reproducible.

Expressions evaluate to plain integers, and a nondet() takes its value from
one draw. A step runs its statement once per nondet path, the draws of each
run stepping through their domains in order; a replay runs the same step
code with every draw taking the recorded value, so search and replay cannot
disagree on how a value is drawn.

The search caches finished states: once the whole subtree below a state with
two or more live threads has been explored without ending the search, a
later state equal to it apart from its path (schedule and nondet choices)
is skipped. Its subtree is the same, so it could only repeat work that found
nothing; the first violation, its schedule and choices, the grouped records
and the loop-bound flag are those of the search without the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
class GroupedViolation:
    """One violation of a grouped search: the group value (the grouping
    local of main, None if main has no such local) and the nondet choices
    of the path that reached it."""

    value: int | None
    violation: Violation
    nondet_choices: list[tuple[int, int]]


@dataclass
class VerificationResult:
    outcome: str  # 'safe-within-bounds' | 'violation' | 'resource-exhausted'
    counterexample: Counterexample | None = None
    bound_hit: bool = False
    states: int = 0
    # states skipped as equal to one whose subtree was already finished
    pruned: int = 0
    # grouped search only, in discovery order
    groups: list[GroupedViolation] = field(default_factory=list)


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


class Code:
    def __init__(self, fn: FunctionDef):
        self.fname = fn.name
        self.params = list(fn.params)
        self.instrs: list[Instr] = []
        # a fresh frame: every parameter and local of the function, zeroed
        self.locals = {p: 0 for p in fn.params}
        for s in iter_stmts(fn.body.stmts):
            if isinstance(s, Decl):
                self.locals[s.name] = 0

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1


def _compile_body(code: Code, stmts: list[Stmt], switch_ends: list[int],
                  switch_frames: list[dict]) -> None:
    for stmt in stmts:
        _compile_stmt(code, stmt, switch_ends, switch_frames)


def _compile_stmt(code: Code, stmt: Stmt, switch_ends: list[int],
                  switch_frames: list[dict]) -> None:
    ln = stmt.line
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
        _compile_body(code, stmt.stmts, switch_ends, switch_frames)
    elif isinstance(stmt, If):
        br = code.emit(Instr("branch", ln, expr=stmt.cond))
        _compile_body(code, stmt.then.stmts, switch_ends, switch_frames)
        if stmt.els is not None:
            jmp = code.emit(Instr("jump", ln))
            code.instrs[br].target = len(code.instrs)
            _compile_body(code, stmt.els.stmts, switch_ends, switch_frames)
            code.instrs[jmp].target = len(code.instrs)
        else:
            code.instrs[br].target = len(code.instrs)
    elif isinstance(stmt, While):
        code.emit(Instr("loop_enter", ln))
        head = code.emit(Instr("loop_head", ln, expr=stmt.cond))
        _compile_body(code, stmt.body.stmts, switch_ends, switch_frames)
        code.emit(Instr("loop_iter", ln))
        code.emit(Instr("jump", ln, target=head))
        code.instrs[head].target = len(code.instrs)
    elif isinstance(stmt, For):
        code.emit(Instr("assign", ln, name=stmt.var, expr=stmt.init))
        head = code.emit(Instr("branch", ln, expr=stmt.cond))
        _compile_body(code, stmt.body.stmts, switch_ends, switch_frames)
        code.emit(Instr("assign", ln, name=stmt.var, expr=stmt.update))
        code.emit(Instr("jump", ln, target=head))
        code.instrs[head].target = len(code.instrs)
    elif isinstance(stmt, Switch):
        frame: dict = {"labels": {}, "default": None}
        sw = code.emit(Instr("switch", ln, expr=stmt.scrutinee, aux=frame))
        switch_ends.append(sw)
        switch_frames.append(frame)
        _compile_body(code, stmt.body.stmts, switch_ends, switch_frames)
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
        code.emit(Instr("create", ln, name=stmt.handle, args=(stmt.func,)))
    elif isinstance(stmt, ThreadJoin):
        code.emit(Instr("join", ln, name=stmt.handle))
    elif isinstance(stmt, ThreadExit):
        code.emit(Instr("exit", ln))
    elif isinstance(stmt, MutexLock):
        code.emit(Instr("lock", ln, name=stmt.name))
    elif isinstance(stmt, MutexUnlock):
        code.emit(Instr("unlock", ln, name=stmt.name))
    elif isinstance(stmt, CondWait):
        code.emit(Instr("wait", ln, name=stmt.cond, args=(stmt.mutex,)))
    elif isinstance(stmt, CondSignal):
        code.emit(Instr("signal", ln, name=stmt.name))
    elif isinstance(stmt, (ThreadDecl, ThreadAttrDecl, CondAttrDecl,
                           MutexDecl, CondDecl, CondInit)):
        code.emit(Instr("nopstep", ln))
    elif isinstance(stmt, ArrayDecl):
        raise ModelError("array declarations are global only")
    else:
        raise ModelError(f"cannot compile statement {stmt!r}")


class CompiledProgram:
    def __init__(self, program: Program):
        self.program = program
        self.global_init: dict[str, int] = {}
        self.arrays: dict[str, tuple[int, ...]] = {}
        self.mutex_names: set[str] = set()
        self.cond_names: set[str] = set()
        self.enclosing = enclosing_loops(program)
        self.loop_lines: set[int] = set()

        for stmt in program_stmts(program):
            if isinstance(stmt, MutexDecl):
                self.mutex_names.add(stmt.name)
            elif isinstance(stmt, CondDecl):
                self.cond_names.add(stmt.name)
            elif isinstance(stmt, While):
                self.loop_lines.add(stmt.line)

        for g in program.globals:
            if isinstance(g, Decl):
                value = 0
                if g.init is not None:
                    if not isinstance(g.init, IntLit):
                        raise ModelError(
                            "global initializers must be literals")
                    value = wrap64(g.init.value)
                self.global_init[g.name] = value
            elif isinstance(g, ArrayDecl):
                self.arrays[g.name] = tuple(wrap64(v) for v in g.values)

        # thread table: ordinal 0 is main, then creation-statement order
        self.thread_codes: list[Code] = []
        self.thread_codes.append(self._compile_fn(program.main))
        self.fn_by_name = {fn.name: fn for fn in program.functions}
        for td in program.threads:
            self.thread_codes.append(
                self._compile_fn(self.fn_by_name[td.function]))
        self.thread_of_fn = {td.function: td.ordinal
                             for td in program.threads}
        self.callee_codes: dict[str, Code] = {}
        for fn in program.functions:
            if fn.return_type == "int":
                self.callee_codes[fn.name] = self._compile_fn(fn)

    def _compile_fn(self, fn: FunctionDef) -> Code:
        code = Code(fn)
        _compile_body(code, fn.body.stmts, [], [])
        code.emit(Instr("thread_end", 0))
        return code


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


class _DivByZero(Exception):
    """A division or remainder by zero; the step reports it as a
    division-by-zero violation at the running instruction's line."""


class _Ctx:
    """One run of a step along one nondet path: the state it works on, the
    running frame's locals and instruction line, and the values drawn.

    Draw i takes prefix[i] where the prefix has one, else the lowest value
    of its domain; a replaying machine takes the next recorded choice
    instead. Each draw records (value, hi), so that the step can tell which
    draws have a next value, and appends (line, value) to the state's
    choices."""

    __slots__ = ("machine", "state", "frame", "line", "prefix", "drawn")

    def __init__(self, machine: "_Machine", state: "_State",
                 prefix: list[int]):
        self.machine = machine
        self.state = state
        self.frame: dict[str, int] = {}  # locals of the running frame
        self.line = 0
        self.prefix = prefix
        self.drawn: list[tuple[int, int]] = []

    def lookup(self, name: str) -> int:
        if name in self.frame:
            return self.frame[name]
        if name in self.state.globals:
            return self.state.globals[name]
        raise ModelError(f"read of unknown variable {name!r}")

    def draw(self, lo: int, hi: int) -> int:
        replay = self.machine.replay
        if replay is not None:
            if not replay:
                raise TraceMismatch("nondet choice list exhausted")
            line, value = replay.pop()
            if line != self.line:
                raise TraceMismatch(
                    f"nondet at line {self.line}, choice recorded for {line}")
            # a replayed draw has no next value: the step has one path
            value = hi = wrap64(value)
        elif len(self.drawn) < len(self.prefix):
            value = self.prefix[len(self.drawn)]
        else:
            value = lo
        self.drawn.append((value, hi))
        self.state.choices = (self.state.choices, (self.line, value))
        return value


def _eval(expr: Expr, ctx: _Ctx) -> int:
    """The value of expr on ctx's nondet path. Operands are evaluated left
    to right; && || ?: evaluate only what they need."""
    if isinstance(expr, IntLit):
        return wrap64(expr.value)
    if isinstance(expr, Var):
        return ctx.lookup(expr.name)
    if isinstance(expr, Binary):
        left = _eval(expr.left, ctx)
        if expr.op == "&&":
            return 1 if left != 0 and _eval(expr.right, ctx) != 0 else 0
        if expr.op == "||":
            return 1 if left != 0 or _eval(expr.right, ctx) != 0 else 0
        return _apply(expr.op, left, _eval(expr.right, ctx))
    if isinstance(expr, Nondet):
        lo, hi = (expr.lo, expr.hi) if expr.lo is not None else \
            ctx.machine.config.nondet_domain
        return ctx.draw(lo, hi)
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


@dataclass
class _Thread:
    pc: int
    locals: dict[str, int]
    status: str  # 'new' | 'ready' | 'cond' | 'reacquire' | 'exited'
    wait_cond: str = ""
    wait_mutex: str = ""

    def clone(self) -> "_Thread":
        return _Thread(self.pc, dict(self.locals), self.status,
                       self.wait_cond, self.wait_mutex)


@dataclass
class _State:
    globals: dict[str, int]
    threads: list[_Thread]
    handles: dict[str, int]
    mutexes: dict[str, int | None]  # owner ordinal
    per_entry: dict[int, int]  # loop line -> started iterations, this entry
    cum_iters: dict[int, int]  # loop line -> completed iterations, total
    switches: int
    last_thread: int | None
    trace: tuple | None  # linked list: (parent, (thread, line))
    choices: tuple | None  # linked list: (parent, (line, value))

    def clone(self) -> "_State":
        return _State(
            dict(self.globals),
            [t.clone() for t in self.threads],
            dict(self.handles),
            dict(self.mutexes),
            dict(self.per_entry),
            dict(self.cum_iters),
            self.switches,
            self.last_thread,
            self.trace,
            self.choices,
        )


class _Frame:
    """A running callee: its code, pc and locals. Frames live only inside
    the step that makes the call, which runs the callee to its return."""

    __slots__ = ("code", "pc", "locals")

    def __init__(self, code: Code, pc: int, locals: dict[str, int]):
        self.code = code
        self.pc = pc
        self.locals = locals


class _Machine:
    def __init__(self, compiled: CompiledProgram, config: VerifierConfig,
                 replay: list[tuple[int, int]] | None = None):
        self.compiled = compiled
        self.config = config
        # replaying: the recorded (line, value) choices not yet drawn,
        # last first
        self.replay = replay
        # set by the search when it reaches a path cut at the loop bound
        self.bound_hit = False
        # states the search skipped as duplicates of finished subtrees
        self.pruned = 0

    # -- state construction ---------------------------------------------

    def initial_state(self) -> _State:
        threads = [_Thread(0, dict(code.locals), "new")
                   for code in self.compiled.thread_codes]
        threads[0].status = "ready"
        state = _State(
            globals=dict(self.compiled.global_init),
            threads=threads,
            handles={},
            mutexes={m: None for m in self.compiled.mutex_names},
            per_entry={},
            cum_iters={},
            switches=0,
            last_thread=None,
            trace=None,
            choices=None,
        )
        self._normalize(state, 0)
        return state

    def code_of(self, tid: int) -> Code:
        return self.compiled.thread_codes[tid]

    # -- scheduling -------------------------------------------------------

    def classify(self, state: _State, tid: int) -> str:
        """'eligible' | 'sync' | 'join' for a live thread."""
        thread = state.threads[tid]
        if thread.status == "cond":
            return "sync"
        if thread.status == "reacquire":
            return "eligible" if state.mutexes[thread.wait_mutex] is None \
                else "sync"
        instr = self.code_of(tid).instrs[thread.pc]
        if instr.op == "lock":
            return "eligible" if state.mutexes[instr.name] is None else "sync"
        if instr.op == "join":
            target = state.handles.get(instr.name)
            if target is None or state.threads[target].status != "exited":
                return "join"
            return "eligible"
        return "eligible"

    def live_threads(self, state: _State) -> list[int]:
        return [i for i, t in enumerate(state.threads)
                if t.status not in ("new", "exited")]

    # -- stepping ---------------------------------------------------------

    def _normalize(self, state: _State, tid: int,
                   callee: _Frame | None = None) -> None:
        """Advances the running frame, the callee if given, else thread tid,
        through micro instructions to the next steppable one."""
        frame = callee or state.threads[tid]
        code = callee.code if callee else self.code_of(tid)
        while True:
            instr = code.instrs[frame.pc]
            op = instr.op
            if op == "jump":
                frame.pc = instr.target
            elif op == "label":
                frame.pc += 1
            elif op == "loop_enter":
                state.per_entry[instr.line] = 0
                frame.pc += 1
            elif op == "loop_iter":
                state.cum_iters[instr.line] = \
                    state.cum_iters.get(instr.line, 0) + 1
                frame.pc += 1
            elif op == "thread_end":
                if callee:
                    raise ModelError(
                        f"function {code.fname!r} finished without return")
                frame.status = "exited"
                return
            else:
                return

    def step(self, state: _State, tid: int):
        """Executes one statement of thread tid. A call runs its callee to
        the return inside this step, so the callee's own statements add no
        trace entry, context switch or state.

        The statement runs once per nondet path, each time on a fresh clone
        of state. The first run draws the lowest value at every nondet it
        reaches. Each next run keeps the values drawn before the last draw
        that is below its highest value, and draws that one's successor.
        So the paths come in ascending order of their values in drawing
        order, and a path whose short circuit, failed check or division by
        zero comes before a nondet draws nothing there. A replaying machine
        draws the recorded values, so a replayed step has one path.

        Returns a list of outcomes in that order:
        ('state', s) | ('violation', Violation, s) | ('kill', reason).
        """
        outcomes = []
        prefix: list[int] = []
        while True:
            ctx = _Ctx(self, state.clone(), prefix)
            try:
                outcomes.append(self._run(ctx, tid))
            except _DivByZero:
                outcomes.append(self._violate(
                    ctx.state, tid, ctx.line,
                    Violation("division-by-zero", ctx.line)))
            drawn = ctx.drawn
            while drawn and drawn[-1][0] >= drawn[-1][1]:
                drawn.pop()
            if not drawn:
                return outcomes
            prefix = [value for value, _ in drawn]
            prefix[-1] += 1

    def _run(self, ctx: _Ctx, tid: int):
        """Runs the statement of thread tid on ctx's state along ctx's
        nondet path, a called function to its return included, and returns
        the outcome."""
        state = ctx.state
        thread = state.threads[tid]
        if state.last_thread is not None and state.last_thread != tid:
            state.switches += 1
        frames: list[_Frame] = []  # running callees, innermost last
        while True:
            frame = frames[-1] if frames else thread
            code = frames[-1].code if frames else self.code_of(tid)
            instr = code.instrs[frame.pc]
            op = instr.op
            line = ctx.line = instr.line
            ctx.frame = frame.locals
            if op in ("assign", "decl"):
                value = 0 if instr.expr is None else _eval(instr.expr, ctx)
                self._write(state, frame, instr.name, value)
                frame.pc += 1
            elif op in ("assume", "assert"):
                if _eval(instr.expr, ctx) == 0:
                    if op == "assume":
                        return ("kill", "assume")
                    return self._violate(state, tid, line,
                                         Violation("assertion", line))
                frame.pc += 1
            elif op in ("branch", "loop_head"):
                if _eval(instr.expr, ctx) == 0:
                    frame.pc = instr.target
                else:
                    if op == "loop_head":
                        started = state.per_entry.get(line, 0) + 1
                        if started > self.config.loop_bound:
                            return ("kill", "bound")
                        state.per_entry[line] = started
                    frame.pc += 1
            elif op == "switch":
                table = instr.aux
                target = table["labels"].get(_eval(instr.expr, ctx))
                if target is None:
                    target = table["default"]
                if target is None:
                    target = table["end"]
                frame.pc = target
            elif op == "break":
                frame.pc = code.instrs[instr.target].aux["end"]
            elif op == "call":
                callee = self.compiled.callee_codes[instr.args[0]]
                env = dict(callee.locals)
                env.update(zip(callee.params,
                               [_eval(arg, ctx) for arg in instr.args[1]]))
                frames.append(_Frame(callee, 0, env))
            elif op == "return":
                value = _eval(instr.expr, ctx)
                if not frames:
                    # a thread's return value is irrelevant; evaluated for
                    # effects only
                    thread.status = "exited"
                    return self._finish_step(state, tid, line,
                                             normalize=False)
                frames.pop()
                caller = frames[-1] if frames else thread
                site = (frames[-1].code if frames else self.code_of(tid)
                        ).instrs[caller.pc]
                self._write(state, caller, site.name, value)
                caller.pc += 1
                line = site.line
            elif frames:
                raise ModelError(
                    f"unsupported statement inside callable function: {op!r}")
            else:
                return self._exec_thread(state, tid, instr)
            if not frames:
                return self._finish_step(state, tid, line)
            self._normalize(state, tid, frames[-1])

    def _exec_thread(self, state: _State, tid: int, instr: Instr):
        """Executes a threading statement or handle declaration of thread
        tid and returns the outcome."""
        thread = state.threads[tid]
        op = instr.op
        if op == "exit":
            thread.status = "exited"
            return self._finish_step(state, tid, instr.line, normalize=False)
        if op == "wait":
            if thread.status != "reacquire":
                # releases the mutex and blocks; pc stays on the wait until
                # the reacquisition step completes it
                state.mutexes[instr.args[0]] = None
                thread.status = "cond"
                thread.wait_cond = instr.name
                thread.wait_mutex = instr.args[0]
                return self._finish_step(state, tid, instr.line,
                                         normalize=False)
            # completion of a condition wait: grab the mutex and move on
            mutex = thread.wait_mutex
            if state.mutexes[mutex] is not None:
                raise ModelError("reacquire scheduled while mutex held")
            state.mutexes[mutex] = tid
            thread.status = "ready"
            thread.wait_cond = ""
            thread.wait_mutex = ""
        elif op == "create":
            fname = instr.args[0]
            ordinal = self.compiled.thread_of_fn[fname]
            target = state.threads[ordinal]
            if target.status != "new":
                raise ModelError(
                    f"thread function {fname!r} created twice")
            target.status = "ready"
            state.handles[instr.name] = ordinal
            self._normalize(state, ordinal)
        elif op == "join":
            target = state.handles.get(instr.name)
            if target is None or state.threads[target].status != "exited":
                raise ModelError("join scheduled while target is running")
        elif op == "lock":
            if state.mutexes[instr.name] is not None:
                raise ModelError("lock scheduled while mutex held")
            state.mutexes[instr.name] = tid
        elif op == "unlock":
            state.mutexes[instr.name] = None
        elif op == "signal":
            waiters = [i for i, t in enumerate(state.threads)
                       if t.status == "cond" and t.wait_cond == instr.name]
            if waiters:
                woken = state.threads[min(waiters)]
                woken.status = "reacquire"
                woken.wait_cond = ""
        elif op != "nopstep":
            raise ModelError(f"unexpected instruction {op!r}")
        thread.pc += 1
        return self._finish_step(state, tid, instr.line)

    # -- step helpers -----------------------------------------------------

    def _write(self, state: _State, frame, name: str, value: int) -> None:
        if name in frame.locals:
            frame.locals[name] = value
        elif name in state.globals:
            state.globals[name] = value
        else:
            raise ModelError(f"write to unknown variable {name!r}")

    def _violate(self, state: _State, tid: int, line: int,
                 violation: Violation):
        state.trace = (state.trace, (tid, line))
        state.last_thread = tid
        return ("violation", violation, state)

    def _finish_step(self, state: _State, tid: int, line: int,
                     normalize: bool = True):
        if normalize:
            self._normalize(state, tid)
        state.trace = (state.trace, (tid, line))
        state.last_thread = tid
        return ("state", state)


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
    the completed-iteration counts after each step, the indices of steps
    that complete a condition wait, the final state and the violation of
    the last step, if any. Raises TraceMismatch where the schedule does not
    fit the program or leaves recorded choices unused."""
    # a schedule is checked against the program, not the search bounds, so
    # the replay never cuts it at the loop bound
    machine = _Machine(compiled, VerifierConfig(loop_bound=10 ** 9),
                       replay=list(reversed(choices)))
    state = machine.initial_state()
    steps: list[TraceStep] = []
    counters: list[dict[int, int]] = []
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
        valuation = dict(state.globals)
        valuation.update(state.threads[tid].locals)
        steps.append(TraceStep(i, tid, line, valuation))
        counters.append(dict(state.cum_iters))
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
        if prev.line in compiled.loop_lines:
            # a switch after a loop-header evaluation may resume inside the
            # loop body, so the loop's own count is needed for the guard
            enclosing.append(prev.line)
        switch_counters.append({ln: after.get(ln, 0) for ln in enclosing})
    return Counterexample(
        steps=steps,
        switches=switches,
        violation=violation,
        nondet_choices=_unlink(state.choices),
        switch_loop_counters=switch_counters,
        wait_resume_steps=wait_resumes,
    )


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def _group_value(state: _State, group_by: str) -> int | None:
    return state.threads[0].locals.get(group_by)


def _intern(parts: dict, value) -> int:
    return parts.setdefault(value, len(parts))


def _state_key(state: _State, parts: dict) -> tuple[int, int, int]:
    """Everything about a state that steers its successors: all but its
    trace and choices. Globals and locals keep their keys' order, so their
    values suffice; the path decides the order of the small dicts, so those
    are sorted. Every part is interned in parts, one dict per search: each
    thread and each small dict, then the globals, the thread list and the
    control part. A thread or small dict takes few values in a search, so
    a stored key is three small ints over little interned data."""
    threads = tuple(
        _intern(parts, (t.pc, tuple(t.locals.values()), t.status,
                        t.wait_cond, t.wait_mutex))
        for t in state.threads)
    control = (_intern(parts, tuple(sorted(state.handles.items()))),
               _intern(parts, tuple(state.mutexes.values())),
               _intern(parts, tuple(sorted(state.per_entry.items()))),
               _intern(parts, tuple(sorted(state.cum_iters.items()))),
               state.switches, state.last_thread)
    return (_intern(parts, tuple(state.globals.values())),
            _intern(parts, threads), _intern(parts, control))


def _explore(machine: _Machine, first_leaf: bool = False,
             group_by: str | None = None,
             groups: list[GroupedViolation] | None = None):
    """DFS over interleavings and nondet values.

    Returns ('violation', Violation, state) | ('exhausted', states)
    | ('safe', states) and, in first_leaf mode, ('leaf', kind, state) for
    the first completed/cut path.

    With group_by, a violation where that local of main is nonzero is
    appended to groups and does not end the search: the rest of that
    value's subtree, which sits on top of the stack, is dropped and the
    search goes on. The value must stay fixed once drawn.

    A state with two or more live threads, where interleavings meet again,
    is keyed by _state_key; the sequential models of diagnosis and
    validation have none and pay nothing. Expanding such a state pushes a
    ('done', key, groups recorded, state) marker under its children; when
    the marker is popped, its subtree is finished, and the key enters `done`
    unless the subtree recorded a group. A popped state whose key is in
    `done` is skipped and not counted toward max_states (machine.pruned
    counts it): its subtree would reach no violation and no leaf, and any
    cut in it has already set bound_hit. A state equal to one of its own
    ancestors is never skipped, since that subtree is not finished.
    """
    config = machine.config
    groups = [] if groups is None else groups
    stack: list[tuple] = [("state", machine.initial_state())]
    visited = 0
    done: set[tuple[int, int, int]] = set()
    parts: dict = {}
    while stack:
        kind = stack.pop()
        if kind[0] == "done":
            if kind[2] == len(groups):
                done.add(kind[1])
            continue
        if kind[0] == "violation":
            if group_by is not None:
                value = _group_value(kind[2], group_by)
                groups.append(GroupedViolation(
                    value, kind[1], _unlink(kind[2].choices)))
                if value:
                    # every entry holds its state last
                    while stack and \
                            _group_value(stack[-1][-1], group_by) == value:
                        stack.pop()
                    continue
            return ("violation", kind[1], kind[2])
        if kind[0] == "cut":
            # a loop-bound kill counts once the search reaches it, in the
            # same order whether or not it happened inside a callee
            machine.bound_hit = True
            if first_leaf:
                return ("leaf", "cut", kind[1])
            continue
        state = kind[1]
        live = machine.live_threads(state)
        if len(live) > 1:
            key = _state_key(state, parts)
            if key in done:
                machine.pruned += 1
                continue
            # every entry holds its state last, for the group drop
            stack.append(("done", key, len(groups), state))
        visited += 1
        if visited > config.max_states:
            return ("exhausted", visited)
        if not live:
            if first_leaf:
                return ("leaf", "completed", state)
            continue
        classes = {tid: machine.classify(state, tid) for tid in live}
        eligible = [tid for tid in live if classes[tid] == "eligible"]
        if not eligible:
            if all(classes[tid] == "sync" for tid in live):
                if config.deadlock_check:
                    violation = Violation(
                        "deadlock", None, tuple(sorted(live)))
                    return ("violation", violation, state)
            if first_leaf:
                return ("leaf", "stuck", state)
            continue
        schedulable = []
        for tid in eligible:
            if state.last_thread is None or tid == state.last_thread:
                schedulable.append(tid)
            elif state.switches < config.context_bound:
                schedulable.append(tid)
        if not schedulable:
            if first_leaf:
                return ("leaf", "budget", state)
            continue
        pushes = []
        for tid in schedulable:
            for outcome in machine.step(state, tid):
                if outcome[0] == "kill":
                    if outcome[1] == "bound":
                        pushes.append(("cut", state))
                    continue
                pushes.append(outcome)
        stack.extend(reversed(pushes))
    return ("safe", visited)


def verify(program: Program, config: VerifierConfig, *,
           group_by: str | None = None) -> VerificationResult:
    """Explores all interleavings within bounds; returns the first violation
    in the fixed exploration order, or safe-within-bounds.

    With group_by, the name of a local of main, one search collects the
    first violation of every nonzero value of that local into `groups`,
    in discovery order. A violation where it is 0 (or missing) ends the
    search as outcome 'violation' and is the last group; the search
    otherwise ends 'safe-within-bounds' or, past max_states in total,
    'resource-exhausted'. No counterexample is built in this mode.
    """
    compiled = CompiledProgram(program)
    machine = _Machine(compiled, config)
    groups: list[GroupedViolation] = []
    result = _explore(machine, group_by=group_by, groups=groups)
    if result[0] == "violation":
        state = result[2]
        cex = None if group_by is not None else _build_counterexample(
            compiled, _unlink(state.trace), _unlink(state.choices),
            result[1])
        return VerificationResult("violation", cex,
                                  bound_hit=machine.bound_hit,
                                  pruned=machine.pruned, groups=groups)
    outcome = "resource-exhausted" if result[0] == "exhausted" \
        else "safe-within-bounds"
    return VerificationResult(outcome, None, bound_hit=machine.bound_hit,
                              states=result[1], pruned=machine.pruned,
                              groups=groups)


def first_path(program: Program, config: VerifierConfig):
    """Follows the first surviving path to a leaf.

    Returns (kind, steps, valuation) where kind is 'violation', 'completed',
    'cut', 'stuck' or 'budget'; steps is the executed line trace.
    """
    compiled = CompiledProgram(program)
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
    per_thread_counts: dict[int, int] = {}
    for sw in counterexample.switches:
        per_thread_counts[sw.from_thread] = \
            per_thread_counts.get(sw.from_thread, 0) + 1
    return Schedule(
        segments=segments,
        order_tags=[seg.tag for seg in segments],
        per_thread_counts=per_thread_counts,
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
