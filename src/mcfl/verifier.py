"""Explicit-state bounded verifier for mini-C programs.

Each function body compiles to a flat instruction list; threads interleave at
statement granularity under a context-switch budget, loops unwind up to a
bound, and every nondet() branches over its value domain. Exploration is
depth-first with a fixed order (ascending thread ordinal, ascending nondet
value), so "first violation found" is deterministic and reproducible.

A state holds its values in tuples, one slot per global, local, mutex,
thread handle and loop; a step rebuilds only the tuples it changes. Each
expression compiles once, with the instruction that holds it, to a closure
from the step's context to its value (Feeley and Lapalme, "Using closures
for code generation", 1987). Every name it reads or writes is resolved to
its slot then, and the same walk collects the global slots each
instruction touches, from which the reduced search decides commuting
steps. A nondet() takes its value from one draw. A step runs its statement
once per nondet path, the draws of each run stepping through their domains
in order; a replay runs the same step code with every draw taking the
recorded value, so search and replay cannot disagree on how a value is
drawn.

A lazy-decision search (verify with sites) takes candidate sites, lines of
main each with the expression a path runs there once it picks the line;
the program compiles once, its sites included. A path decides a site only
when it first runs it, declining it first and then picking it, and the
picked paths run after the whole undecided tree, so all sites share the
unchanged prefix. One such search over the sequential program both
diagnoses and validates: a site's witness is the value of the first picked
path that reaches the end of main, and the site validates when every path
that runs it with that value passes. A constant in place of a line's value
is the same site, picked with that value before any search starts
(CompiledProgram.with_constant).

A picked path's decision holds the values that it runs the site with, as
one ascending tuple, its members: one value, or a value set (variational
execution, Nguyen, Kastner and Nguyen, ICSE 2014, over one finite-domain
variable). In the search with value sets, a pick that draws puts its
whole domain there on its first run and splits it at once: the lowest
value alone first, then the rest together. The value of an expression on
such a path holds one integer per member; each operator applies member
by member, lifted once per operator in the one closure every program
compiles it to, which applies the operator directly to plain integers,
so a program without sites never lifts one. A truth test, divisor,
switch value or index whose members disagree splits the path: the step's
nondet-path loop takes the partitions in order of their least member, as
it takes a draw's values, and the path's decision keeps the members of
the partition taken. A value set is read only at the path's members, so
what it holds for a member that a split dropped stays unread, and no
pass removes it. A witness is then the least member that reaches the end
of main, the value that the search taking one value per path would find
first, and a failure fails every member of its path. Only an operation
outside the model can tell the two apart: a member may reach it before a
lower one reaches the end of main, where the search per value stops
first.

Outside a lazy-decision search, verify caches finished states: once the
whole subtree below a state with two or more live threads has been explored
without ending the search, a later state equal to it apart from its path
(schedule and nondet choices) and with at least as many context switches
used is skipped. Its subtree is part of the finished one, so it could only
repeat work that found nothing; the first violation, its schedule and
choices and the loop-bound flag are those of the search without the cache.
The other searches run uncached.

There verify first runs a reduced search: at a state where the thread that
ran last can run together with others, it runs that thread alone if its
statement commutes with every step the others can take before it (persistent
sets, Godefroid 1996). That holds for a statement that neither blocks nor is
blocked, changes no thread, handle or mutex other than unlocking one the
thread owns, kills none of its nondet paths, and touches only globals that
every other thread, from its pc on, accesses only while it must hold a mutex
that the running thread holds now. Critical sections and thread-local steps
so run without preemption points. Running on the last thread never adds a
context switch (Coons, Musuvathi and McKinley 2013), so the reduced search
finds a violation, and a loop-bound cut, exactly when the ordered one does.
The two share one cache, and the reduced search records a finished subtree
only if it reached no loop-bound cut below it, so the ordered search sets
the loop-bound flag as it would alone.

So verify, with sites or without, runs a fast search first, whose result
can differ from the exact search's only where it raised a ModelError or
its violation lies on a reordered path, one that ran a thread ahead of a
lower-numbered one. One rule covers both: the fast result is final
unless it is one of those, and then the exact search runs with what is
left of max_states (the two share it, so none runs after a fast search
that ran out). Without sites the fast search is the reduced one and the
exact one the ordered search, which skips the states the reduced one
finished; with sites the fast search runs value sets and the exact one
takes one value of a pick per path. A ModelError in the exact search is
raised.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

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
    """One diagnosis of a lazy-decision search: the site (0 for an
    undecided path that ended the search), its witness and whether every
    path that runs the site with the witness passes."""

    site: int
    witness: int | None
    validated: bool


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
    # without sites: states the reduced search expanded and its
    # expansions cut to one thread
    reduced_states: int = 0
    reductions: int = 0
    # whether the exact search ran after the fast one, with or without
    # sites (see verify)
    ordered_rerun: bool = False


# ---------------------------------------------------------------------------
# 64-bit two's-complement arithmetic
# ---------------------------------------------------------------------------

_HALF = 1 << 63
_FULL = 1 << 64


def wrap64(v: int) -> int:
    return ((v + _HALF) % _FULL) - _HALF


class _DivByZero(Exception):
    """A division or remainder by zero; the step reports it as a
    division-by-zero violation at the running instruction's line."""


def c_div(a: int, b: int) -> int:
    if b == 0:
        raise _DivByZero
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def c_mod(a: int, b: int) -> int:
    if b == 0:
        raise _DivByZero
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return wrap64(a - b * q)


# the binary operators that evaluate both operands, by symbol
_BINARY: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: wrap64(a + b),
    "-": lambda a, b: wrap64(a - b),
    "*": lambda a, b: wrap64(a * b),
    "/": c_div,
    "%": c_mod,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}

_UNARY: dict[str, Callable[[int], int]] = {
    "-": lambda v: wrap64(-v),
    "!": lambda v: 0 if v else 1,
}


class _Vec(dict):
    """The value of an expression on a path that runs a site's values as
    one set: the value for each member of the set, by member."""

    __slots__ = ()


def _joined(members: tuple[int, ...], values: list[int]) -> int:
    """The value set that gives each of members its value in values, or
    the one value where they all agree."""
    if values.count(values[0]) == len(values):
        return values[0]
    return _Vec(zip(members, values))


# ---------------------------------------------------------------------------
# Compilation to flat instruction lists
# ---------------------------------------------------------------------------


@dataclass
class Instr:
    op: str
    line: int = 0
    name: str = ""  # a wait's or signal's condition
    # a call's callee code and argument evaluators, a create's function
    args: tuple = ()
    # the pc a jump or break goes to, a branch or loop head when its
    # condition is 0, a switch when no case matches (default, else end)
    target: int = -1
    aux: dict | None = None  # a switch's case map: case value -> pc
    slot: int = -1  # mutex, handle or loop slot
    # the value or condition compiled: a function of the step's context
    value: Callable[[_Ctx], int] | None = None
    # (is a global, slot) of the variable an assign or call writes
    var: tuple[bool, int] = (False, -1)
    # the global slots the instruction reads or writes, a callee's aside
    touched: frozenset[int] = frozenset()


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
        # name -> (is a global, slot): the locals, else the globals; read
        # while compiling only
        self.scope = {**global_scope, **{
            name: (False, i) for i, name in enumerate(self.names)}}
        self.param_slots = [self.scope[p][1] for p in fn.params]

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1


# what a statement that only a switch may hold is called outside one
_SWITCH_ONLY = {CaseLabel: "case label", DefaultLabel: "default label",
                Break: "break"}


class CompiledProgram:
    """The functions as instruction lists, and a slot for every global,
    mutex, thread handle and while loop: a state holds their values in
    tuples, in slot order. Each expression is compiled once, with the
    instruction that holds it, its names resolved to slots. sites maps
    lines of main's assignments, ifs and whiles, and no other lines, to the
    expression a path runs there once it picks the line: each compiles as
    a _Site of the value or condition. Every search of the program starts
    from decision, undecided unless with_constant fixed a site."""

    def __init__(self, program: Program,
                 sites: dict[int, Expr] | None = None):
        self.program = program
        self.sites = sites or {}
        self.decision = _UNDECIDED
        self.arrays: dict[str, tuple[int, ...]] = {}
        self.mutex_slots: dict[str, int] = {}
        self.handle_slots: dict[str, int] = {}
        self.loop_slots: dict[int, int] = {}  # by the loop's line

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

        # thread table: ordinal 0 is main, then creation-statement order;
        # every code exists before a body compiles, so a call holds its
        # callee's
        fn_by_name = {fn.name: fn for fn in program.functions}
        fns = [program.main, *(fn_by_name[td.function]
                               for td in program.threads)]
        callees = [fn for fn in program.functions if fn.return_type == "int"]
        self.thread_codes = [Code(fn, self.global_scope) for fn in fns]
        self.thread_of_fn = {td.function: td.ordinal
                             for td in program.threads}
        self.callee_codes = {fn.name: Code(fn, self.global_scope)
                             for fn in callees}
        for code, fn in zip([*self.thread_codes, *self.callee_codes.values()],
                            fns + callees):
            self._compile_body(code, fn.body.stmts, [])
            code.emit(Instr("thread_end", 0))
        self._independence: _Independence | None = None
        missed = self.sites.keys() - {
            stmt.line for stmt in iter_stmts(program.main.body.stmts)
            if isinstance(stmt, (Assign, If, While))}
        if missed:
            raise ValueError(
                f"line {min(missed)} is no assignment, if or while of main")

    def independence(self) -> "_Independence":
        """The facts the reduced search decides commuting steps from, built
        on first use."""
        if self._independence is None:
            self._independence = _Independence(self)
        return self._independence

    def with_constant(self, line: int, value: int) -> "CompiledProgram":
        """This program with its site at line fixed to value, compiling
        nothing: a copy whose every search starts with the site picked and
        value kept, so every run of the line evaluates to value."""
        if line not in self.sites:
            raise ValueError(f"line {line} is no site of this program")
        fixed = copy.copy(self)
        fixed.decision = (line, (wrap64(value),))
        return fixed

    def _compile_body(self, code: Code, stmts: list[Stmt],
                      switches: list[list[Instr]]):
        for stmt in stmts:
            self._compile_stmt(code, stmt, switches)

    def _compile_stmt(self, code: Code, stmt: Stmt,
                      switches: list[list[Instr]]) -> None:
        """Emits stmt with every jump target resolved. switches holds each
        open switch, innermost last: its instruction, then its breaks. A
        label emits nothing and names the next pc: a case in the switch's
        case map, a default as its target. The switch without a default
        and every break then target the end of its body."""
        ln = stmt.line
        body = self._compile_body
        # the value or condition of main's line, a site where sites names it
        pick = self.sites.get(ln) if code is self.thread_codes[0] else None
        own = (lambda expr: expr) if pick is None else \
            (lambda expr: _Site(ln, expr, pick))

        def emit(op: str, expr: Expr | None = None, **fields) -> int:
            instr = Instr(op, ln, **fields)
            if expr is not None:
                # it touches the globals expr reads and the variable it sets
                found = {instr.var[1]} if instr.var[0] else set()
                instr.value = self._expr(expr, code.scope, found)
                if op in ("assume", "assert", "branch", "loop_head"):
                    instr.value = self._decided(instr.value, bool)
                elif op == "switch":
                    instr.value = self._decided(
                        instr.value, lambda v: instr.aux.get(v, instr.target))
                instr.touched = frozenset(found)
            return code.emit(instr)

        if isinstance(stmt, Decl):
            emit("assign", IntLit(0) if stmt.init is None else stmt.init,
                 var=_slot(code.scope, stmt.name, "write to"))
        elif isinstance(stmt, Assign):
            emit("assign", own(stmt.expr),
                 var=_slot(code.scope, stmt.name, "write to"))
        elif isinstance(stmt, CallAssign):
            callee = self.callee_codes.get(stmt.func)
            if callee is None:
                raise ModelError(
                    f"call to {stmt.func!r}, which is no int function")
            var = _slot(code.scope, stmt.name, "write to")
            found = {var[1]} if var[0] else set()
            code.emit(Instr("call", ln, args=(callee, tuple(
                self._expr(arg, code.scope, found) for arg in stmt.args)),
                var=var, touched=frozenset(found)))
        elif isinstance(stmt, Assert):
            emit("assert", stmt.expr)
        elif isinstance(stmt, Assume):
            emit("assume", stmt.expr)
        elif isinstance(stmt, Return):
            emit("return", stmt.expr)
        elif isinstance(stmt, Block):
            body(code, stmt.stmts, switches)
        elif isinstance(stmt, If):
            br = emit("branch", own(stmt.cond))
            body(code, stmt.then.stmts, switches)
            if stmt.els is not None:
                jmp = emit("jump")
                code.instrs[br].target = len(code.instrs)
                body(code, stmt.els.stmts, switches)
                code.instrs[jmp].target = len(code.instrs)
            else:
                code.instrs[br].target = len(code.instrs)
        elif isinstance(stmt, While):
            loop = self.loop_slots[ln]
            emit("loop_enter", slot=loop)
            head = emit("loop_head", own(stmt.cond), slot=loop)
            body(code, stmt.body.stmts, switches)
            emit("loop_iter", slot=loop)
            emit("jump", target=head)
            code.instrs[head].target = len(code.instrs)
        elif isinstance(stmt, For):
            var = _slot(code.scope, stmt.var, "write to")
            emit("assign", stmt.init, var=var)
            head = emit("branch", stmt.cond)
            body(code, stmt.body.stmts, switches)
            emit("assign", stmt.update, var=var)
            emit("jump", target=head)
            code.instrs[head].target = len(code.instrs)
        elif isinstance(stmt, Switch):
            opened = [code.instrs[emit("switch", stmt.scrutinee, aux={})]]
            switches.append(opened)
            body(code, stmt.body.stmts, switches)
            switches.pop()
            for instr in opened:
                if instr.target < 0:
                    instr.target = len(code.instrs)
        elif type(stmt) in _SWITCH_ONLY:
            if not switches:
                raise ModelError(f"{_SWITCH_ONLY[type(stmt)]} outside switch")
            if isinstance(stmt, CaseLabel):
                switches[-1][0].aux[stmt.value] = len(code.instrs)
            elif isinstance(stmt, DefaultLabel):
                switches[-1][0].target = len(code.instrs)
            else:
                switches[-1].append(code.instrs[emit("break")])
        elif isinstance(stmt, ThreadCreate):
            emit("create", args=(stmt.func,),
                 slot=self.handle_slots[stmt.handle])
        elif isinstance(stmt, ThreadJoin):
            emit("join", slot=self.handle_slots[stmt.handle])
        elif isinstance(stmt, ThreadExit):
            emit("exit")
        elif isinstance(stmt, MutexLock):
            emit("lock", slot=self.mutex_slots[stmt.name])
        elif isinstance(stmt, MutexUnlock):
            emit("unlock", slot=self.mutex_slots[stmt.name])
        elif isinstance(stmt, CondWait):
            emit("wait", name=stmt.cond, slot=self.mutex_slots[stmt.mutex])
        elif isinstance(stmt, CondSignal):
            emit("signal", name=stmt.name)
        elif isinstance(stmt, (ThreadDecl, ThreadAttrDecl, CondAttrDecl,
                               MutexDecl, CondDecl, CondInit)):
            emit("nopstep")
        elif isinstance(stmt, ArrayDecl):
            raise ModelError("array declarations are global only")
        else:
            raise ModelError(f"cannot compile statement {stmt!r}")

    def _expr(self, expr: Expr, scope: dict, found: set[int]
              ) -> Callable[[_Ctx], int]:
        """expr as a function from a step's context to its value on the
        context's nondet path, its names resolved in scope; adds the global
        slots it reads to found. Operands are evaluated left to right; && ||
        ?: evaluate only what they need. Global arrays are never written,
        so reading one touches no slot. Compiling, like evaluating, takes
        one Python frame per level of expr.

        A value may be a value set (_Vec): each operator then applies
        member by member, and a truth test or index whose members disagree
        splits the path (_Ctx.split). Plain integers, the only values of a
        path without a value set, take the operator directly."""
        if isinstance(expr, IntLit):
            value = wrap64(expr.value)
            return lambda ctx: value
        if isinstance(expr, Var):
            is_global, slot = _slot(scope, expr.name, "read of")
            if is_global:
                found.add(slot)
                return lambda ctx: ctx.globals[slot]
            return lambda ctx: ctx.locals[slot]
        if isinstance(expr, Binary):
            left = self._expr(expr.left, scope, found)
            right = self._expr(expr.right, scope, found)
            if expr.op in ("&&", "||"):
                left, right = (self._decided(left, bool),
                               self._decided(right, bool))
                if expr.op == "&&":
                    return lambda ctx: 1 if left(ctx) and right(ctx) else 0
                return lambda ctx: 1 if left(ctx) or right(ctx) else 0
            op = _BINARY.get(expr.op)
            if op is None:
                raise ModelError(f"unknown operator {expr.op!r}")

            def binary(ctx: _Ctx) -> int:
                a, b = left(ctx), right(ctx)
                if a.__class__ is int is b.__class__:
                    return op(a, b)
                return ctx.lift(op, a, b)
            return binary
        if isinstance(expr, Nondet):
            bounds = None if expr.lo is None else (expr.lo, expr.hi)
            return lambda ctx: ctx.draw(bounds)
        if isinstance(expr, Index):
            name, array = expr.name, self.arrays.get(expr.name)
            if array is None:
                raise ModelError(f"unknown array {name!r}")
            index = self._decided(self._expr(expr.index, scope, found))

            def read(ctx: _Ctx) -> int:
                i = index(ctx)
                if not 0 <= i < len(array):
                    raise ModelError(
                        f"array index {i} out of range for {name!r}")
                return array[i]
            return read
        if isinstance(expr, Unary):
            operand = self._expr(expr.operand, scope, found)
            op = _UNARY.get(expr.op)
            if op is None:
                raise ModelError(f"unknown operator {expr.op!r}")

            def unary(ctx: _Ctx) -> int:
                v = operand(ctx)
                return op(v) if v.__class__ is int else ctx.lift(op, v)
            return unary
        if isinstance(expr, Ternary):
            cond = self._decided(self._expr(expr.cond, scope, found), bool)
            then = self._expr(expr.then_expr, scope, found)
            els = self._expr(expr.else_expr, scope, found)
            return lambda ctx: then(ctx) if cond(ctx) else els(ctx)
        if isinstance(expr, _Site):
            default = self._expr(expr.default, scope, found)
            pick = self._expr(expr.pick, scope, found)
            return lambda ctx: ctx.site(expr, default, pick)
        raise ModelError(f"cannot compile expression {expr!r}")

    def _decided(self, value: Callable[[_Ctx], int],
                 key: Callable[[int], object] | None = None
                 ) -> Callable[[_Ctx], int]:
        """value made a plain integer: a value set becomes its least
        member's value once the path has split where its members disagree
        on key, the value itself by default."""

        def decided(ctx: _Ctx) -> int:
            v = value(ctx)
            return v if v.__class__ is int else ctx.split(v, key)
        return decided


def _slot(scope: dict, name: str, access: str) -> tuple[bool, int]:
    """(is a global, slot) of variable name in scope."""
    where = scope.get(name)
    if where is None:
        raise ModelError(f"{access} unknown variable {name!r}")
    return where


# ---------------------------------------------------------------------------
# Step context
# ---------------------------------------------------------------------------


class _Site(NamedTuple):
    """The expression of a candidate site: pick on a path that picked the
    site's line, default on any other."""

    line: int
    default: Expr
    pick: Expr


# the decision of a path outside a lazy-decision search, or before it has
# picked or declined a site: (picked site, 0 while undecided; the sites
# declined, or for a picked site its members, the ascending tuple of the
# values it holds). Before its first run of the site a picked path holds
# none: () in the exact search, _SPREAD in the value-set search
_UNDECIDED = (0, frozenset())


class _Unrun(tuple):
    """An empty tuple that is not (): it tells the value-set search's
    unrun pick apart from the exact search's."""

    __slots__ = ()


_SPREAD = _Unrun()


class _Ctx:
    """One run of a step along one nondet path: the parts of the state it
    has rebuilt so far, the running frame's locals and instruction line,
    and the values drawn.

    Draw i takes prefix[i] where the prefix has one, else the lowest value
    of its domain; a replaying machine takes the next recorded choice
    instead. Each draw records (value, hi), so that the step can tell which
    draws have a next value, and appends (line, value) to the choices. A
    split of a value set is a choice of the same kind, over the indices of
    its partitions, and narrows the members that decision holds."""

    __slots__ = ("machine", "line", "prefix", "drawn", "choices", "locals",
                 "globals", "threads", "handles", "mutexes", "per_entry",
                 "cum_iters", "decision")

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

    def store(self, var: tuple[bool, int], value: int) -> None:
        """Writes value to var: (is a global, slot), a local of the running
        frame where it is not a global."""
        if var[0]:
            self.globals = _put(self.globals, var[1], value)
        else:
            self.locals = _put(self.locals, var[1], value)

    def _choice(self, lo: int, hi: int) -> int:
        """The next choice of the run among lo..hi: the prefix's, else
        lo."""
        n = len(self.drawn)
        value = self.prefix[n] if n < len(self.prefix) else lo
        self.drawn.append((value, hi))
        return value

    def draw(self, bounds: tuple[int, int] | None) -> int:
        lo, hi = bounds or self.machine.config.nondet_domain
        replay = self.machine.replay
        if replay is None:
            value = self._choice(lo, hi)
        else:
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
            value = wrap64(value)
            self.drawn.append((value, value))
        self.choices = (self.choices, (self.line, value))
        return value

    def split(self, values: _Vec, key: Callable[[int], object] | None
              ) -> int:
        """The value of the path's least member, once the path holds only
        members that agree with it on key (on the value itself without
        one). Where they disagree, the path splits like a draw: the
        partitions of equal key, in order of their least member, are the
        choices, and the run's decision keeps the one it takes."""
        picked, held = self.decision
        parts: dict[object, list[int]] = {}
        for m in held:
            parts.setdefault(values[m] if key is None else key(values[m]),
                             []).append(m)
        if len(parts) > 1:
            held = tuple(list(parts.values())[
                self._choice(0, len(parts) - 1)])
            self.decision = (picked, held)
        return values[held[0]]

    def lift(self, op: Callable[..., int], *args) -> int:
        """op applied member by member to args, one of them a value set: a
        value set, or the one value where the members agree. A divisor
        that is zero for some members splits the path first."""
        if (op is c_div or op is c_mod) and args[1].__class__ is _Vec and \
                self.split(args[1], bool) == 0:
            raise _DivByZero
        held = self.decision[1]
        return _joined(held, [
            op(*[a[m] if a.__class__ is _Vec else a for a in args])
            for m in held])

    def site(self, expr: _Site, default: Callable[[_Ctx], int],
             pick: Callable[[_Ctx], int]) -> int:
        """The value of the candidate site expr on this path, default and
        pick its compiled expressions. An undecided path declines a site it
        runs for the rest of the path; the search runs the pick later,
        from the state before the step. A path that picked the site runs
        it with its members. Its first run there makes them the pick's
        value or, in the value-set search where the pick draws, its whole
        domain, split at once into its lowest value alone, then the rest
        together."""
        picked, kept = self.decision
        if picked != expr.line:
            if not picked and expr.line not in kept:
                self.decision = (0, kept | {expr.line})
            return default(self)
        nondet = expr.pick
        if kept is _SPREAD and isinstance(nondet, Nondet):
            lo, hi = self.machine.config.nondet_domain if nondet.lo is None \
                else (nondet.lo, nondet.hi)
            self.decision = (picked, tuple(range(lo, hi + 1)))
            rest = _Vec.fromkeys(self.decision[1], 1)
            rest[lo] = 0
            self.split(rest, None)
        elif not kept:
            self.decision = (picked, (pick(self),))
        kept = self.decision[1]
        return kept[0] if len(kept) == 1 else _Vec(zip(kept, kept))


def _put(items: tuple, i: int, value) -> tuple:
    """items with item i replaced by value."""
    copy = list(items)
    copy[i] = value
    return tuple(copy)


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
    decision: tuple[int, frozenset[int] | tuple[int, ...]] = _UNDECIDED


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
        # finished subtrees; in the reduced search, the expansions it cut to
        # one thread
        self.states = 0
        self.pruned = 0
        self.reductions = 0

    # -- state construction ---------------------------------------------

    def initial_state(self) -> _State:
        c = self.compiled
        loops = len(c.loop_slots)
        state = _State(c.global_init, tuple(
            _Thread(0, code.locals, "new") for code in self.codes), _Control(
            (None,) * len(c.handle_slots), (None,) * len(c.mutex_slots),
            (None,) * loops, (0,) * loops, None, c.decision), 0, None,
            None)
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
        a nondet ends the path without a draw there. A split of a value set
        (_Ctx.split) is such a draw over its partitions. A replaying machine
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
        ctx.locals = thread.locals
        callers: list[tuple] = []  # (code, pc, locals), innermost last
        try:
            while True:
                instr = code.instrs[pc]
                op = instr.op
                line = ctx.line = instr.line
                if op == "assign":
                    ctx.store(instr.var, instr.value(ctx))
                    pc += 1
                elif op in ("assume", "assert"):
                    if instr.value(ctx) == 0:
                        if op == "assume":
                            return ("kill", "assume")
                        violation = Violation("assertion", line)
                        break
                    pc += 1
                elif op in ("branch", "loop_head"):
                    if instr.value(ctx) == 0:
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
                    pc = instr.aux.get(instr.value(ctx), instr.target)
                elif op == "break":
                    pc = instr.target
                elif op == "call":
                    callee, args = instr.args
                    env = list(callee.locals)
                    for slot, value in zip(callee.param_slots,
                                           [arg(ctx) for arg in args]):
                        env[slot] = value
                    callers.append((code, pc, ctx.locals))
                    code, pc, ctx.locals = callee, 0, tuple(env)
                elif op == "return":
                    value = instr.value(ctx)
                    if not callers:
                        # a thread's return value is irrelevant; evaluated
                        # for effects only
                        return self._finish(ctx, state, tid, thread._replace(
                            locals=ctx.locals, status="exited"), line)
                    code, pc, ctx.locals = callers.pop()
                    site = code.instrs[pc]
                    ctx.store(site.var, value)
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
    loops = enclosing_loops(compiled.program)
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
        enclosing = list(loops.get(prev.line, []))
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

# the statements a thread may run ahead of the others where the globals they
# touch allow it: none blocks, is blocked by another thread, or changes a
# thread, handle, mutex or condition
_LOCAL_OPS = frozenset(("assign", "branch", "loop_head", "assume", "assert",
                        "switch", "break", "nopstep", "call"))


def _successors(code: Code, pc: int) -> tuple[int, ...]:
    """The pcs that code may run right after its instruction at pc."""
    instr = code.instrs[pc]
    op = instr.op
    if op in ("jump", "break"):
        return (instr.target,)
    if op in ("branch", "loop_head"):
        return (pc + 1, instr.target)
    if op == "switch":
        return (*instr.aux.values(), instr.target)
    if op in ("return", "exit", "thread_end"):
        return ()
    return (pc + 1,)


def _callee_globals(callee: Code) -> frozenset[int]:
    """The global slots that callee and the functions it calls read or
    write."""
    found: set[int] = set()
    todo, seen = [callee], {callee}
    while todo:
        for instr in todo.pop().instrs:
            found |= instr.touched
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
    writes (a call with its callees', transitively), and the mutexes each
    thread must hold at each pc.

    A mutex counts as held only where no thread may unlock or wait on it
    without holding it, since unlock and wait free a mutex whoever owns it.
    A join waits for the thread its handle points to only where a single
    pthread_create sets that handle, since a second one re-points it."""

    def __init__(self, compiled: CompiledProgram):
        self.codes = compiled.thread_codes
        callees = {code: _callee_globals(code)
                   for code in compiled.callee_codes.values()}
        self.globals: list[list[frozenset[int]]] = [[
            instr.touched | callees[instr.args[0]] if instr.op == "call"
            else instr.touched for instr in code.instrs]
            for code in self.codes]
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
        distinct sets of mutexes it must hold where it does. The walk does
        not pass a join on a handle of stops."""
        key = (tid, pc, stops)
        found = self._reach.get(key)
        if found is None:
            code, touches, held = \
                self.codes[tid], self.globals[tid], self.held[tid]
            sets: dict[int, set[frozenset[int]]] = {}
            seen, todo = {pc}, [pc]
            while todo:
                at = todo.pop()
                for g in touches[at]:
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
        if instr.op not in _LOCAL_OPS:
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
            for g in touched:
                for must in reach.get(g, ()):
                    if must.isdisjoint(held):
                        return False
        return True


def _alone(machine: _Machine, state: _State,
           schedulable: list[int]) -> list | None:
    """For the reduced search (see _explore): the outcomes of the last
    thread's step where that thread runs alone, since others are
    schedulable and its step commutes and kills no path; else None.
    machine.reductions counts the expansions so cut to one thread."""
    last = state.control.last_thread
    if len(schedulable) < 2 or last not in schedulable or \
            not machine.compiled.independence().commutes(state, last):
        return None
    own = machine.step(state, last)
    if any(outcome[0] == "kill" for outcome in own):
        return None
    machine.reductions += 1
    if last != schedulable[0]:
        own = [(*outcome[:-1], outcome[-1]._replace(reordered=True))
               for outcome in own]
    return own


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


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
    """The two books of a lazy-decision search over the candidate sites of
    a program compiled with them (see CompiledProgram).
    Diagnosis: a site's witness is the least value whose picked path
    reaches the end of main, in the first pick of the site that has one.
    Validation: the site passes when every path that runs it with the
    witness passes. A site whose pick is a literal has that value as its
    witness from the start, so the search only validates it.

    A path starts undecided. A step of an undecided path that runs a site
    it has not declined declines it for the rest of the path and defers
    the pick: the search first finishes the whole undecided tree, then
    runs the deferred picks one at a time, in the order they were made,
    each by stepping the state before the site again with the site picked.
    A picked path holds the values of its first run of the site, its
    members, in its decision. A pick that draws holds its whole domain,
    split at once like any value set (_Ctx.split) into the lowest value
    alone, then the rest together, whose members stay on one path until
    they disagree. Given start (), the exact search that verify runs
    after a ModelError, a deferred pick draws as any nondet() does, one
    value per path.

    A failure is a violation or a loop-bound cut, and ends its path. On a
    picked path it fails every value the path holds; on an undecided path
    it fails every site the path has not declined. While some site has no
    witness, an undecided path that reaches the end of main or divides by
    zero instead ends the search, as site 0. Once a picked path reaches the
    end of main, the pick keeps only the paths that hold a value below the
    witness so far, or the witness while no path holding it has failed.
    The site's pending picks run with the witness alone, and once it has
    failed, they are dropped."""

    def __init__(self, sites: dict[int, Expr], start: tuple = _SPREAD):
        self.lines = frozenset(sites)
        # what a deferred pick holds before its first run of the site
        self.start = start
        self.witness = {line: wrap64(pick.value)
                        for line, pick in sites.items()
                        if isinstance(pick, IntLit)}
        self.failed: dict[int, set[int]] = {}  # values failed, by site
        self.refuted: set[int] = set()  # failed by an undecided path
        # deferred picks (site, state before it with the site picked,
        # thread), in the order made
        self.picks: list[tuple[int, _State, int]] = []
        self.ran = 0  # picks[:ran] have run or been dropped

    def invalid(self, line: int) -> bool:
        """Whether the witness of site line has failed."""
        return line in self.refuted or \
            self.witness[line] in self.failed.get(line, ())

    def defer(self, machine: _Machine, state: _State, tid: int) -> None:
        """Defers the pick of the site that thread tid's step from the
        undecided state runs, if it is one the path has not declined."""
        line = machine.codes[tid].instrs[state.threads[tid].pc].line
        if line in self.lines and line not in state.control.decision[1]:
            picked = state.control._replace(decision=(line, self.start))
            self.picks.append((line, state._replace(control=picked), tid))

    def next_pick(self, machine: _Machine, stack: list) -> bool:
        """Runs the next pick of a site not settled, with its witness once
        it has one: pushes the entries of its step onto the empty stack.
        False once none is left."""
        while self.ran < len(self.picks):
            line, state, tid = self.picks[self.ran]
            self.ran += 1
            if line in self.witness:
                if self.invalid(line):
                    continue
                state = state._replace(control=state.control._replace(
                    decision=(line, (self.witness[line],))))
            stack.extend(reversed(_entries(state, machine.step(state, tid))))
            return True
        return False

    def fail(self, violation: Violation | None, decision: tuple,
             stack: list) -> bool:
        """Books a failure, None for a cut, on a path with that decision;
        True if it ends the search."""
        picked, kept = decision
        if picked:
            self.failed.setdefault(picked, set()).update(kept)
            if self.witness.get(picked) in kept:
                self._prune(picked, stack)
            return False
        if violation is not None and violation.kind == "division-by-zero" \
                and self.diagnosing():
            return True
        self.refuted |= self.lines - kept
        return False

    def goal(self, decision: tuple, stack: list) -> bool:
        """Books a path with that decision that reached the end of main;
        True if it ends the search."""
        picked, kept = decision
        if not picked:
            return self.diagnosing()
        if kept[0] < self.witness.get(picked, kept[0] + 1):
            self.witness[picked] = kept[0]
            self._prune(picked, stack)
        return False

    def _prune(self, line: int, stack: list) -> None:
        """Keeps the entries of the running pick of site line that hold a
        value below its witness, or the witness while it has not failed.
        An entry that holds no value failed before the pick gave one, and
        since it fails none, it goes too."""
        bound = self.witness[line] + (not self.invalid(line))
        stack[:] = [entry for entry in stack if min((
            entry[1] if entry[0] == "cut" else entry[-1].control.decision
        )[1], default=bound) < bound]

    def diagnosing(self) -> bool:
        """Whether some site has no witness yet."""
        return len(self.witness) < len(self.lines)

    def records(self, result: str) -> list[SiteRecord]:
        """The records of a search that ended with result: site 0 alone if
        it ended there, else one per site with a witness, by line. In a
        search that ran out, a site is validated only if its picks had all
        run: none before the first pick ran, else not those of the running
        pick and the picks still pending."""
        if result == "violation":
            return [SiteRecord(0, None, False)]
        unsettled = set()
        if result == "exhausted":
            unsettled = set(self.lines) if not self.ran else \
                {line for line, _, _ in self.picks[self.ran - 1:]}
        return [SiteRecord(line, value, not self.invalid(line)
                           and line not in unsettled)
                for line, value in sorted(self.witness.items())]


def _explore(machine: _Machine, first_leaf: bool = False,
             sites: _SiteSearch | None = None, reduce: bool = False,
             done: dict[tuple, int] | None = None):
    """DFS over interleavings and nondet values.

    Returns ('violation', Violation, state) | ('exhausted',) | ('safe',)
    and, in first_leaf mode, ('leaf', kind, state) for the first
    completed/cut path; machine.states counts the expanded states.

    With sites, a lazy-decision search (see _SiteSearch): a step of an
    undecided path that runs a site defers its pick, a violation or cut
    goes to sites.fail, a state in which main has reached its end goes,
    uncounted, to sites.goal, and the search ends once no pick is left or
    one of them ends it.

    With reduce, the reduced search (see the module docstring): a state's
    expansion is _alone's where it gives one.

    With done, the finished-state cache, which only verify passes. A state
    with two or more live threads, where interleavings meet again, is
    keyed by state[:3], and expanding it pushes a ('done', key, cuts,
    switches) marker under its children, switches the state's switch
    count. When the marker is popped, its subtree is finished, and done
    maps the key to that count unless the reduced search reached a
    loop-bound cut below it. A popped state whose key maps to at most its
    own switch count is skipped and not counted toward max_states
    (machine.pruned counts it): its subtree is part of the finished one,
    so it reaches no violation, and any cut in it has set bound_hit
    already. A state equal to one of its own ancestors is never skipped,
    since that subtree is not finished.
    """
    config = machine.config
    stack: list[tuple] = [("state", machine.initial_state())]
    cuts = 0  # loop-bound cuts reached
    while stack or sites is not None and sites.next_pick(machine, stack):
        kind = stack.pop()
        if kind[0] == "done":
            # a count stored for the key came from below, no lower
            if not reduce or kind[2] == cuts:
                done[kind[1]] = kind[3]
            continue
        if kind[0] == "violation":
            if sites is None or sites.fail(
                    kind[1], kind[2].control.decision, stack):
                return ("violation", kind[1], kind[2])
            continue
        if kind[0] == "cut":
            # a loop-bound kill counts once the search reaches it, in the
            # same order whether or not it happened inside a callee
            machine.bound_hit = True
            cuts += 1
            if first_leaf:
                return ("leaf", "cut", kind[2])
            if sites is not None:
                sites.fail(None, kind[1], stack)
            continue
        state = kind[1]
        main = state.threads[0]
        # main has reached its end unless pthread_exit ended it: a return
        # is only ever its final statement
        if sites is not None and main.status == "exited" and \
                machine.codes[0].instrs[main.pc].op != "exit":
            if sites.goal(state.control.decision, stack):
                return ("violation", None, state)
            continue
        live = machine.live_threads(state)
        if done is not None and len(live) > 1:
            key = state[:3]
            if done.get(key, state.switches + 1) <= state.switches:
                machine.pruned += 1
                continue
            stack.append(("done", key, cuts, state.switches))
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
        own = _alone(machine, state, schedulable) if reduce else None
        if own is not None:
            stack.extend(reversed(own))
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
    CompiledProgram), one lazy-decision search (see _SiteSearch)
    collects into `records`, by line, each site whose pick lets a path
    reach the end of main, with its witness (the least value that does,
    in the first pick of the site where one does) and whether every path
    that runs the site with the witness passes: no violation and no
    loop-bound cut. An undecided path
    that reaches the end of main or divides by zero, while some site has
    no witness, ends the search as outcome 'violation' with the only
    record, site 0. The search otherwise ends 'safe-within-bounds' or,
    past max_states in total, 'resource-exhausted'. No counterexample is
    built in this mode.

    Either way a fast search runs first, and the exact one after it only
    where their results could differ: a ModelError, or a violation on a
    reordered path (see the module docstring). Without sites they are the
    reduced and the ordered search, the second seeded with the finished
    states the first recorded; with sites, the search with value sets and
    the one that takes one value of a pick per path. max_states bounds
    the two together: the exact search gets what the fast one left, so
    none runs after a fast search that ran out.

    A compiled program given sites compiles its program again with them,
    not with its own; a Program compiles once, with its sites.
    """
    if isinstance(program, CompiledProgram) and sites is not None:
        program = program.program
    compiled = program if isinstance(program, CompiledProgram) \
        else CompiledProgram(program, sites)
    if sites is None:
        done: dict[tuple, int] = {}
        search, exact = {"reduce": True, "done": done}, {"done": done}
    else:
        search = {"sites": _SiteSearch(sites)}
        exact = {"sites": _SiteSearch(sites, start=())}
    machine = _Machine(compiled, config)
    try:
        result = _explore(machine, **search)
    except ModelError:
        result = ("error",)
    counts = {"reduced_states": machine.states,
              "reductions": machine.reductions} if sites is None else {}
    if result[0] == "error" or \
            result[0] == "violation" and result[2].reordered:
        fast, machine, search = machine, _Machine(compiled, config), exact
        # counted on, so the two share max_states
        machine.states, machine.pruned = fast.states, fast.pruned
        result = _explore(machine, **search)
        counts["ordered_rerun"] = True
    cex = None
    if sites is not None:
        counts["records"] = search["sites"].records(result[0])
    elif result[0] == "violation":
        state = result[2]
        cex = _build_counterexample(compiled, _unlink(state.trace),
                                    _unlink(state.choices), result[1])
    outcome = {"violation": "violation", "exhausted": "resource-exhausted",
               "safe": "safe-within-bounds"}[result[0]]
    return VerificationResult(outcome, cex, bound_hit=machine.bound_hit,
                              states=machine.states, pruned=machine.pruned,
                              **counts)


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
# Counterexample JSON serialization
# ---------------------------------------------------------------------------


def record_to_obj(record) -> dict:
    """A dataclass record as a JSON object: its fields in declaration
    order, a dict-valued one with its keys sorted."""
    return {name: dict(sorted(value.items())) if isinstance(value, dict)
            else value for name, value in asdict(record).items()}


def record_from_obj(cls, obj: dict):
    """The cls that a JSON object holds; keys that are no field of cls
    are ignored."""
    return cls(**{f.name: obj[f.name] for f in fields(cls)})


def counterexample_to_json(cex: Counterexample) -> str:
    doc = {
        "steps": [record_to_obj(s) for s in cex.steps],
        "switches": [record_to_obj(s) for s in cex.switches],
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
        steps=[record_from_obj(TraceStep, s) for s in doc["steps"]],
        switches=[record_from_obj(ContextSwitchRecord, s)
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
