"""Turns a concurrent program plus one failing schedule into a sequential
program that replays exactly that schedule. The schedule is read off the
verifier's counterexample (extract_schedule), and this module alone
numbers its segment tags and rejects a schedule they cannot tag.

Output shape: a global `order` array holding the segment tags, a main whose
for-loop dispatches `switch (order[order_index])`, one outer case per thread
(case 1 is the original main), inner case labels marking segment entry
points, and `if (order[order_index] == tag) break;` guards marking segment
exits. Both names are fresh: a program that already uses `order` gets
`order_2`, and so on. Guards inside loops carry a loopcounter equality so
they fire only at the recorded iteration. Locks and condition variables are
either erased or modelled as plain integers depending on whether the
counterexample was a deadlock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby

from .syntax import (
    ArrayDecl,
    Assert,
    Assign,
    Assume,
    Binary,
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
    PTHREAD_KINDS,
    Return,
    Stmt,
    Switch,
    ThreadAttrDecl,
    ThreadCreate,
    ThreadDecl,
    ThreadExit,
    ThreadJoin,
    Var,
    While,
    clone,
    enclosing_loops,
    iter_stmts,
    program_stmts,
    renumber,
)
from .verifier import Counterexample


class RuleGapError(Exception):
    """A statement kind has no transformation rule."""


class GuardPlacementError(Exception):
    """A schedule position has no image in the sequential program."""


class UnsupportedScheduleError(Exception):
    """A schedule whose segments cannot all be tagged: a thread with 10 or
    more segments, or 10 or more created threads."""


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    thread: int
    from_line: int
    to_line: int
    # completed iterations of each loop enclosing the segment-ending switch,
    # keyed by the loop's original line; empty for the final segment
    loop_counters: dict[int, int]
    tag: int


@dataclass
class Schedule:
    segments: list[Segment]
    # recorded nondet choices, used to pin input values during replay
    nondet_pins: list[tuple[int, int]] = field(default_factory=list)

    @property
    def order_tags(self) -> list[int]:
        return [seg.tag for seg in self.segments]


def extract_schedule(counterexample: Counterexample) -> Schedule:
    """The ordered context-switch structure of a counterexample: one
    segment per run of steps of one thread.

    Tag numbering: segment j of thread n (both counted from their first
    occurrence) receives (n + 1) * 10 + j with j starting at 1. Run k ends
    at switch k and takes a copy of its loop counters; the last run, or
    one the counterexample records no counters for, takes none.
    """
    if not counterexample.steps:
        raise UnsupportedScheduleError("empty trace")
    runs = [list(run) for _, run in
            groupby(counterexample.steps, key=lambda step: step.thread)]
    counters = counterexample.switch_loop_counters[:len(runs) - 1]
    occurrence: dict[int, int] = {}
    segments: list[Segment] = []
    for k, run in enumerate(runs):
        thread = run[0].thread
        j = occurrence[thread] = occurrence.get(thread, 0) + 1
        if j >= 10:
            raise UnsupportedScheduleError(
                f"thread {thread} has {j} execution segments; at most 9 "
                "are supported")
        segments.append(Segment(
            thread, run[0].line, run[-1].line,
            dict(counters[k]) if k < len(counters) else {},
            (thread + 1) * 10 + j))
    return Schedule(segments, list(counterexample.nondet_choices))


# ---------------------------------------------------------------------------
# Line map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapEntry:
    kind: str  # 'original' | 'synthetic'
    value: int | str  # original line, or the synthetic reason
    origin: int | None = None  # callee line for unwind-copy entries


def original_entry(line: int) -> MapEntry:
    return MapEntry("original", line)


def synthetic_entry(reason: str, origin: int | None = None) -> MapEntry:
    return MapEntry("synthetic", reason, origin)


@dataclass
class SequentialProgram:
    program: Program
    line_map: dict[int, MapEntry]

    def original_line(self, seq_line: int) -> int | None:
        """The source line a sequential line stands for: its original, or
        the callee line an unwound copy was made from."""
        entry = self.line_map.get(seq_line)
        if entry is None:
            return None
        if entry.kind == "original":
            return entry.value
        return entry.origin


def line_map_to_json(line_map: dict[int, MapEntry]) -> str:
    doc = {}
    for line in sorted(line_map):
        entry = line_map[line]
        if entry.kind == "original":
            doc[str(line)] = {"kind": "original", "value": entry.value}
        elif entry.value == "unwind-copy":
            doc[str(line)] = {
                "kind": "synthetic",
                "value": {"reason": "unwind-copy", "line": entry.origin},
            }
        else:
            doc[str(line)] = {"kind": "synthetic", "value": entry.value}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Fresh names and provenance marks
# ---------------------------------------------------------------------------


class NamePool:
    """Fresh names: base if it is free, else base_2, base_3, and so on."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        k = 2
        while f"{base}_{k}" in self.taken:
            k += 1
        name = f"{base}_{k}"
        self.taken.add(name)
        return name


def _mark(stmt: Stmt, prov: MapEntry) -> Stmt:
    stmt._prov = prov
    return stmt


# ---------------------------------------------------------------------------
# Call unwinding
# ---------------------------------------------------------------------------


def _inline_call(call: CallAssign, fns: dict[str, FunctionDef],
                 pool: NamePool) -> Block:
    fn = fns[call.func]
    rename: dict[str, str] = {}
    stmts: list[Stmt] = []
    for param, arg in zip(fn.params, call.args):
        fresh = pool.fresh(param)
        rename[param] = fresh
        stmts.append(_mark(Decl(fresh, arg),
                           synthetic_entry("unwind-copy", call.line)))
    stmts.extend(_unwind_stmts(fn.body.stmts, fns, pool, rename, call))
    return Block(stmts)


def _unwind_stmts(stmts: list[Stmt], fns: dict[str, FunctionDef],
                  pool: NamePool, rename: dict[str, str] | None = None,
                  copy_of: CallAssign | None = None) -> list[Stmt]:
    """Copies statements, inlining every call. With copy_of set, the copy
    is a callee body: locals are freshly renamed through rename and
    returns become assignments to the call target."""
    rename = rename if rename is not None else {}
    out: list[Stmt] = []

    def unwind(body: list[Stmt]) -> Block:
        return Block(_unwind_stmts(body, fns, pool, rename, copy_of))

    for s in stmts:
        prov = original_entry(s.line) if copy_of is None else \
            synthetic_entry("unwind-copy", s.line)
        if isinstance(s, PTHREAD_KINDS) and copy_of is not None:
            raise RuleGapError(
                "threading statement inside a callable function")
        if isinstance(s, (Decl, Assign, Assert, Assume) + PTHREAD_KINDS):
            if isinstance(s, Decl) and copy_of is not None:
                rename[s.name] = pool.fresh(s.name)
            node = clone(s, rename)
        elif isinstance(s, CallAssign):
            node = _inline_call(clone(s, rename), fns, pool)
        elif isinstance(s, Return):
            node = clone(s, rename) if copy_of is None else \
                Assign(copy_of.name, clone(s.expr, rename))
        elif isinstance(s, If):
            node = If(clone(s.cond, rename), unwind(s.then.stmts),
                      unwind(s.els.stmts) if s.els is not None else None)
        elif isinstance(s, While):
            node = While(clone(s.cond, rename), unwind(s.body.stmts))
        elif isinstance(s, Block):
            node = unwind(s.stmts)
        elif isinstance(s, (For, Switch, CaseLabel, DefaultLabel, Break)):
            raise RuleGapError(
                f"line {s.line}: {type(s).__name__} has no transformation "
                "rule; for and switch are supported by verify only")
        elif isinstance(s, ArrayDecl):
            raise RuleGapError(
                f"framework statement {type(s).__name__} has no "
                "transformation rule")
        else:
            raise RuleGapError(f"no unwinding rule for {type(s).__name__}")
        out.append(_mark(node, prov))
    return out


def unwind_calls(program: Program) -> Program:
    """Replaces every call-assignment with an inlined block and drops the
    callable function definitions."""
    return renumber(_unwind_annotated(program))


def _taken_names(program: Program,
                 include_callable_locals: bool = True) -> set[str]:
    taken = {"main", "nondet", "diag"}
    for g in program.globals:
        name = getattr(g, "name", None)
        if name:
            taken.add(name)
    for fn in program.functions + [program.main]:
        taken.add(fn.name)
        if fn.return_type == "int" and fn.name != "main" \
                and not include_callable_locals:
            # inlined copies may reuse the callee's own names freely
            continue
        taken.update(fn.params)
        for s in iter_stmts(fn.body.stmts):
            name = getattr(s, "name", None)
            if name:
                taken.add(name)
    return taken


# ---------------------------------------------------------------------------
# Per-statement rewrite rules
# ---------------------------------------------------------------------------


def apply_pthread_rules(stmt: Stmt, deadlock: bool) -> list[Stmt]:
    """Single-statement rewrite: threading statements are erased, or, when
    the counterexample deadlocked, locks and condition variables become
    plain integers with 0/1 assignments. Everything else passes through
    (call-assignments are unwound by a separate pass)."""
    if isinstance(stmt, (ThreadDecl, ThreadAttrDecl, CondAttrDecl,
                         ThreadCreate, ThreadJoin, ThreadExit)):
        return []
    if isinstance(stmt, MutexDecl):
        return [Decl(stmt.name, IntLit(0))] if deadlock else []
    if isinstance(stmt, MutexLock):
        return [Assign(stmt.name, IntLit(1))] if deadlock else []
    if isinstance(stmt, MutexUnlock):
        return [Assign(stmt.name, IntLit(0))] if deadlock else []
    if isinstance(stmt, CondDecl):
        return [Decl(stmt.name)] if deadlock else []
    if isinstance(stmt, CondInit):
        return [Assign(stmt.name, IntLit(0))] if deadlock else []
    if isinstance(stmt, CondWait):
        return [Assign(stmt.cond, IntLit(1))] if deadlock else []
    if isinstance(stmt, CondSignal):
        return [Assign(stmt.name, IntLit(0))] if deadlock else []
    if isinstance(stmt, (Decl, Assign, CallAssign, If, While, Block, Assert,
                         Assume, Return)):
        return [stmt]
    raise RuleGapError(
        f"statement kind {type(stmt).__name__} has no transformation rule")


# ---------------------------------------------------------------------------
# Sequentialization
# ---------------------------------------------------------------------------


# the mark of a loop counter's declaration and of its increment, which
# ends each body of a while
_LOOP_STEP = synthetic_entry("loopcounter")


class _Builder:
    def __init__(self, program: Program, schedule: Schedule, deadlock: bool):
        self.deadlock = deadlock
        self.pool = NamePool(_taken_names(program))
        # the dispatch array and its loop index, usually `order` and
        # `order_index`; named first, so no other fresh name shifts them
        self.dispatch = (self.pool.fresh("order"),
                         self.pool.fresh("order_index"))
        # by original line: where its images sit (statement list, index,
        # count), and the statement lists of an if's or a while's branches
        self.images: dict[int, tuple[list[Stmt], int, int]] = {}
        self.bodies: dict[int, list[list[Stmt]]] = {}
        self.loop_names: dict[int, str] = {}
        self.loop_decls: list[Stmt] = []
        self.hoisted: list[Stmt] = []
        self.model_globals: list[Stmt] = []
        self.pins: dict[int, list[int]] = {}
        for line, value in schedule.nondet_pins:
            self.pins.setdefault(line, []).append(value)
        self.loop_count = 0
        # loops around the statement being transformed; an inlined copy
        # keeps its callee's lines, so the input's loop nesting cannot tell
        self.loop_depth = 0

    def loopcounter(self) -> str:
        self.loop_count += 1
        name = self.pool.fresh(f"loopcounter_{self.loop_count}")
        self.loop_decls.append(_mark(Decl(name, IntLit(0)), _LOOP_STEP))
        return name

    def transform_globals(self, stmts: list[Stmt]) -> None:
        for g in stmts:
            if isinstance(g, Decl):
                self.model_globals.append(_mark(Decl(g.name, g.init),
                                                g._prov))
            elif isinstance(g, PTHREAD_KINDS):
                self._pthread(g, [])
            else:
                raise RuleGapError(
                    f"line {g.line}: {type(g).__name__} has no "
                    "transformation rule; global arrays are supported by "
                    "verify only")

    def transform_body(self, fn: FunctionDef, prefix: str) -> list[Stmt]:
        # hoist every local to a renamed global so segments resumed in a
        # later dispatch still see their values
        rename: dict[str, str] = {}
        for s in iter_stmts(fn.body.stmts):
            if isinstance(s, Decl):
                rename[s.name] = self.pool.fresh(f"{prefix}_{s.name}")
        return self._stmts(fn.body.stmts, rename)

    def _stmts(self, stmts: list[Stmt], rename: dict[str, str]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            start = len(out)
            self._one(s, rename, out)
            if s._prov.kind == "original":
                self.images[s._prov.value] = (out, start, len(out) - start)
        return out

    def _one(self, s: Stmt, rename: dict[str, str], out: list[Stmt]) -> None:
        prov = s._prov
        # the original line s images; None in an unwound callee copy, whose
        # lines no schedule or pin names, since a call is one step
        orig = prov.value if prov.kind == "original" else None
        if isinstance(s, Decl):
            # declaration was hoisted; keep the initializer in place, and
            # in a loop the reset to 0 that each execution makes
            self.hoisted.append(_mark(Decl(rename[s.name]), prov))
            if s.init is not None or self.loop_depth:
                init = IntLit(0) if s.init is None else clone(s.init, rename)
                self._write(Assign(rename[s.name], init), prov, orig, out)
            return
        if isinstance(s, (Assign, Assert, Assume)):
            self._write(clone(s, rename), prov, orig, out)
            return
        if isinstance(s, Return):
            out.append(_mark(Break(), prov))
            return
        if isinstance(s, Block):
            out.append(_mark(Block(self._stmts(s.stmts, rename)), prov))
            return
        if isinstance(s, If):
            branches = [self._stmts(s.then.stmts, rename)]
            if s.els is not None:
                branches.append(self._stmts(s.els.stmts, rename))
            out.append(_mark(If(clone(s.cond, rename), *map(Block, branches)),
                             prov))
            if orig is not None:
                self.bodies[orig] = branches
            return
        if isinstance(s, While):
            self.loop_depth += 1
            body = self._stmts(s.body.stmts, rename)
            self.loop_depth -= 1
            lc = self.loopcounter()
            body.append(_mark(Assign(lc, Binary("+", Var(lc), IntLit(1))),
                              _LOOP_STEP))
            out.append(_mark(While(clone(s.cond, rename), Block(body)), prov))
            if orig is not None:
                self.bodies[orig], self.loop_names[orig] = [body], lc
            return
        if isinstance(s, PTHREAD_KINDS):
            self._pthread(s, out)
            return
        raise RuleGapError(
            f"statement kind {type(s).__name__} has no transformation rule")

    def _write(self, img: Stmt, prov: MapEntry, orig: int | None,
               out: list[Stmt]) -> None:
        """Appends img, marked prov, the image of original line orig. An
        assignment of nondet() is pinned to the value recorded at orig,
        where exactly one is."""
        out.append(_mark(img, prov))
        values = self.pins.get(orig, [])
        if isinstance(img, Assign) and isinstance(img.expr, Nondet) \
                and len(values) == 1:
            out.append(_mark(
                Assume(Binary("==", Var(img.name), IntLit(values[0]))),
                synthetic_entry("nondet-pin")))

    def _pthread(self, s: Stmt, out: list[Stmt]) -> None:
        """The images of a threading statement (apply_pthread_rules): a
        modelled lock or condition variable declaration becomes a global,
        every other image goes to out."""
        reason = "mutex-model" if isinstance(
            s, (MutexDecl, MutexLock, MutexUnlock)) else "cond-model"
        for img in apply_pthread_rules(s, self.deadlock):
            target = self.model_globals if isinstance(img, Decl) else out
            target.append(_mark(img, synthetic_entry(reason)))


def sequentialize(program: Program, schedule: Schedule,
                  deadlock: bool) -> SequentialProgram:
    """Full transformation: unwinding, rewrite rules, hoisting, framework
    skeleton, and order control. Thread n dispatches as case n + 1, so
    no segment tag may equal such a label."""
    clash = set(schedule.order_tags) & set(range(1, len(program.threads) + 2))
    if clash:
        raise UnsupportedScheduleError(
            f"segment tag {min(clash)} is also a thread's case label; at "
            "most 9 created threads are supported")
    unwound = _unwind_annotated(program)
    builder = _Builder(program, schedule, deadlock)
    builder.transform_globals(unwound.globals)

    case_bodies: dict[int, list[Stmt]] = {}
    case_bodies[0] = builder.transform_body(unwound.main, "main")
    fn_by_name = {fn.name: fn for fn in unwound.functions}
    for td in unwound.threads:
        case_bodies[td.ordinal] = builder.transform_body(
            fn_by_name[td.function], td.function)

    # a scheduled thread's first segment enters at the top of its body
    first_tags = {seg.thread: seg.tag for seg in reversed(schedule.segments)}
    switch_body: list[Stmt] = []
    for ordinal in range(len(unwound.threads) + 1):
        switch_body.append(_mark(CaseLabel(ordinal + 1),
                                 synthetic_entry("framework")))
        if ordinal in first_tags:
            switch_body.append(_mark(CaseLabel(first_tags[ordinal]),
                                     synthetic_entry("framework")))
        # the body stays in its own block so guard insertion can keep
        # addressing the same statement list
        switch_body.append(_mark(Block(case_bodies[ordinal]),
                                 synthetic_entry("framework")))
        switch_body.append(_mark(Break(), synthetic_entry("framework")))
    switch_body.append(_mark(DefaultLabel(), synthetic_entry("framework")))
    switch_body.append(_mark(Break(), synthetic_entry("framework")))

    tags = schedule.order_tags
    order, index = builder.dispatch
    main_body: list[Stmt] = [
        _mark(Decl(index), synthetic_entry("framework")),
        _mark(For(index, IntLit(0),
                  Binary("<", Var(index), IntLit(len(tags))),
                  Binary("+", Var(index), IntLit(1)),
                  Block([_mark(Switch(Index(order, Var(index)),
                                      Block(switch_body)),
                               synthetic_entry("framework"))])),
              synthetic_entry("framework")),
        _mark(Return(IntLit(1)), synthetic_entry("framework")),
    ]

    order_decl = _mark(ArrayDecl(order, tags), synthetic_entry("framework"))
    globals_out = [order_decl] + builder.model_globals + builder.hoisted \
        + builder.loop_decls

    seq_program = Program(
        globals=globals_out,
        functions=[],
        main=FunctionDef("main", "int", [], Block(main_body)),
        threads=[],
    )
    _place_order_control(builder, schedule, enclosing_loops(program))
    renumber(seq_program)
    line_map = {stmt.line: stmt._prov for stmt in program_stmts(seq_program)}
    return SequentialProgram(seq_program, line_map)


def _unwind_annotated(program: Program) -> Program:
    """unwind_calls without the renumbering, so that image keys stay in
    the original numbering; every statement carries its provenance mark."""
    fns = {fn.name: fn for fn in program.functions}
    pool = NamePool(_taken_names(program, include_callable_locals=False))
    new_fns = []
    for fn in program.functions:
        if fn.return_type == "int":
            continue
        new_fns.append(FunctionDef(
            fn.name, fn.return_type, list(fn.params),
            Block(_unwind_stmts(fn.body.stmts, fns, pool))))
    new_main = FunctionDef(
        "main", "int", [],
        Block(_unwind_stmts(program.main.body.stmts, fns, pool)))
    out = Program(
        globals=[_mark(clone(g), original_entry(g.line))
                 for g in program.globals],
        functions=new_fns,
        main=new_main,
        threads=clone(program.threads),
    )
    return out


# ---------------------------------------------------------------------------
# Order control
# ---------------------------------------------------------------------------


def _guard(tag: int, counters: list[tuple[str, int]],
           dispatch: tuple[str, str]) -> If:
    order, index = dispatch
    cond: Expr = Binary("==", Index(order, Var(index)), IntLit(tag))
    for name, value in counters:
        cond = Binary("&&", cond, Binary("==", Var(name), IntLit(value)))
    guard = If(cond, Block([_mark(Break(),
                                  synthetic_entry("order-control"))]))
    return _mark(guard, synthetic_entry("order-control"))


def _place_order_control(builder: _Builder, schedule: Schedule,
                         enclosing: dict[int, list[int]]) -> None:
    """Inserts segment-exit guards and segment-entry case labels into the
    statement lists the builder made, so that the sequential program
    performs the schedule's segments in order. A guard's loop counters are
    those of the loops enclosing it in the original program (enclosing,
    from enclosing_loops, which also keys the recorded iteration counts)."""

    def image(line: int, after: bool) -> tuple[list[Stmt], int, list[int]]:
        """The spot before or after line's images, and the loops around
        it; the spot after also passes the increment ending a loop body."""
        if line not in builder.images:
            raise GuardPlacementError(f"line {line} has no image")
        body, index, length = builder.images[line]
        if after:
            index += length
            while index < len(body) and body[index]._prov == _LOOP_STEP:
                index += 1
        return body, index, enclosing[line]

    def guard(seg: Segment, loops: list[int]) -> Stmt:
        counters = []
        for loop in loops:
            if loop not in seg.loop_counters:
                raise GuardPlacementError(
                    f"no recorded iteration count for the loop at line {loop}")
            counters.append((builder.loop_names[loop],
                             seg.loop_counters[loop]))
        return _guard(seg.tag, counters, builder.dispatch)

    jobs: list[tuple[list[Stmt], int, list[Stmt]]] = []
    segments = schedule.segments
    # the final segment runs to the violation, no exit guard
    for i, seg in enumerate(segments[:-1]):
        line = seg.to_line
        nxt = next((s for s in segments[i + 1:] if s.thread == seg.thread),
                   None)
        # the loops around the top of each of line's branch bodies
        inner = enclosing.get(line, []) + (
            [line] if line in builder.loop_names else [])
        if nxt is None:
            # the thread's last segment: stop the overshoot wherever
            # execution may sit after the final recorded step
            spots = [(body, 0, inner) for body in builder.bodies.get(line, [])]
            spots.append(image(line, True))
        elif line not in builder.bodies:
            # the thread stopped right after this statement finished
            spots = [image(line, True)]
        elif nxt.from_line == line and line in builder.loop_names:
            spots = [(builder.bodies[line][0], 0, inner)]
        else:
            # the thread stopped after evaluating a condition; resume
            # right before the first statement it executed afterwards
            spots = [image(nxt.from_line, False)]
        for body, index, loops in spots:
            stmts = [guard(seg, loops)]
            if nxt is not None:
                stmts.append(_mark(CaseLabel(nxt.tag),
                                   synthetic_entry("order-control")))
            jobs.append((body, index, stmts))

    # from the back, so no insertion moves a spot still to come; at one
    # spot the later job goes in first, so the earlier one's come first
    for body, index, stmts in sorted(reversed(jobs), key=lambda job: -job[1]):
        body[index:index] = stmts
