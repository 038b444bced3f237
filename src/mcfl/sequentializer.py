"""Turns a concurrent program plus one failing schedule into a sequential
program that replays exactly that schedule.

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
    iter_stmts,
    program_stmts,
    renumber,
)


class RuleGapError(Exception):
    """A statement kind has no transformation rule."""


class GuardPlacementError(Exception):
    """A schedule position has no image in the sequential program."""


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
    order_tags: list[int]
    per_thread_counts: dict[int, int]
    # recorded nondet choices, used to pin input values during replay
    nondet_pins: list[tuple[int, int]] = field(default_factory=list)


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

    # transformation bookkeeping, populated by the builder and consumed by
    # inject_order_control; None once injection has run
    anchors: dict | None = field(default=None, repr=False)

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


def _mark(stmt: Stmt, prov: MapEntry, orig: int | None = None) -> Stmt:
    stmt._prov = prov
    stmt._orig = orig
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
        if copy_of is not None:
            prov, orig = synthetic_entry("unwind-copy", s.line), None
        else:
            prov, orig = original_entry(s.line), s.line
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
        out.append(_mark(node, prov, orig))
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
# Skeleton construction
# ---------------------------------------------------------------------------


class _Anchor:
    """Image slot of one original statement inside the sequential program."""

    def __init__(self, container: list[Stmt], index: int, length: int,
                 loops: list[int], stmt: Stmt | None):
        self.container = container
        self.index = index
        self.length = length
        self.loops = loops  # original lines of enclosing loops
        self.stmt = stmt  # the image node for structured statements


class _Builder:
    def __init__(self, program: Program, schedule: Schedule, deadlock: bool):
        self.deadlock = deadlock
        self.pool = NamePool(_taken_names(program))
        # the dispatch array and its loop index, usually `order` and
        # `order_index`; named first, so no other fresh name shifts them
        self.dispatch = (self.pool.fresh("order"),
                         self.pool.fresh("order_index"))
        self.anchors: dict[int, _Anchor] = {}
        self.loop_bodies: dict[int, tuple[list[Stmt], list[int]]] = {}
        self.if_bodies: dict[int, tuple] = {}
        self.loop_names: dict[int, str] = {}
        self.loop_decls: list[Stmt] = []
        self.hoisted: list[Stmt] = []
        self.model_globals: list[Stmt] = []
        self.pins: dict[int, list[int]] = {}
        for line, value in schedule.nondet_pins:
            self.pins.setdefault(line, []).append(value)
        self.loop_count = 0

    def loopcounter(self, node: While) -> str:
        self.loop_count += 1
        name = self.pool.fresh(f"loopcounter_{self.loop_count}")
        decl = _mark(Decl(name, IntLit(0)), synthetic_entry("loopcounter"))
        self.loop_decls.append(decl)
        return name

    def transform_globals(self, stmts: list[Stmt]) -> None:
        for g in stmts:
            if isinstance(g, Decl):
                self.model_globals.append(_mark(
                    Decl(g.name, g.init), original_entry(g._orig), g._orig))
            elif isinstance(g, PTHREAD_KINDS):
                self._pthread(g, [])
            else:
                raise RuleGapError(
                    f"line {g.line}: {type(g).__name__} has no "
                    "transformation rule; global arrays are supported by "
                    "verify only")

    def transform_body(self, fn: FunctionDef, rename: dict[str, str],
                       prefix: str) -> list[Stmt]:
        # hoist every local to a renamed global so segments resumed in a
        # later dispatch still see their values
        for s in iter_stmts(fn.body.stmts):
            if isinstance(s, Decl):
                rename[s.name] = self.pool.fresh(f"{prefix}_{s.name}")
        return self._stmts(fn.body.stmts, rename, [])

    def _stmts(self, stmts: list[Stmt], rename: dict[str, str],
               loops: list[int]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            orig = getattr(s, "_orig", None)
            prov = getattr(s, "_prov", None) or (
                original_entry(s.line) if s.line else
                synthetic_entry("framework"))
            start = len(out)
            self._one(s, rename, loops, out, prov)
            if orig is not None:
                self.anchors[orig] = _Anchor(
                    out, start, len(out) - start, list(loops),
                    out[start] if len(out) > start else None)
        return out

    def _one(self, s: Stmt, rename: dict[str, str], loops: list[int],
             out: list[Stmt], prov: MapEntry) -> None:
        orig = getattr(s, "_orig", None)
        if isinstance(s, Decl):
            # declaration was hoisted; keep the initializer in place
            self.hoisted.append(_mark(Decl(rename[s.name]), prov, None))
            if s.init is not None:
                out.append(_mark(
                    Assign(rename[s.name], clone(s.init, rename)),
                    prov, orig))
            return
        if isinstance(s, (Assign, Assert, Assume)):
            img = _mark(clone(s, rename), prov, orig)
            out.append(img)
            if isinstance(s, Assign) and isinstance(s.expr, Nondet) \
                    and orig is not None:
                values = self.pins.get(orig, [])
                if len(values) == 1:
                    out.append(_mark(
                        Assume(Binary("==", Var(img.name),
                                      IntLit(values[0]))),
                        synthetic_entry("nondet-pin"), None))
            return
        if isinstance(s, Return):
            out.append(_mark(Break(), prov, orig))
            return
        if isinstance(s, Block):
            node = Block(self._stmts(s.stmts, rename, loops))
            out.append(_mark(node, prov, orig))
            return
        if isinstance(s, If):
            then_list = self._stmts(s.then.stmts, rename, loops)
            els_list = self._stmts(s.els.stmts, rename, loops) \
                if s.els is not None else None
            node = If(clone(s.cond, rename), Block(then_list),
                      Block(els_list) if els_list is not None else None)
            out.append(_mark(node, prov, orig))
            if orig is not None:
                self.if_bodies[orig] = (then_list, els_list, list(loops))
            return
        if isinstance(s, While):
            inner_loops = loops + [orig] if orig is not None else loops
            body_list = self._stmts(s.body.stmts, rename, inner_loops)
            lc = self.loopcounter(s)
            inc = _mark(Assign(lc, Binary("+", Var(lc), IntLit(1))),
                        synthetic_entry("loopcounter"), None)
            inc._lc_inc = True
            body_list.append(inc)
            node = While(clone(s.cond, rename), Block(body_list))
            out.append(_mark(node, prov, orig))
            if orig is not None:
                self.loop_names[orig] = lc
                self.loop_bodies[orig] = (body_list, inner_loops)
            return
        if isinstance(s, PTHREAD_KINDS):
            self._pthread(s, out)
            return
        raise RuleGapError(
            f"statement kind {type(s).__name__} has no transformation rule")

    def _pthread(self, s: Stmt, out: list[Stmt]) -> None:
        """The images of a threading statement (apply_pthread_rules): a
        modelled lock or condition variable declaration becomes a global,
        every other image goes to out."""
        orig = getattr(s, "_orig", None)
        reason = "mutex-model" if isinstance(
            s, (MutexDecl, MutexLock, MutexUnlock)) else "cond-model"
        for img in apply_pthread_rules(s, self.deadlock):
            if isinstance(img, Decl):
                self.model_globals.append(_mark(
                    img, synthetic_entry(reason), orig))
            else:
                out.append(_mark(img, synthetic_entry(reason), orig))


def build_skeleton(program: Program, schedule: Schedule,
                   deadlock: bool) -> SequentialProgram:
    """The sequential program before guard injection; exposed so the
    injection step can be exercised on its own."""
    unwound = _unwind_annotated(program)
    builder = _Builder(program, schedule, deadlock)
    builder.transform_globals(unwound.globals)

    case_bodies: dict[int, list[Stmt]] = {}
    case_bodies[0] = builder.transform_body(unwound.main, {}, "main")
    fn_by_name = {fn.name: fn for fn in unwound.functions}
    for td in unwound.threads:
        fn = fn_by_name[td.function]
        case_bodies[td.ordinal] = builder.transform_body(
            fn, {}, td.function)

    scheduled = {seg.thread for seg in schedule.segments}
    switch_body: list[Stmt] = []
    for ordinal in range(len(unwound.threads) + 1):
        switch_body.append(_mark(CaseLabel(ordinal + 1),
                                 synthetic_entry("framework")))
        if ordinal in scheduled:
            switch_body.append(_mark(CaseLabel((ordinal + 1) * 10 + 1),
                                     synthetic_entry("framework")))
        # the body stays in its own block so guard insertion can keep
        # addressing the same statement list
        switch_body.append(_mark(Block(case_bodies[ordinal]),
                                 synthetic_entry("framework")))
        switch_body.append(_mark(Break(), synthetic_entry("framework")))
    switch_body.append(_mark(DefaultLabel(), synthetic_entry("framework")))
    switch_body.append(_mark(Break(), synthetic_entry("framework")))

    n = len(schedule.order_tags)
    order, index = builder.dispatch
    main_body: list[Stmt] = [
        _mark(Decl(index), synthetic_entry("framework")),
        _mark(For(index, IntLit(0),
                  Binary("<", Var(index), IntLit(n)),
                  Binary("+", Var(index), IntLit(1)),
                  Block([_mark(Switch(Index(order, Var(index)),
                                      Block(switch_body)),
                               synthetic_entry("framework"))])),
              synthetic_entry("framework")),
        _mark(Return(IntLit(1)), synthetic_entry("framework")),
    ]

    order_decl = _mark(ArrayDecl(order, list(schedule.order_tags)),
                       synthetic_entry("framework"))
    globals_out = [order_decl] + builder.model_globals + builder.hoisted \
        + builder.loop_decls

    seq_program = Program(
        globals=globals_out,
        functions=[],
        main=FunctionDef("main", "int", [], Block(main_body)),
        threads=[],
    )
    seq = SequentialProgram(seq_program, {}, anchors={
        "stmt_anchors": builder.anchors,
        "loop_bodies": builder.loop_bodies,
        "if_bodies": builder.if_bodies,
        "loop_names": builder.loop_names,
        "dispatch": builder.dispatch,
    })
    _finalize(seq)
    return seq


def _unwind_annotated(program: Program) -> Program:
    """unwind_calls without the renumbering, so that anchor keys stay in
    the original numbering; statements carry provenance annotations."""
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
        globals=[_mark(clone(g), original_entry(g.line), g.line)
                 for g in program.globals],
        functions=new_fns,
        main=new_main,
        threads=clone(program.threads),
    )
    return out


def _finalize(seq: SequentialProgram) -> None:
    renumber(seq.program)
    line_map: dict[int, MapEntry] = {}
    for stmt in program_stmts(seq.program):
        prov = getattr(stmt, "_prov", None)
        if prov is None:
            prov = synthetic_entry("framework")
        line_map[stmt.line] = prov
    seq.line_map = line_map


# ---------------------------------------------------------------------------
# Order-control injection
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


def inject_order_control(seq: SequentialProgram,
                         schedule: Schedule) -> SequentialProgram:
    """Inserts segment-exit guards and segment-entry case labels so that the
    sequential program performs the schedule's segments in order."""
    if seq.anchors is None:
        raise GuardPlacementError(
            "order control can only be injected once, on a freshly built "
            "sequential program")
    anchors: dict[int, _Anchor] = seq.anchors["stmt_anchors"]
    loop_bodies = seq.anchors["loop_bodies"]
    if_bodies = seq.anchors["if_bodies"]
    loop_names: dict[int, str] = seq.anchors["loop_names"]
    dispatch: tuple[str, str] = seq.anchors["dispatch"]

    jobs: list[tuple[list[Stmt], int, list[Stmt]]] = []

    def conjuncts(loops: list[int], seg: Segment) -> list[tuple[str, int]]:
        pairs = []
        for loop_line in loops:
            if loop_line in seg.loop_counters:
                pairs.append((loop_names[loop_line],
                              seg.loop_counters[loop_line]))
            else:
                raise GuardPlacementError(
                    f"no recorded iteration count for the loop at line "
                    f"{loop_line}")
        return pairs

    def after_image(line: int) -> tuple[list[Stmt], int, list[int]]:
        anchor = anchors.get(line)
        if anchor is None:
            raise GuardPlacementError(f"line {line} has no image")
        idx = anchor.index + anchor.length
        while idx < len(anchor.container) and \
                getattr(anchor.container[idx], "_lc_inc", False):
            idx += 1
        return anchor.container, idx, anchor.loops

    def before_image(line: int) -> tuple[list[Stmt], int, list[int]]:
        anchor = anchors.get(line)
        if anchor is None:
            raise GuardPlacementError(f"line {line} has no image")
        return anchor.container, anchor.index, anchor.loops

    segments = schedule.segments
    for i, seg in enumerate(segments):
        if i == len(segments) - 1:
            break  # the final segment runs to the violation, no exit guard
        nxt = next((s for s in segments[i + 1:] if s.thread == seg.thread),
                   None)
        is_branch = seg.to_line in loop_bodies or seg.to_line in if_bodies
        if nxt is not None:
            if not is_branch:
                # the thread stopped right after this statement finished
                container, idx, loops = after_image(seg.to_line)
            elif nxt.from_line == seg.to_line and seg.to_line in loop_bodies:
                body_list, body_loops = loop_bodies[seg.to_line]
                container, idx, loops = body_list, 0, body_loops
            else:
                # the thread stopped after evaluating a condition; resume
                # right before the first statement it executed afterwards
                container, idx, loops = before_image(nxt.from_line)
            stmts: list[Stmt] = [_guard(seg.tag, conjuncts(loops, seg),
                                        dispatch),
                                 _mark(CaseLabel(nxt.tag),
                                       synthetic_entry("order-control"))]
            jobs.append((container, idx, stmts))
            continue
        # last segment of this thread: stop the overshoot wherever execution
        # may sit after the final recorded step
        positions: list[tuple[list[Stmt], int, list[int]]] = []
        if seg.to_line in loop_bodies:
            body_list, body_loops = loop_bodies[seg.to_line]
            positions.append((body_list, 0, body_loops))
            positions.append(after_image(seg.to_line))
        elif seg.to_line in if_bodies:
            then_list, els_list, if_loops = if_bodies[seg.to_line]
            positions.append((then_list, 0, if_loops))
            if els_list is not None:
                positions.append((els_list, 0, if_loops))
            positions.append(after_image(seg.to_line))
        else:
            positions.append(after_image(seg.to_line))
        for container, idx, loops in positions:
            jobs.append((container, idx,
                         [_guard(seg.tag, conjuncts(loops, seg), dispatch)]))

    by_container: dict[int, list[tuple[int, int, list[Stmt]]]] = {}
    containers: dict[int, list[Stmt]] = {}
    for order, (container, idx, stmts) in enumerate(jobs):
        containers[id(container)] = container
        by_container.setdefault(id(container), []).append(
            (idx, order, stmts))
    for key, entries in by_container.items():
        container = containers[key]
        for idx, _, stmts in sorted(entries, key=lambda e: (-e[0], -e[1])):
            container[idx:idx] = stmts

    seq.anchors = None
    _finalize(seq)
    return seq


def sequentialize(program: Program, schedule: Schedule,
                  deadlock: bool) -> SequentialProgram:
    """Full transformation: unwinding, rewrite rules, hoisting, framework
    skeleton, and order control."""
    seq = build_skeleton(program, schedule, deadlock)
    return inject_order_control(seq, schedule)


def pthread_free(program: Program) -> bool:
    """True when no threading-category statement remains."""
    return not any(isinstance(s, PTHREAD_KINDS)
                   for s in program_stmts(program))
