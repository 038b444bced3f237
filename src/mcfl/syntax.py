"""AST for the mini concurrent C-like language (.mc files).

Every statement carries a dense, positive line id assigned in source order.
Line ids are the currency of the whole toolkit: traces, schedules, line maps
and diagnoses all refer to statements by id, never by textual position.

The surface syntax of the threading statements (keyword, argument kinds)
lives in two tables, HANDLE_DECLS and PTHREAD_CALLS, and that of the
binary operators in PRECEDENCE; the parser, its lexer and the printer read
them from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache


LineId = int


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class Var(Expr):
    name: str


@dataclass
class Index(Expr):
    """Read of a global integer array cell, e.g. order[order_index]."""

    name: str
    index: Expr


@dataclass
class Unary(Expr):
    op: str  # '-' or '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    """(cond ? then_expr : else_expr); branches evaluate lazily."""

    cond: Expr
    then_expr: Expr
    else_expr: Expr


@dataclass
class Nondet(Expr):
    """nondet() or nondet(lo, hi).

    Without explicit bounds the verifier's configured domain applies.
    """

    lo: int | None = None
    hi: int | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: LineId = field(default=0, init=False, compare=True)


@dataclass
class Decl(Stmt):
    name: str
    init: Expr | None = None


@dataclass
class ArrayDecl(Stmt):
    """Global read-only integer array with literal initializer."""

    name: str
    values: list[int] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    name: str
    expr: Expr


@dataclass
class CallAssign(Stmt):
    name: str
    func: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class Block(Stmt):
    """Brace-enclosed statement list.

    Used both as a free-standing statement (then it has a line id) and as the
    body container of if/while/for/switch (then line stays 0).
    """

    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Block
    els: Block | None = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class For(Stmt):
    """for (var = init; cond; var = update) { ... }

    Not subject to the loop bound, user-written loops included, because the
    sequential program's dispatcher is one; it terminates via its condition
    or the global state cap.
    """

    var: str
    init: Expr
    cond: Expr
    update: Expr
    body: Block


@dataclass
class Switch(Stmt):
    """C-style switch: case labels may sit anywhere in the body (nested
    included), execution falls through labels and `break` exits the switch."""

    scrutinee: Expr
    body: Block


@dataclass
class CaseLabel(Stmt):
    value: int


@dataclass
class DefaultLabel(Stmt):
    pass


@dataclass
class Break(Stmt):
    """Exits the innermost enclosing switch."""


@dataclass
class Assert(Stmt):
    expr: Expr


@dataclass
class Assume(Stmt):
    expr: Expr


@dataclass
class Return(Stmt):
    expr: Expr


# pthread-category statements ------------------------------------------------


@dataclass
class ThreadDecl(Stmt):
    name: str


@dataclass
class ThreadAttrDecl(Stmt):
    name: str


@dataclass
class CondAttrDecl(Stmt):
    name: str


@dataclass
class ThreadCreate(Stmt):
    handle: str
    func: str


@dataclass
class ThreadJoin(Stmt):
    handle: str


@dataclass
class ThreadExit(Stmt):
    pass


@dataclass
class MutexDecl(Stmt):
    name: str


@dataclass
class MutexLock(Stmt):
    name: str


@dataclass
class MutexUnlock(Stmt):
    name: str


@dataclass
class CondDecl(Stmt):
    name: str


@dataclass
class CondInit(Stmt):
    name: str


@dataclass
class CondWait(Stmt):
    cond: str
    mutex: str


@dataclass
class CondSignal(Stmt):
    name: str


# handle declaration class -> (type keyword, handle kind)
HANDLE_DECLS: dict[type, tuple[str, str]] = {
    ThreadDecl: ("pthread_t", "thread"),
    ThreadAttrDecl: ("pthread_attr_t", "attr"),
    CondAttrDecl: ("pthread_cond_attr_t", "condattr"),
    MutexDecl: ("pthread_mutex_t", "mutex"),
    CondDecl: ("pthread_cond_t", "cond"),
}

# call class -> (function keyword, the kind of each argument in field
# order; "function" names the created thread's function)
PTHREAD_CALLS: dict[type, tuple[str, tuple[str, ...]]] = {
    ThreadCreate: ("pthread_create", ("thread", "function")),
    ThreadJoin: ("pthread_join", ("thread",)),
    ThreadExit: ("pthread_exit", ()),
    MutexLock: ("pthread_mutex_lock", ("mutex",)),
    MutexUnlock: ("pthread_mutex_unlock", ("mutex",)),
    CondInit: ("pthread_cond_init", ("cond",)),
    CondWait: ("pthread_cond_wait", ("cond", "mutex")),
    CondSignal: ("pthread_cond_signal", ("cond",)),
}

PTHREAD_KINDS = tuple(HANDLE_DECLS) + tuple(PTHREAD_CALLS)


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------


@dataclass
class FunctionDef:
    name: str
    return_type: str  # 'int' or 'void'
    params: list[str]
    body: Block


@dataclass
class ThreadDef:
    """Thread slot derived from a thread-create statement; ordinal 1-based
    (0 is the main thread)."""

    ordinal: int
    function: str


@dataclass
class Program:
    globals: list[Stmt] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    main: FunctionDef | None = None
    threads: list[ThreadDef] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statement walking and line numbering
# ---------------------------------------------------------------------------


def child_blocks(stmt: Stmt) -> list[Block]:
    """The blocks directly under stmt, in source order; a Block used as a
    statement is its own."""
    if isinstance(stmt, If):
        return [stmt.then] + ([stmt.els] if stmt.els is not None else [])
    if isinstance(stmt, (While, For, Switch)):
        return [stmt.body]
    if isinstance(stmt, Block):
        return [stmt]
    return []


def iter_stmts(stmts: list[Stmt]):
    """Yields every statement in source order, descending into bodies.

    A Block used as a statement yields itself before its contents; body
    containers of structured statements are not themselves yielded.
    """
    for stmt in stmts:
        yield stmt
        for block in child_blocks(stmt):
            yield from iter_stmts(block.stmts)


def program_stmts(program: Program):
    yield from iter_stmts(program.globals)
    for fn in program.functions:
        yield from iter_stmts(fn.body.stmts)
    if program.main is not None:
        yield from iter_stmts(program.main.body.stmts)


def renumber(program: Program) -> Program:
    """Assigns dense 1..N line ids in source order. Mutates in place."""
    n = 0
    for stmt in program_stmts(program):
        n += 1
        stmt.line = n
    return program


def line_table(program: Program) -> dict[LineId, Stmt]:
    """Total map from line id to statement."""
    table: dict[LineId, Stmt] = {}
    for stmt in program_stmts(program):
        table[stmt.line] = stmt
    return table


def enclosing_loops(program: Program) -> dict[LineId, list[LineId]]:
    """For each statement line, the lines of the while loops enclosing it,
    outermost first. For/switch bodies do not count as loops."""
    result: dict[LineId, list[LineId]] = {}

    def walk(stmts: list[Stmt], stack: list[LineId]) -> None:
        for stmt in stmts:
            result[stmt.line] = list(stack)
            inner = stack + [stmt.line] if isinstance(stmt, While) else stack
            for block in child_blocks(stmt):
                walk(block.stmts, inner)

    walk(program.globals, [])
    for fn in program.functions:
        walk(fn.body.stmts, [])
    if program.main is not None:
        walk(program.main.body.stmts, [])
    return result


# field values that are shared, not copied: names, numbers, absent parts
_PLAIN = (str, int, type(None))


@cache
def _init_fields(cls: type) -> tuple[str, ...] | None:
    """The constructor fields of a node class, in order; None for values
    that are not nodes."""
    if not is_dataclass(cls):
        return None
    return tuple(f.name for f in fields(cls) if f.init)


def clone(node, rename: dict[str, str] | None = None):
    """A deep copy of a node, or of a list of nodes, built from its
    dataclass fields only. Line ids are kept; attributes set outside the
    fields, such as the sequentializer's provenance marks, are left out.

    With rename, Var reads and the names that Decl, Assign and CallAssign
    write are renamed; array names, call targets and handles are not."""
    if isinstance(node, list):
        return [clone(item, rename) for item in node]
    names = _init_fields(type(node))
    if names is None:
        return node
    args = []
    for name in names:
        value = getattr(node, name)
        if isinstance(value, list):
            # copied in this frame, so that a statement nesting level costs
            # two frames (the statement and its body), as printing does
            items = []
            for item in value:
                items.append(clone(item, rename))
            value = items
        elif not isinstance(value, _PLAIN):
            value = clone(value, rename)
        args.append(value)
    new = type(node)(*args)
    if isinstance(node, Stmt):
        new.line = node.line  # an init=False field
    if rename and isinstance(new, (Var, Decl, Assign, CallAssign)):
        new.name = rename.get(new.name, new.name)
    return new


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

# binary operator -> precedence level, loosest first; the parser's levels
# and symbol tokens and the printer's parentheses all read it
PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4,
              ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}

_UNARY_PREC = 7


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, IntLit):
        s = str(expr.value)
        return f"({s})" if expr.value < 0 and parent_prec >= _UNARY_PREC else s
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Index):
        return f"{expr.name}[{format_expr(expr.index)}]"
    if isinstance(expr, Nondet):
        if expr.lo is None:
            return "nondet()"
        return f"nondet({expr.lo}, {expr.hi})"
    if isinstance(expr, Unary):
        inner = format_expr(expr.operand, _UNARY_PREC)
        s = f"{expr.op}{inner}"
        return f"({s})" if parent_prec > _UNARY_PREC else s
    if isinstance(expr, Binary):
        prec = PRECEDENCE[expr.op]
        left = format_expr(expr.left, prec)
        right = format_expr(expr.right, prec + 1)
        s = f"{left} {expr.op} {right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(expr, Ternary):
        return (
            f"({format_expr(expr.cond)} ? {format_expr(expr.then_expr)}"
            f" : {format_expr(expr.else_expr)})"
        )
    raise TypeError(f"unknown expression node: {expr!r}")


def _format_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent

    def block(b: Block, head: str, tail: str = "}") -> None:
        out.append(pad + head)
        for s in b.stmts:
            _format_stmt(s, indent + 1, out)
        out.append(pad + tail)

    if isinstance(stmt, Decl):
        if stmt.init is None:
            out.append(f"{pad}int {stmt.name};")
        else:
            out.append(f"{pad}int {stmt.name} = {format_expr(stmt.init)};")
    elif isinstance(stmt, ArrayDecl):
        vals = ", ".join(str(v) for v in stmt.values)
        out.append(f"{pad}int {stmt.name}[{len(stmt.values)}] = {{{vals}}};")
    elif isinstance(stmt, Assign):
        out.append(f"{pad}{stmt.name} = {format_expr(stmt.expr)};")
    elif isinstance(stmt, CallAssign):
        args = ", ".join(format_expr(a) for a in stmt.args)
        out.append(f"{pad}{stmt.name} = {stmt.func}({args});")
    elif isinstance(stmt, If):
        block(stmt.then, f"if ({format_expr(stmt.cond)}) {{", "}")
        if stmt.els is not None:
            out[-1] = out[-1] + " else {"
            for s in stmt.els.stmts:
                _format_stmt(s, indent + 1, out)
            out.append(pad + "}")
    elif isinstance(stmt, While):
        block(stmt.body, f"while ({format_expr(stmt.cond)}) {{")
    elif isinstance(stmt, For):
        head = (
            f"for ({stmt.var} = {format_expr(stmt.init)}; "
            f"{format_expr(stmt.cond)}; "
            f"{stmt.var} = {format_expr(stmt.update)}) {{"
        )
        block(stmt.body, head)
    elif isinstance(stmt, Switch):
        block(stmt.body, f"switch ({format_expr(stmt.scrutinee)}) {{")
    elif isinstance(stmt, CaseLabel):
        out.append(f"{pad}case {stmt.value}:")
    elif isinstance(stmt, DefaultLabel):
        out.append(f"{pad}default:")
    elif isinstance(stmt, Break):
        out.append(f"{pad}break;")
    elif isinstance(stmt, Assert):
        out.append(f"{pad}assert({format_expr(stmt.expr)});")
    elif isinstance(stmt, Assume):
        out.append(f"{pad}assume({format_expr(stmt.expr)});")
    elif isinstance(stmt, Return):
        out.append(f"{pad}return {format_expr(stmt.expr)};")
    elif isinstance(stmt, Block):
        block(stmt, "{")
    elif type(stmt) in HANDLE_DECLS:
        out.append(f"{pad}{HANDLE_DECLS[type(stmt)][0]} {stmt.name};")
    elif type(stmt) in PTHREAD_CALLS:
        args = ", ".join(getattr(stmt, name)
                         for name in _init_fields(type(stmt)))
        out.append(f"{pad}{PTHREAD_CALLS[type(stmt)][0]}({args});")
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Canonical text form; parsing it back reproduces the tree, line ids
    included."""
    out: list[str] = []
    for g in program.globals:
        _format_stmt(g, 0, out)
    if program.globals:
        out.append("")
    for fn in program.functions:
        params = ", ".join(f"int {p}" for p in fn.params)
        out.append(f"{fn.return_type} {fn.name}({params}) {{")
        for s in fn.body.stmts:
            _format_stmt(s, 1, out)
        out.append("}")
        out.append("")
    if program.main is not None:
        out.append("int main() {")
        for s in program.main.body.stmts:
            _format_stmt(s, 1, out)
        out.append("}")
    return "\n".join(out).rstrip() + "\n"
