"""Recursive-descent parser for .mc source text.

Rejects, with a position, everything the rest of the pipeline is allowed to
assume away: undeclared or shadowing identifiers, recursion, unknown thread
targets, misplaced case/break, and arity errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    DefaultLabel,
    Decl,
    Expr,
    For,
    FunctionDef,
    HANDLE_DECLS,
    If,
    Index,
    IntLit,
    Nondet,
    PRECEDENCE,
    Program,
    PTHREAD_CALLS,
    Return,
    Stmt,
    Switch,
    Ternary,
    ThreadDef,
    Unary,
    Var,
    While,
    iter_stmts,
    renumber,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# handle declaration keyword -> (global identifier kind, statement class)
_HANDLE_DECLS = {kw: (kind, cls) for cls, (kw, kind) in HANDLE_DECLS.items()}

# threading call keyword -> (statement class, argument kinds)
_PTHREAD_CALLS = {kw: (cls, kinds)
                  for cls, (kw, kinds) in PTHREAD_CALLS.items()}

_KEYWORDS = {
    "int",
    "void",
    "if",
    "else",
    "while",
    "for",
    "switch",
    "case",
    "default",
    "break",
    "return",
    "assert",
    "assume",
    "nondet",
} | set(_HANDLE_DECLS) | set(_PTHREAD_CALLS)

# every symbol token: the binary operators and the other punctuation,
# longest first, so that "<=" is one token and not "<" and "="
_SYMBOLS = sorted({*PRECEDENCE, "!", "=", "(", ")", "{", "}", "[", "]", ";",
                   ",", "?", ":"}, key=lambda sym: (-len(sym), sym))

# one token per match; whitespace and comments match no group
_TOKEN = re.compile(
    r"[ \t\r]+|//[^\n]*|(?P<newline>\n)|(?P<int>\d+)|(?P<word>[^\W\d]\w*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")|(?P<bad>.)")


@dataclass
class Token:
    kind: str  # 'int', 'ident', 'kw', 'sym', 'eof'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the current line and the index it starts at
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, start = line + 1, m.end()
            continue
        text = m.group()
        col = m.start() - start + 1
        if kind == "word":
            # \w also admits numerals that are no decimal digit, like '²'
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line,
                                 col)
            kind = "kw" if text in _KEYWORDS else "ident"
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    # a comment does not advance the column: after a trailing one, the end
    # of input sits where it starts
    end = len(source[start:].partition("//")[0])
    tokens.append(Token("eof", "", line, end + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.globals: list[Stmt] = []
        self.global_names: dict[str, str] = {}  # name -> kind
        self.functions: list[FunctionDef] = []
        self.fn_sigs: dict[str, tuple[str, int]] = {}  # name -> (ret, arity)
        self.creates: list[Token] = []  # created functions, in order
        # caller -> callee -> the name token of its first call there
        self.calls: dict[str, dict[str, Token]] = {}
        self.call_sites: list[tuple[CallAssign, Token]] = []

    # -- token plumbing ------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.advance()
            return True
        return False

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected identifier, found {tok.text!r}")
        return self.advance()

    # -- top level -----------------------------------------------------

    def parse_program(self) -> Program:
        main: FunctionDef | None = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if (tok.text in ("int", "void") and self.peek(1).kind == "ident"
                    and self.peek(2).text == "("):
                fn = self.parse_function()
                if fn.name == "main":
                    if main is not None:
                        self.error("duplicate main function", tok)
                    main = fn
                else:
                    self.functions.append(fn)
            else:
                self.parse_global()
        if main is None:
            self.error("program has no main function")
        program = Program(
            globals=self.globals, functions=self.functions, main=main
        )
        self.finish(program)
        return program

    def declare_global(self, name: str, kind: str, tok: Token) -> None:
        if name in self.global_names or name in self.fn_sigs:
            self.error(f"duplicate global identifier {name!r}", tok)
        self.global_names[name] = kind

    def parse_global(self) -> None:
        tok = self.peek()
        if tok.text == "int":
            self.advance()
            name_tok = self.expect_ident()
            if self.accept("["):
                size_tok = self.advance()
                if size_tok.kind != "int":
                    self.error("array size must be a literal", size_tok)
                self.expect("]")
                self.expect("=")
                self.expect("{")
                values = []
                while True:
                    values.append(self.parse_int_literal())
                    if not self.accept(","):
                        break
                self.expect("}")
                self.expect(";")
                if int(size_tok.text) != len(values):
                    self.error("array size does not match initializer",
                               size_tok)
                self.declare_global(name_tok.text, "array", name_tok)
                self.globals.append(ArrayDecl(name_tok.text, values))
                return
            init = None
            if self.accept("="):
                init = IntLit(self.parse_int_literal())
            self.expect(";")
            self.declare_global(name_tok.text, "var", name_tok)
            self.globals.append(Decl(name_tok.text, init))
            return
        if tok.text in _HANDLE_DECLS:
            self.globals.append(self.parse_handle_decl(None))
            return
        self.error(f"expected declaration or function, found {tok.text!r}")

    def parse_int_literal(self) -> int:
        neg = self.accept("-")
        tok = self.advance()
        if tok.kind != "int":
            self.error("expected integer literal", tok)
        value = int(tok.text)
        return -value if neg else value

    def parse_function(self) -> FunctionDef:
        ret_tok = self.advance()
        ret = ret_tok.text
        name_tok = self.expect_ident()
        name = name_tok.text
        if name in self.fn_sigs or name in self.global_names:
            self.error(f"duplicate identifier {name!r}", name_tok)
        self.expect("(")
        params: list[str] = []
        if not self.accept(")"):
            while True:
                self.expect("int")
                p = self.expect_ident()
                if p.text in params:
                    self.error(f"duplicate parameter {p.text!r}", p)
                params.append(p.text)
                if not self.accept(","):
                    break
            self.expect(")")
        if name == "main" and (ret != "int" or params):
            self.error("main must be declared as int main()", name_tok)
        if ret == "void" and params:
            self.error("thread functions take no parameters", name_tok)
        self.fn_sigs[name] = (ret, len(params))
        self.calls[name] = {}
        ctx = _FnCtx(name, set(params))
        body = self.parse_block(ctx, in_switch=0)
        fn = FunctionDef(name, ret, params, body)
        self.check_returns(fn, name_tok)
        return fn

    def check_returns(self, fn: FunctionDef, tok: Token) -> None:
        returns = [s for s in iter_stmts(fn.body.stmts)
                   if isinstance(s, Return)]
        if fn.return_type == "void":
            if returns:
                self.error(
                    f"void function {fn.name!r} cannot return a value", tok)
            return
        for r in returns:
            if fn.body.stmts and fn.body.stmts[-1] is r:
                continue
            self.error(
                f"in {fn.name!r}: return is only allowed as the final "
                "statement", tok)
        if fn.name != "main" and not returns:
            self.error(f"int function {fn.name!r} must end with return", tok)

    # -- statements ----------------------------------------------------

    def parse_block(self, ctx: "_FnCtx", in_switch: int) -> Block:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unexpected end of input, missing '}'")
            stmts.append(self.parse_stmt(ctx, in_switch))
        return Block(stmts)

    def parse_stmt(self, ctx: "_FnCtx", in_switch: int) -> Stmt:
        tok = self.peek()
        text = tok.text

        if text == "{":
            return self.parse_block(ctx, in_switch)

        if text == "int":
            self.advance()
            name_tok = self.expect_ident()
            self.declare_local(ctx, name_tok)
            init = None
            if self.accept("="):
                init = self.parse_expr(ctx)
            self.expect(";")
            return Decl(name_tok.text, init)

        if text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr(ctx)
            self.expect(")")
            then = self.parse_block(ctx, in_switch)
            els = None
            if self.accept("else"):
                els = self.parse_block(ctx, in_switch)
            return If(cond, then, els)

        if text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr(ctx)
            self.expect(")")
            return While(cond, self.parse_block(ctx, in_switch))

        if text == "for":
            self.advance()
            self.expect("(")
            var_tok = self.expect_ident()
            self.check_var(ctx, var_tok)
            self.expect("=")
            init = self.parse_expr(ctx)
            self.expect(";")
            cond = self.parse_expr(ctx)
            self.expect(";")
            upd_tok = self.expect_ident()
            if upd_tok.text != var_tok.text:
                self.error("for-loop update must assign the loop variable",
                           upd_tok)
            self.expect("=")
            update = self.parse_expr(ctx)
            self.expect(")")
            return For(var_tok.text, init, cond, update,
                       self.parse_block(ctx, in_switch))

        if text == "switch":
            self.advance()
            self.expect("(")
            scrutinee = self.parse_expr(ctx)
            self.expect(")")
            body = self.parse_block(ctx, in_switch + 1)
            values = [s.value for s in iter_stmts(body.stmts)
                      if isinstance(s, CaseLabel)]
            if len(values) != len(set(values)):
                self.error("duplicate case label in switch", tok)
            return Switch(scrutinee, body)

        if text == "case":
            if not in_switch:
                self.error("case label outside switch", tok)
            self.advance()
            value = self.parse_int_literal()
            self.expect(":")
            return CaseLabel(value)

        if text == "default":
            if not in_switch:
                self.error("default label outside switch", tok)
            self.advance()
            self.expect(":")
            return DefaultLabel()

        if text == "break":
            if not in_switch:
                self.error("break outside switch", tok)
            self.advance()
            self.expect(";")
            return Break()

        if text in ("assert", "assume"):
            self.advance()
            self.expect("(")
            expr = self.parse_expr(ctx)
            self.expect(")")
            self.expect(";")
            return Assert(expr) if text == "assert" else Assume(expr)

        if text == "return":
            self.advance()
            expr = self.parse_expr(ctx)
            self.expect(";")
            return Return(expr)

        if text in _PTHREAD_CALLS or text in _HANDLE_DECLS:
            # a call runs its callee inside one step, so a callee may not
            # synchronize
            if ctx.name != "main" and self.fn_sigs[ctx.name][0] == "int":
                self.error("threading statement inside callable function "
                           f"{ctx.name!r}", tok)
            if text in _PTHREAD_CALLS:
                return self.parse_pthread_call()
            return self.parse_handle_decl(ctx)

        if tok.kind == "ident":
            name_tok = self.advance()
            self.check_var(ctx, name_tok)
            self.expect("=")
            if self.peek().kind == "ident" and self.peek(1).text == "(":
                fn_tok = self.advance()
                self.expect("(")
                args: list[Expr] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_expr(ctx))
                        if not self.accept(","):
                            break
                    self.expect(")")
                self.expect(";")
                self.calls[ctx.name].setdefault(fn_tok.text, fn_tok)
                stmt = CallAssign(name_tok.text, fn_tok.text, args)
                self.call_sites.append((stmt, fn_tok))
                return stmt
            expr = self.parse_expr(ctx)
            self.expect(";")
            return Assign(name_tok.text, expr)

        self.error(f"expected statement, found {text!r}")

    def parse_pthread_call(self) -> Stmt:
        """A threading call; each argument names a declared handle of its
        kind, or, for a create, the thread's function."""
        cls, kinds = _PTHREAD_CALLS[self.advance().text]
        self.expect("(")
        args: list[str] = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect(",")
            tok = self.expect_ident()
            if kind == "function":
                self.creates.append(tok)
            elif self.global_names.get(tok.text) != kind:
                self.error(f"{tok.text!r} is not a declared {kind} object",
                           tok)
            args.append(tok.text)
        self.expect(")")
        self.expect(";")
        return cls(*args)

    def parse_handle_decl(self, ctx: "_FnCtx | None") -> Stmt:
        """A pthread handle declaration, at global scope (ctx None) or in a
        function body. Handle objects live in the global namespace either
        way."""
        kind, cls = _HANDLE_DECLS[self.advance().text]
        name_tok = self.expect_ident()
        self.expect(";")
        if ctx is not None and name_tok.text in ctx.locals:
            self.error(f"{name_tok.text!r} already names a local", name_tok)
        self.declare_global(name_tok.text, kind, name_tok)
        return cls(name_tok.text)

    def declare_local(self, ctx: "_FnCtx", tok: Token) -> None:
        name = tok.text
        if name in self.global_names or name in self.fn_sigs:
            self.error(f"local {name!r} shadows a global identifier", tok)
        if name in ctx.locals:
            self.error(f"duplicate local {name!r} in {ctx.name!r}", tok)
        ctx.locals.add(name)

    def check_var(self, ctx: "_FnCtx", tok: Token) -> None:
        name = tok.text
        if name in ctx.locals:
            return
        if self.global_names.get(name) == "var":
            return
        if name in self.global_names:
            self.error(f"{name!r} is not an integer variable", tok)
        self.error(f"undeclared identifier {name!r}", tok)

    # -- expressions ---------------------------------------------------

    def parse_expr(self, ctx: "_FnCtx") -> Expr:
        expr = self.parse_binary(ctx, 1)
        if self.accept("?"):
            then_expr = self.parse_expr(ctx)
            self.expect(":")
            else_expr = self.parse_expr(ctx)
            return Ternary(expr, then_expr, else_expr)
        return expr

    def parse_binary(self, ctx: "_FnCtx", lowest: int) -> Expr:
        """Precedence climbing over operators of level lowest or tighter: a
        right operand takes only tighter ones, so each level binds left."""
        expr = self.parse_unary(ctx)
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.text, 0) if tok.kind == "sym" else 0
            if prec < lowest:
                return expr
            self.advance()
            expr = Binary(tok.text, expr, self.parse_binary(ctx, prec + 1))

    def parse_unary(self, ctx: "_FnCtx") -> Expr:
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            operand = self.parse_unary(ctx)
            if isinstance(operand, IntLit):
                return IntLit(-operand.value)
            return Unary("-", operand)
        if tok.text == "!":
            self.advance()
            return Unary("!", self.parse_unary(ctx))
        return self.parse_primary(ctx)

    def parse_primary(self, ctx: "_FnCtx") -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            expr = self.parse_expr(ctx)
            self.expect(")")
            return expr
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.text == "nondet":
            self.advance()
            self.expect("(")
            if self.accept(")"):
                return Nondet()
            lo = self.parse_int_literal()
            self.expect(",")
            hi = self.parse_int_literal()
            self.expect(")")
            if lo > hi:
                self.error("nondet bounds must satisfy lo <= hi", tok)
            return Nondet(lo, hi)
        if tok.kind == "ident":
            self.advance()
            if self.accept("["):
                if self.global_names.get(tok.text) != "array":
                    self.error(f"{tok.text!r} is not an array", tok)
                index = self.parse_expr(ctx)
                self.expect("]")
                return Index(tok.text, index)
            self.check_var(ctx, tok)
            return Var(tok.text)
        self.error(f"expected expression, found {tok.text!r}")

    # -- whole-program checks -------------------------------------------

    def finish(self, program: Program) -> None:
        # call targets: defined, int-returning, arity, non-recursive
        for stmt, tok in self.call_sites:
            sig = self.fn_sigs.get(stmt.func)
            if sig is None:
                self.error(f"call to undefined function {stmt.func!r}", tok)
            if stmt.func == "main":
                self.error("main cannot be called", tok)
            ret, arity = sig
            if ret != "int":
                self.error(
                    f"{stmt.func!r} is a thread function and cannot be "
                    "called", tok)
            if arity != len(stmt.args):
                self.error(f"{stmt.func!r} expects {arity} argument(s)", tok)
        # recursion, reported at the call that closes the cycle
        state: dict[str, int] = {}

        def visit(fn: str) -> None:
            state[fn] = 1
            for callee, tok in sorted(self.calls[fn].items()):
                if callee not in self.fn_sigs:
                    continue
                if state.get(callee) == 1:
                    self.error(f"recursive call involving {callee!r}", tok)
                if callee not in state:
                    visit(callee)
            state[fn] = 2

        for fn in self.fn_sigs:
            if fn not in state:
                visit(fn)
        # thread creates: defined void functions, one create per function
        seen_fns: set[str] = set()
        ordinal = 0
        for tok in self.creates:
            fname = tok.text
            sig = self.fn_sigs.get(fname)
            if sig is None:
                self.error(f"thread-create of unknown function {fname!r}",
                           tok)
            if fname == "main":
                self.error("main cannot be created as a thread", tok)
            if sig[0] != "void":
                self.error(
                    f"thread-create target {fname!r} must be a void "
                    "function", tok)
            if fname in seen_fns:
                self.error(
                    f"function {fname!r} is created as a thread more than "
                    "once", tok)
            seen_fns.add(fname)
            ordinal += 1
            program.threads.append(ThreadDef(ordinal, fname))


@dataclass
class _FnCtx:
    name: str
    locals: set[str]


def parse(source: str) -> Program:
    """Parses .mc text into a line-numbered Program or raises ParseError."""
    parser = _Parser(_tokenize(source))
    try:
        program = parser.parse_program()
    except RecursionError:
        # the parser recurses once per nesting level of the input
        tok = parser.peek()
        raise ParseError("input nests too deeply", tok.line, tok.col) \
            from None
    return renumber(program)
