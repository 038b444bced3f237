"""Parser, printer, copier and line-id behavior."""

from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfl.parser import _SYMBOLS, ParseError, _tokenize, parse
from mcfl.sequentializer import extract_schedule, sequentialize
from mcfl.syntax import (
    HANDLE_DECLS,
    PRECEDENCE,
    PTHREAD_CALLS,
    Binary,
    CondAttrDecl,
    CondDecl,
    Expr,
    MutexDecl,
    Stmt,
    ThreadAttrDecl,
    ThreadDecl,
    Var,
    clone,
    line_table,
    pretty_print,
    program_stmts,
)
from mcfl.verifier import VerifierConfig, verify

from conftest import BENCH_DIR
from randprog import generate_source

# the 9 bundled ports and the division corpus that other suites also use
_SOURCES = {path.stem: path.read_text()
            for path in sorted(BENCH_DIR.glob("*.mc"))}
_SOURCES.update({f"randprog-{seed}": generate_source(seed, with_div=True)
                 for seed in range(150)})


class TestParse:
    def test_minimal_program(self):
        p = parse("int main(){ return 0; }")
        assert p.main is not None
        assert p.functions == []
        assert p.threads == []
        assert len(p.main.body.stmts) == 1

    def test_single_fault_port_shape(self, single_fault_program):
        p = single_fault_program
        assert p.functions == []
        assert p.threads == []
        assert len(line_table(p)) == 11

    def test_undeclared_identifier_named(self):
        with pytest.raises(ParseError) as err:
            parse("int main(){ x = 1; }")
        assert "'x'" in str(err.value)

    def test_local_shadowing_global_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("int g = 0;\nint main(){ int g; return 0; }")
        assert "shadows" in str(err.value)

    def test_thread_create_unknown_function(self):
        with pytest.raises(ParseError) as err:
            parse("pthread_t t;\nint main(){ pthread_create(t, nope); }")
        assert "nope" in str(err.value)

    def test_recursion_rejected(self):
        src = """
        int f(int n) {
          int r;
          r = f(n);
          return r;
        }
        int main(){ int x; x = f(1); return 0; }
        """
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "recursive" in str(err.value)

    def test_recursion_is_reported_at_the_call_closing_the_cycle(self):
        src = ("int f(int n) {\n"
               "  int r;\n"
               "  r = g(n);\n"
               "  return r;\n"
               "}\n"
               "int g(int n) {\n"
               "  int r;\n"
               "  r = f(n);\n"
               "  return r;\n"
               "}\n"
               "int main() { int x; x = f(1); return 0; }\n")
        with pytest.raises(ParseError,
                           match="recursive call involving 'f'") as err:
            parse(src)
        # g's call of f, the first call back onto the open f
        assert (err.value.line, err.value.col) == (8, 7)

    @pytest.mark.parametrize("stmt", ["pthread_mutex_lock(m);",
                                      "pthread_mutex_t k;"])
    def test_threading_in_a_callee_is_reported_at_its_keyword(self, stmt):
        src = ("pthread_mutex_t m;\n"
               "int f(int n) {\n"
               f"  int r; {stmt}\n"
               "  return n;\n"
               "}\n"
               "int main() { int x; x = f(1); return 0; }\n")
        with pytest.raises(
                ParseError, match="threading statement inside callable "
                "function 'f'") as err:
            parse(src)
        assert (err.value.line, err.value.col) == (3, 10)

    def test_break_outside_switch_rejected(self):
        with pytest.raises(ParseError):
            parse("int main(){ break; }")

    def test_case_outside_switch_rejected(self):
        with pytest.raises(ParseError):
            parse("int main(){ case 1: return 0; }")

    def test_return_must_be_last(self):
        src = "int main(){ int x; return 0; x = 1; }"
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "final" in str(err.value)

    def test_void_function_cannot_return(self):
        src = """
        pthread_t t;
        void w() { return 0; }
        int main(){ pthread_create(t, w); }
        """
        with pytest.raises(ParseError):
            parse(src)

    def test_duplicate_thread_create_rejected(self):
        src = """
        pthread_t t1;
        pthread_t t2;
        void w() { pthread_exit(); }
        int main(){
          pthread_create(t1, w);
          pthread_create(t2, w);
        }
        """
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "more than once" in str(err.value)

    def test_threading_inside_callable_rejected(self):
        src = """
        pthread_mutex_t m;
        int f(int x) {
          pthread_mutex_lock(m);
          return x;
        }
        int main(){ int y; y = f(1); return 0; }
        """
        with pytest.raises(ParseError):
            parse(src)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("int main(){\n  x === 1;\n}")
        assert err.value.line == 2

    def test_thread_ordinals_follow_create_order(self):
        src = """
        pthread_t a;
        pthread_t b;
        void second() { pthread_exit(); }
        void first() { pthread_exit(); }
        int main(){
          pthread_create(a, first);
          pthread_create(b, second);
        }
        """
        p = parse(src)
        assert [(t.ordinal, t.function) for t in p.threads] == [
            (1, "first"), (2, "second")]


def _tokens(source: str) -> list[tuple]:
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(source)]


class TestLexer:
    def test_unexpected_character_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("int main() {\n\t@\n}")
        assert str(err.value) == "2:2: unexpected character '@'"

    @pytest.mark.parametrize("char", ["²", "½", "\x0b", "$"])
    def test_non_token_character_is_a_parse_error(self, char):
        # '²' and '½' are numerals but no decimal digits
        with pytest.raises(ParseError) as err:
            parse(f"int x = 0;\nint main() {{ x = {char}; }}")
        assert str(err.value) == f"2:18: unexpected character {char!r}"

    @pytest.mark.parametrize("sym", _SYMBOLS)
    def test_symbol_is_one_token(self, sym):
        assert _tokens(f"a {sym} b") == [
            ("ident", "a", 1, 1), ("sym", sym, 1, 3),
            ("ident", "b", 1, 4 + len(sym)), ("eof", "", 1, 5 + len(sym))]

    def test_keyword_versus_identifier(self):
        assert [t[:2] for t in _tokens("int integer _int int1 while x_2 2x")
                ] == [("kw", "int"), ("ident", "integer"), ("ident", "_int"),
                      ("ident", "int1"), ("kw", "while"), ("ident", "x_2"),
                      ("int", "2"), ("ident", "x"), ("eof", "")]

    def test_comments_are_skipped(self):
        assert _tokens("a // b <= @ ²\n  // only\nc//d\n") == [
            ("ident", "a", 1, 1), ("ident", "c", 3, 1), ("eof", "", 4, 1)]

    def test_end_of_input_after_a_trailing_comment(self):
        # a comment does not advance the column
        assert _tokens("int main() { // x")[-1] == ("eof", "", 1, 14)
        with pytest.raises(ParseError) as err:
            parse("int main() { // x")
        assert str(err.value) == "1:14: unexpected end of input, missing '}'"

    def test_every_pair_of_binary_operators(self):
        for op1 in PRECEDENCE:
            for op2 in PRECEDENCE:
                p = parse(f"int a = 1;\nint b = 2;\nint c = 3;\n"
                          f"int main() {{ a = a {op1} b {op2} c; }}")
                a, b, c = Var("a"), Var("b"), Var("c")
                # equal levels associate to the left
                expected = Binary(op2, Binary(op1, a, b), c) \
                    if PRECEDENCE[op1] >= PRECEDENCE[op2] \
                    else Binary(op1, a, Binary(op2, b, c))
                assert p.main.body.stmts[0].expr == expected, (op1, op2)
                assert parse(pretty_print(p)) == p, (op1, op2)


class TestRoundTrip:
    def test_minimal(self):
        p = parse("int main(){ return 0; }")
        assert parse(pretty_print(p)) == p

    def test_single_fault_port(self, single_fault_program):
        text = pretty_print(single_fault_program)
        assert parse(text) == single_fault_program

    def test_framework_skeleton(self, single_fault_program,
                                default_config):
        from mcfl.sequentializer import extract_schedule, sequentialize
        from mcfl.verifier import verify

        result = verify(single_fault_program, default_config)
        schedule = extract_schedule(result.counterexample)
        seq = sequentialize(single_fault_program, schedule, False)
        text = pretty_print(seq.program)
        assert parse(text) == seq.program

    def test_operator_nesting(self):
        src = ("int main(){ int a; int b; "
               "a = -(1 + 2) * 3 % 4 - (5 - 1); "
               "b = (a < 3 ? a * 2 : a / 2) + !a; "
               "assert(a == 1 && b >= 0 || a != -8); return 0; }")
        p = parse(src)
        assert parse(pretty_print(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_generated_programs_round_trip(self, seed):
        p = parse(generate_source(seed))
        assert parse(pretty_print(p)) == p


class TestLineIds:
    def test_density(self, single_fault_program):
        table = line_table(single_fault_program)
        assert sorted(table) == list(range(1, len(table) + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_generated_density(self, seed):
        p = parse(generate_source(seed))
        table = line_table(p)
        assert sorted(table) == list(range(1, len(table) + 1))

    def test_line_table_is_total(self):
        p = parse("int main(){ return 0; }")
        table = line_table(p)
        assert len(table) == 1
        from mcfl.syntax import Return

        assert isinstance(table[1], Return)

    def test_round_trip_preserves_ids(self, single_fault_program):
        reparsed = parse(pretty_print(single_fault_program))
        orig = line_table(single_fault_program)
        new = line_table(reparsed)
        assert {k: type(v) for k, v in orig.items()} == \
               {k: type(v) for k, v in new.items()}


def _nodes(node):
    """Every statement, expression and list reachable from node."""
    if isinstance(node, list):
        yield node
        for item in node:
            yield from _nodes(item)
    elif is_dataclass(node):
        if isinstance(node, (Stmt, Expr)):
            yield node
        for f in fields(node):
            yield from _nodes(getattr(node, f.name))


class TestClone:
    @pytest.mark.parametrize("name", sorted(_SOURCES))
    def test_copy_is_equal_and_shares_nothing(self, name):
        p = parse(_SOURCES[name])
        copy = clone(p)
        assert pretty_print(copy) == pretty_print(p)
        assert copy == p  # line ids included
        assert not {id(n) for n in _nodes(p)} & \
            {id(n) for n in _nodes(copy)}

    @pytest.mark.parametrize("port", sorted(
        path.stem for path in BENCH_DIR.glob("*.mc")))
    def test_provenance_marks_are_not_copied(self, port):
        p = parse(_SOURCES[port])
        cex = verify(p, VerifierConfig(deadlock_check=True)).counterexample
        seq = sequentialize(p, extract_schedule(cex), False)
        assert any(hasattr(s, "_prov") for s in program_stmts(seq.program))
        copy = clone(seq.program)
        assert pretty_print(copy) == pretty_print(seq.program)
        for s in program_stmts(copy):
            assert not hasattr(s, "_prov")

    def test_rename_reads_and_writes_only(self):
        template = """
        int {g} = 0;
        int arr[2] = {{1, 2}};
        pthread_mutex_t m;
        pthread_t h;
        int f(int a) {{ int {b} = a; return {b}; }}
        void t() {{ {g} = 1; }}
        int main() {{
          int {x} = {g};
          int {y};
          {y} = f({x});
          {x} = arr[{x}] + {y};
          pthread_mutex_lock(m);
          pthread_create(h, t);
          assert({x} != ({y} > 0 ? {g} : arr[{y}]));
          pthread_mutex_unlock(m);
          pthread_join(h);
          return {x};
        }}
        """
        src = template.format(g="g", b="b", x="x", y="y")
        expected = template.format(g="g2", b="b2", x="x2", y="y2")
        # array, function, thread-function and handle names stay as they are
        rename = {"g": "g2", "b": "b2", "x": "x2", "y": "y2", "arr": "A",
                  "f": "F", "t": "T", "m": "M", "h": "H"}
        p = parse(src)
        assert clone(p, rename) == parse(expected)
        assert p == parse(src)


# handle type -> (statement class, statements that use a handle named h)
_HANDLE_DECLS = {
    "pthread_t": (ThreadDecl, "pthread_create(h, worker); pthread_join(h);"),
    "pthread_attr_t": (ThreadAttrDecl, ""),
    "pthread_cond_attr_t": (CondAttrDecl, ""),
    "pthread_mutex_t": (MutexDecl,
                        "pthread_mutex_lock(h); pthread_mutex_unlock(h);"),
    "pthread_cond_t": (CondDecl,
                       "pthread_cond_init(h); pthread_cond_signal(h);"),
}


class TestHandleDecls:
    @pytest.mark.parametrize("scope", ["global", "function"])
    @pytest.mark.parametrize("kind", sorted(_HANDLE_DECLS))
    def test_declaration_and_use(self, kind, scope):
        cls, uses = _HANDLE_DECLS[kind]
        if scope == "global":
            p = parse(f"{kind} h;\nvoid worker() {{ }}\n"
                      f"int main() {{ {uses} return 0; }}")
            decl = p.globals[0]
        else:
            p = parse(f"void worker() {{ }}\n"
                      f"int main() {{ {kind} h; {uses} return 0; }}")
            decl = p.main.body.stmts[0]
        assert type(decl) is cls and decl.name == "h"
        assert HANDLE_DECLS[cls][0] == kind
        text = pretty_print(p)
        indent = "" if scope == "global" else "  "
        assert f"{indent}{kind} h;" in text.splitlines()
        assert parse(text) == p  # line ids included

    def test_every_table_entry_is_covered(self):
        assert {cls for cls, _ in _HANDLE_DECLS.values()} == \
            set(HANDLE_DECLS)

    @pytest.mark.parametrize("scope", ["global", "function"])
    @pytest.mark.parametrize("kind", sorted(_HANDLE_DECLS))
    def test_duplicate_rejected(self, kind, scope):
        decls = f"{kind} h; {kind} h;"
        src = f"{decls}\nint main() {{ return 0; }}" if scope == "global" \
            else f"int main() {{ {decls} return 0; }}"
        with pytest.raises(ParseError) as err:
            parse(src)
        assert "duplicate global identifier 'h'" in str(err.value)

    @pytest.mark.parametrize("kind", sorted(_HANDLE_DECLS))
    def test_local_name_rejected(self, kind):
        with pytest.raises(ParseError) as err:
            parse(f"int main() {{ int h; {kind} h; return 0; }}")
        assert "'h' already names a local" in str(err.value)


# one declared handle of each kind, named after it, a void thread function
# and an integer variable
_DECLS = "".join(f"{kw} {kind}_h;\n" for kw, kind in HANDLE_DECLS.values())
_DECLS += "int x = 0;\nvoid worker() { }\n"


def _right_args(cls) -> list[str]:
    return ["worker" if kind == "function" else f"{kind}_h"
            for kind in PTHREAD_CALLS[cls][1]]


def _call_text(cls, args: list[str]) -> str:
    return f"{PTHREAD_CALLS[cls][0]}({', '.join(args)});"


def _with_stmt(stmt: str) -> str:
    return f"{_DECLS}int main() {{\n  {stmt}\n}}\n"


_KEYWORDS = sorted([kw for kw, _ in HANDLE_DECLS.values()]
                   + [kw for kw, _ in PTHREAD_CALLS.values()])


class TestThreadingTables:
    @pytest.mark.parametrize("cls", PTHREAD_CALLS, ids=lambda c: c.__name__)
    def test_call_prints_and_parses_back(self, cls):
        stmt = _call_text(cls, _right_args(cls))
        p = parse(_with_stmt(stmt))
        assert type(p.main.body.stmts[0]) is cls
        text = pretty_print(p)
        assert f"\n  {stmt}\n" in text
        assert parse(text) == p  # line ids included

    @pytest.mark.parametrize("cls, position, wrong", [
        (cls, i, wrong) for cls, (_, kinds) in PTHREAD_CALLS.items()
        for i, kind in enumerate(kinds) if kind != "function"
        for wrong in ("x", "worker", "zz", "thread_h", "mutex_h", "cond_h",
                      "attr_h") if wrong != f"{kind}_h"],
        ids=lambda v: getattr(v, "__name__", str(v)))
    def test_wrong_kind_rejected_at_its_column(self, cls, position, wrong):
        keyword, kinds = PTHREAD_CALLS[cls]
        args = _right_args(cls)
        args[position] = wrong
        with pytest.raises(ParseError) as err:
            parse(_with_stmt(_call_text(cls, args)))
        assert err.value.message == \
            f"{wrong!r} is not a declared {kinds[position]} object"
        assert err.value.line == _DECLS.count("\n") + 2
        before = f"  {keyword}(" + "".join(a + ", " for a in args[:position])
        assert err.value.col == len(before) + 1

    @pytest.mark.parametrize("keyword", _KEYWORDS)
    @pytest.mark.parametrize("template", [
        "int {kw} = 0;\nint main() {{ }}",
        "int main() {{ int {kw}; }}",
        "int x = 0;\nint main() {{ x = {kw}; }}",
        "int main() {{ {kw} = 1; }}",
        "void {kw}() {{ }}\nint main() {{ }}",
        "pthread_mutex_t {kw};\nint main() {{ }}",
        "int main() {{ pthread_t {kw}; }}",
    ])
    def test_keyword_is_no_identifier(self, keyword, template):
        with pytest.raises(ParseError):
            parse(template.format(kw=keyword))

    @pytest.mark.parametrize("keyword", _KEYWORDS)
    def test_keyword_in_grammar(self, keyword):
        text = (BENCH_DIR.parent.parent.parent / "docs" / "grammar.md"
                ).read_text()
        ebnf = text.split("```ebnf", 1)[1].split("```", 1)[0]
        assert f'"{keyword}"' in ebnf

    def test_every_statement_kind_round_trips(self):
        src = """int x = 0;
int arr[3] = {4, -5, 6};
pthread_t t;
pthread_attr_t ta;
pthread_cond_attr_t ca;
pthread_mutex_t m;
pthread_cond_t c;

int f(int a, int b) {
  int r = a * b - arr[a % 3];
  if (r > 2) {
    r = r - 1;
  } else {
    r = (r < 0 ? -r : nondet(0, 3));
  }
  return r;
}

void worker() {
  pthread_mutex_lock(m);
  pthread_cond_wait(c, m);
  x = x + 1;
  pthread_mutex_unlock(m);
  if (x > 3) {
    pthread_exit();
  }
  x = nondet();
}

int main() {
  int i;
  pthread_t u;
  pthread_cond_init(c);
  pthread_create(t, worker);
  x = f(x, 2);
  for (i = 0; i < 2; i = i + 1) {
    switch (i) {
      case 0:
      {
        x = x + 1;
      }
      break;
      case -1:
      default:
      assume(!(x == 2));
    }
  }
  while (x < 3) {
    pthread_cond_signal(c);
    x = x + 1;
  }
  pthread_join(t);
  assert(x != 9 && x >= 0 || x == 1);
  return 0;
}
"""
        p = parse(src)
        assert pretty_print(p) == src
        assert parse(pretty_print(p)) == p
        kinds = {type(s) for s in program_stmts(p)}
        assert set(HANDLE_DECLS) <= kinds and set(PTHREAD_CALLS) <= kinds
