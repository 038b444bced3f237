"""Command dispatch, exit statuses, emitted artifacts."""

import argparse
import json

import pytest

from mcfl.cli import main, run
from mcfl.parser import parse
from mcfl.verifier import (
    counterexample_from_json,
    counterexample_to_json,
    replay,
)

from conftest import BENCH_DIR, bench_source, threads_source

SAFE = "int main(){ assert(1 == 1); return 0; }\n"

# lines: 1 x, 2 t's declaration, 3 return, 4 the call, 5 the assertion
CALLER = """int x = 0;
int f(int a) { int t = a + 1; return t; }
int main() { x = f(1); assert(x != 2); }
"""

# a global array read by main and a thread; the array is line 2
GLOBAL_ARRAY = """int x = 0;
int a[2] = {1, 2};
pthread_t h;
void t() { x = x + a[1]; }
int main() {
  pthread_create(h, t);
  x = x + a[0];
  pthread_join(h);
  assert(x != 3);
}
"""


# main's x = x + 2 races the thread's increment; with 8 states the search
# and the substitution oracle's path both run out
RACE = """int x = 0;
pthread_t h;
void t() {
  x = x + 1;
}
int main() {
  pthread_create(h, t);
  x = x + 2;
  assert(x != 3);
}
"""


def parens(depth: int) -> str:
    """x = 1 inside depth parentheses, then an assertion that fails."""
    return ("int x = 0;\nint main() { x = " + "(" * depth + "1" + ")" * depth
            + "; assert(x != 1); }\n")


# nested past the parser's recursion limit
DEEP_PARENS = parens(1000)

# a sum past the compiler's recursion limit, which the parser reads in a loop
LONG_SUM = ("int x = 0;\nint main() { x = " + " + ".join(["1"] * 1000)
            + "; assert(x != 1000); }\n")

# nested 320 deep, which every stage handles, the diagnosis model's copy
# included
DEEP_IFS = ("int x = 0;\nint main() {\n" + "if (x == 0) {\n" * 320
            + "x = 1;\n" + "}\n" * 320 + "assert(x != 1);\n}\n")


@pytest.fixture()
def fault_file(tmp_path):
    path = tmp_path / "fault.mc"
    path.write_text(bench_source("single_fault"))
    return path


class TestExitStatuses:
    def test_verify_safe_is_zero(self, tmp_path, capsys):
        path = tmp_path / "safe.mc"
        path.write_text(SAFE)
        assert main(["verify", str(path)]) == 0
        assert "safe-within-bounds" in capsys.readouterr().out

    def test_localize_faults_is_one(self, fault_file, capsys):
        code = main(["localize", str(fault_file), "--unwind", "3",
                     "--nondet", "0..8"])
        out = capsys.readouterr().out
        assert code == 1
        assert "line 4" in out and "line 7" in out

    def test_localize_inconclusive_is_two(self, tmp_path, capsys):
        path = tmp_path / "sync01.mc"
        path.write_text(bench_source("sync01"))
        assert main(["localize", str(path)]) == 2

    def test_resource_exhausted_is_three(self, fault_file, capsys):
        assert main(["verify", str(fault_file), "--max-states", "2"]) == 3

    @pytest.mark.parametrize("command", ["sequentialize", "instrument"])
    def test_transform_exhausted_is_three(self, command, fault_file, capsys):
        assert main([command, str(fault_file), "--max-states", "2",
                     "--emit-intermediates"]) == 3
        assert capsys.readouterr() == ("resource-exhausted\n", "")
        assert list(fault_file.parent.iterdir()) == [fault_file]

    def test_parse_error_is_four(self, tmp_path, capsys):
        path = tmp_path / "broken.mc"
        path.write_text("int main(){ x = ; }")
        assert main(["verify", str(path)]) == 4
        assert "mcfl:" in capsys.readouterr().err

    def test_missing_file_is_four(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.mc")]) == 4

    def test_usage_error_is_four(self, capsys):
        assert main(["frobnicate", "x"]) == 4

    def test_unknown_command_in_run_is_four(self, fault_file, capsys):
        args = argparse.Namespace(
            command="frobnicate", input=str(fault_file), unwind=3,
            context_bound=4, nondet=(0, 8), max_states=None)
        assert run(args) == 4
        assert capsys.readouterr() == (
            "", "mcfl: unknown command 'frobnicate'\n")

    @pytest.mark.parametrize("argv, env", [
        (["verify", "account.mc", "--unwind", "0"], None),
        (["verify", "account.mc", "--max-states", "0"], None),
        (["verify", "account.mc", "--nondet", "5..1"], None),
        (["verify", "account.mc", "--context-bound", "-1"], None),
        (["verify", "account.mc"], "abc"),
        (["bench", ".", "--unwind", "0"], None),
    ])
    def test_bad_bound_is_four(self, argv, env, monkeypatch, capsys):
        monkeypatch.delenv("MCFL_MAX_STATES", raising=False)
        if env is not None:
            monkeypatch.setenv("MCFL_MAX_STATES", env)
        command, target, *flags = argv
        assert main([command, str(BENCH_DIR / target)] + flags) == 4
        assert capsys.readouterr().err.startswith("mcfl: ")

    def test_negative_nondet_domain_takes_either_spelling(self, fault_file,
                                                          capsys):
        # argparse reads a lone -2..3 as an option unless it is joined
        runs = []
        for flags in (["--nondet", "-2..3"], ["--nondet=-2..3"]):
            code = main(["localize", str(fault_file), "--json"] + flags)
            report = json.loads(capsys.readouterr().out)
            assert report.pop("timings")
            runs.append((code, report))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and runs[0][1]["status"] == "faults-found"

    def test_malformed_negative_nondet_is_four(self, fault_file, capsys):
        assert main(["verify", str(fault_file), "--nondet", "-2"]) == 4
        assert "nondet domain must look like LO..HI" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("sequentialize", "--deadlock-check"),
        ("instrument", "--deadlock-check"),
        ("localize", "--deadlock-check"),
        ("bench", "--deadlock-check"),
        ("sequentialize", "--json"),
        ("instrument", "--json"),
        ("bench", "--json"),
        ("bench", "--emit-intermediates"),
    ])
    def test_option_the_command_does_not_read_is_four(self, command, flag,
                                                       capsys):
        # each would change nothing there; the parser rejects it
        target = BENCH_DIR if command == "bench" else \
            BENCH_DIR / "account.mc"
        assert main([command, str(target), flag]) == 4
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_verify_violation_is_one(self, fault_file, capsys):
        assert main(["verify", str(fault_file)]) == 1
        assert "violation: assertion" in capsys.readouterr().out

    def test_model_error_is_four(self, tmp_path, capsys):
        # one create statement passes the parser, but the loop runs it twice
        path = tmp_path / "recreate.mc"
        path.write_text("""pthread_t h;
void w() {
}
int main() {
  int i = 0;
  while (i < 2) {
    pthread_create(h, w);
    i = i + 1;
  }
}
""")
        assert main(["verify", str(path)]) == 4
        assert "mcfl: thread function 'w' created twice" in \
            capsys.readouterr().err

    def test_user_for_loop_is_verify_only(self, tmp_path, capsys):
        path = tmp_path / "callee_for.mc"
        path.write_text("""int x = 0;
int f(int m) {
  int t = 0;
  int i;
  for (i = 0; i < m; i = i + 1) {
    t = t + 2;
  }
  return t;
}
int main() {
  x = f(3);
  assert(x != 6);
}
""")
        assert main(["localize", str(path)]) == 4
        assert capsys.readouterr().err == (
            "mcfl: line 4: For has no transformation rule; for and switch "
            "are supported by verify only\n")
        assert main(["verify", str(path)]) == 1
        assert "violation: assertion" in capsys.readouterr().out


    def test_global_array_is_verify_only(self, tmp_path, capsys):
        path = tmp_path / "array.mc"
        path.write_text(GLOBAL_ARRAY)
        assert main(["verify", str(path)]) == 1
        assert "violation: assertion" in capsys.readouterr().out
        assert main(["localize", str(path)]) == 4
        assert capsys.readouterr().err == (
            "mcfl: line 2: ArrayDecl has no transformation rule; global "
            "arrays are supported by verify only\n")

    def test_nothing_eligible_is_two(self, tmp_path, capsys):
        path = tmp_path / "no_assign.mc"
        path.write_text("int x = 0; int main() { assert(x == 1); }\n")
        assert main(["instrument", str(path)]) == 2
        assert capsys.readouterr().err.startswith("mcfl: ")
        assert main(["localize", str(path)]) == 2
        assert "status: inconclusive" in capsys.readouterr().out

    def test_ten_threads_is_two(self, tmp_path, capsys):
        path = tmp_path / "threads.mc"
        path.write_text(threads_source(10))
        assert main(["localize", str(path)]) == 2
        assert capsys.readouterr().err.startswith("mcfl: segment tag 11 ")

    @pytest.mark.parametrize("command", ["verify", "localize"])
    def test_compile_depth_is_four(self, command, tmp_path, capsys):
        path = tmp_path / "sum.mc"
        path.write_text(LONG_SUM)
        assert main([command, str(path)]) == 4
        assert capsys.readouterr().err == "mcfl: input nests too deeply\n"

    def test_deep_nesting_is_four(self, tmp_path, capsys):
        deep = tmp_path / "parens.mc"
        deep.write_text(DEEP_PARENS)
        assert main(["verify", str(deep)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mcfl: 2:")
        assert err.endswith(": input nests too deeply\n")
        # a parenthesis costs the parser four frames, not one per precedence
        # level
        deep.write_text(parens(100))
        assert main(["verify", str(deep)]) == 1
        capsys.readouterr()
        ifs = tmp_path / "ifs.mc"
        ifs.write_text(DEEP_IFS)
        assert main(["verify", str(ifs)]) == 1
        capsys.readouterr()
        assert main(["localize", str(ifs), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "faults-found"
        assert len(doc["diagnoses"]) == doc["found_error_count"] == 321
        # the diagnosis model's copy spends two frames per level, as the
        # parser and the printer do
        model = tmp_path / "ifs.instrumented.mc"
        for command in ("instrument", "localize"):
            model.unlink(missing_ok=True)
            assert main([command, str(ifs), "--emit-intermediates"]) == 1
            assert "nests too deeply" not in capsys.readouterr().err
            assert model.read_text().count("if (") >= 320

    def test_bench_on_a_file_is_four(self, fault_file, capsys):
        assert main(["bench", str(fault_file)]) == 4
        assert "is not a directory" in capsys.readouterr().err


class TestArtifacts:
    def test_emit_intermediates(self, fault_file, capsys):
        code = main(["localize", str(fault_file), "--emit-intermediates"])
        assert code == 1
        base = fault_file.with_suffix("")
        for suffix in (".counterexample.json", ".seq.mc",
                       ".instrumented.mc", ".linemap.json"):
            assert base.with_suffix(suffix).exists(), suffix

    def test_emitted_model_is_the_instrument_output(self, fault_file,
                                                   capsys):
        main(["localize", str(fault_file), "--emit-intermediates"])
        capsys.readouterr()
        assert main(["instrument", str(fault_file)]) == 1
        assert fault_file.with_suffix(".instrumented.mc").read_text() == \
            capsys.readouterr().out

    def test_counterexample_json_round_trips(self, fault_file, capsys):
        main(["verify", str(fault_file), "--emit-intermediates"])
        text = fault_file.with_suffix(".counterexample.json").read_text()
        assert counterexample_to_json(counterexample_from_json(text)) == text

    def test_verify_json_replays(self, fault_file, capsys):
        assert main(["verify", str(fault_file), "--json"]) == 1
        out = capsys.readouterr().out
        cex = counterexample_from_json(out)
        assert counterexample_to_json(cex) == out
        result = replay(parse(fault_file.read_text()), cex)
        assert counterexample_to_json(result.counterexample) == out

    def test_sequentialize_emits_unwind_copy_map(self, tmp_path, capsys):
        path = tmp_path / "caller.mc"
        path.write_text(CALLER)
        assert main(["sequentialize", str(path),
                     "--emit-intermediates"]) == 1
        out = capsys.readouterr().out
        assert path.with_suffix(".seq.mc").read_text() == out
        assert path.with_suffix(".counterexample.json").exists()
        line_map = json.loads(path.with_suffix(".linemap.json").read_text())
        copies = {entry["value"]["line"] for entry in line_map.values()
                  if entry["kind"] == "synthetic"
                  and isinstance(entry["value"], dict)
                  and entry["value"]["reason"] == "unwind-copy"}
        assert copies == {2, 3, 4}  # t, the return, the parameter
        assert not path.with_suffix(".instrumented.mc").exists()

    def test_instrument_emits_model_and_sites(self, fault_file, capsys):
        assert main(["instrument", str(fault_file),
                     "--emit-intermediates"]) == 1
        out = capsys.readouterr().out
        base = fault_file.with_suffix("")
        for suffix in (".counterexample.json", ".seq.mc", ".linemap.json"):
            assert base.with_suffix(suffix).exists(), suffix
        assert base.with_suffix(".instrumented.mc").read_text() == out
        doc = json.loads(base.with_suffix(".instrumented.json").read_text())
        assert doc["diag_var"] == "diag"
        assert sorted(int(k) for k in doc["wrap_sites"]) == \
            doc["diag_domain"]

    def test_localize_json_output(self, fault_file, capsys):
        code = main(["localize", str(fault_file), "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "faults-found"
        assert doc["found_error_count"] == 2

    def test_sequentialize_emits_program(self, fault_file, capsys):
        code = main(["sequentialize", str(fault_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "switch (order[order_index])" in out

    def test_instrument_emits_model(self, fault_file, capsys):
        code = main(["instrument", str(fault_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "diag = nondet(" in out
        assert "assert(0);" in out

    def test_sequentialize_safe_program(self, tmp_path, capsys):
        path = tmp_path / "safe.mc"
        path.write_text(SAFE)
        assert main(["sequentialize", str(path)]) == 0


class TestBench:
    def test_empty_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", str(empty)]) == 0
        assert "no .mc files" in capsys.readouterr().out

    def test_sweep_determinism_modulo_timings(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert main(["bench", str(BENCH_DIR), "--csv", str(csv_a)]) == 0
        assert main(["bench", str(BENCH_DIR), "--csv", str(csv_b)]) == 0

        def strip_vt(text):
            rows = [line.split(",") for line in text.splitlines()]
            keep = [i for i, h in enumerate(rows[0])
                    if not h.startswith("vt_")]
            return [[r[i] for i in keep] for r in rows]

        assert strip_vt(csv_a.read_text()) == strip_vt(csv_b.read_text())

    def test_per_file_errors_do_not_abort(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "mix"
        d.mkdir()
        (d / "good.mc").write_text(SAFE)
        (d / "bad.mc").write_text("int main(){")
        assert main(["bench", str(d)]) == 0
        out = capsys.readouterr().out
        assert "error" in out and "good" in out

    def test_non_decimal_digit_does_not_abort(self, tmp_path, capsys,
                                              monkeypatch):
        # '²' is a digit to str.isdigit but not to int()
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "digits"
        d.mkdir()
        (d / "good.mc").write_text(SAFE)
        (d / "square.mc").write_text("int x = 0;\nint main() { x = ²; }\n")
        assert main(["bench", str(d)]) == 0
        rows = (tmp_path / "mcfl_bench.csv").read_text().splitlines()
        assert [row.split(",")[0] + "," + row.split(",")[5]
                for row in rows[1:]] == \
            ["good,no-counterexample", "square,error"]

    @pytest.mark.parametrize("make,message", [
        (lambda path: path.write_bytes(b"\xff"), "can't decode byte 0xff"),
        (lambda path: path.mkdir(), "Is a directory")],
        ids=["not-utf8", "directory"])
    def test_unreadable_entry_does_not_abort(self, tmp_path, capsys,
                                             monkeypatch, make, message):
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "unreadable"
        d.mkdir()
        (d / "a.mc").write_text(SAFE)
        make(d / "c.mc")
        assert main(["bench", str(d)]) == 0
        out = capsys.readouterr().out
        assert "error: " in out and message in out
        rows = (tmp_path / "mcfl_bench.csv").read_text().splitlines()
        assert [row.split(",")[0] + "," + row.split(",")[5]
                for row in rows[1:]] == ["a,no-counterexample", "c,error"]

    def test_deep_nesting_does_not_abort(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "deep"
        d.mkdir()
        (d / "good.mc").write_text(SAFE)
        (d / "ifs.mc").write_text(DEEP_IFS)
        (d / "parens.mc").write_text(DEEP_PARENS)
        assert main(["bench", str(d)]) == 0
        rows = (tmp_path / "mcfl_bench.csv").read_text().splitlines()
        assert [row.split(",")[0] + "," + row.split(",")[5]
                for row in rows[1:]] == \
            ["good,no-counterexample", "ifs,faults-found", "parens,error"]

    def test_oracle_out_of_budget_does_not_abort(self, tmp_path, capsys,
                                                 monkeypatch):
        # the diagnosis search runs out, and so does the oracle's path
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "race"
        d.mkdir()
        (d / "race.mc").write_text(RACE)
        assert main(["bench", str(d), "--max-states", "8"]) == 0
        assert "0/-" in capsys.readouterr().out
        rows = (tmp_path / "mcfl_bench.csv").read_text().splitlines()
        assert [row.split(",")[:6] for row in rows[1:]] == \
            [["race", "0", "0", "", "0", "resource-exhausted"]]


class TestEnvironment:
    def test_max_states_env_override(self, fault_file, monkeypatch, capsys):
        monkeypatch.setenv("MCFL_MAX_STATES", "2")
        assert main(["verify", str(fault_file)]) == 3

    def test_flag_beats_env(self, fault_file, monkeypatch, capsys):
        monkeypatch.setenv("MCFL_MAX_STATES", "2")
        assert main(["verify", str(fault_file),
                     "--max-states", "100000"]) == 1
