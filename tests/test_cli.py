"""Command dispatch, exit statuses, emitted artifacts."""

import json

import pytest

from mcfl.cli import main
from mcfl.parser import parse
from mcfl.verifier import (
    counterexample_from_json,
    counterexample_to_json,
    replay,
)

from conftest import BENCH_DIR, bench_source

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

# nested past the parser's recursion limit
DEEP_PARENS = ("int x = 0;\nint main() { x = " + "(" * 100 + "1" + ")" * 100
               + "; assert(x != 1); }\n")

# parses and verifies, but nested past the later stages' recursion limit
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

    def test_parse_error_is_four(self, tmp_path, capsys):
        path = tmp_path / "broken.mc"
        path.write_text("int main(){ x = ; }")
        assert main(["verify", str(path)]) == 4
        assert "mcfl:" in capsys.readouterr().err

    def test_missing_file_is_four(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.mc")]) == 4

    def test_usage_error_is_four(self, capsys):
        assert main(["frobnicate", "x"]) == 4

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

    def test_deep_nesting_is_four(self, tmp_path, capsys):
        parens = tmp_path / "parens.mc"
        parens.write_text(DEEP_PARENS)
        assert main(["verify", str(parens)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mcfl: 2:")
        assert err.endswith(": input nests too deeply\n")
        ifs = tmp_path / "ifs.mc"
        ifs.write_text(DEEP_IFS)
        assert main(["verify", str(ifs)]) == 1
        assert main(["localize", str(ifs)]) == 4
        assert capsys.readouterr().err == "mcfl: input nests too deeply\n"

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
            ["good,no-counterexample", "ifs,error", "parens,error"]


class TestEnvironment:
    def test_max_states_env_override(self, fault_file, monkeypatch, capsys):
        monkeypatch.setenv("MCFL_MAX_STATES", "2")
        assert main(["verify", str(fault_file)]) == 3

    def test_flag_beats_env(self, fault_file, monkeypatch, capsys):
        monkeypatch.setenv("MCFL_MAX_STATES", "2")
        assert main(["verify", str(fault_file),
                     "--max-states", "100000"]) == 1
