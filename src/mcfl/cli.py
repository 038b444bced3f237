"""Command-line entry point.

    mcfl verify <file.mc>        bounded verification, counterexample out
    mcfl sequentialize <file.mc> failing schedule -> sequential program
    mcfl instrument <file.mc>    sequential program -> diagnosis model
    mcfl localize <file.mc>      full pipeline -> diagnosis report
    mcfl bench <dir>             sweep a directory, print a result table

Every command takes --unwind, --context-bound, --nondet and --max-states.
Each takes only the other options it reads: --deadlock-check on verify
alone, since the other commands force their own value; --json on verify
and localize; --emit-intermediates on all but bench; --csv on bench.

sequentialize, instrument and localize share localizer.sequential_replay
and one writer of intermediates; only printing builds the diagnosis model.

Exit status: 0 safe/no fault, 1 faults found, 2 inconclusive,
3 resource budget exhausted, 4 usage, parse or model error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import rows_to_csv, rows_to_table, run_bench
from .instrumenter import NothingToInstrument, instrument, \
    instrumented_to_json
from .localizer import DiagnosisReport, localize, report_to_json, \
    sequential_replay
from .parser import ParseError, parse
from .sequentializer import GuardPlacementError, RuleGapError, \
    UnsupportedScheduleError, line_map_to_json
from .syntax import pretty_print
from .verifier import (
    Counterexample,
    ModelError,
    TraceMismatch,
    VerifierConfig,
    counterexample_to_json,
    verify,
)

EXIT_SAFE = 0
EXIT_FAULTS = 1
EXIT_INCONCLUSIVE = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 4
_STATUS_EXIT = {
    "faults-found": EXIT_FAULTS,
    "no-counterexample": EXIT_SAFE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "resource-exhausted": EXIT_RESOURCE,
}

def _parse_nondet(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            "nondet domain must look like LO..HI")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_cli() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfl",
        description="Fault localization for concurrent mini-C programs.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = VerifierConfig()
    lo, hi = defaults.nondet_domain
    for name, what in [
        ("verify", "explore interleavings and report the first violation"),
        ("sequentialize", "emit the sequential replay program"),
        ("instrument", "emit the diagnosis model"),
        ("localize", "run the full localization pipeline"),
        ("bench", "localize every .mc file in a directory"),
    ]:
        cmd = sub.add_parser(name, help=what)
        cmd.add_argument("input", help=".mc file"
                         if name != "bench" else "directory of .mc files")
        cmd.add_argument("--unwind", type=int, default=defaults.loop_bound,
                         metavar="K", help="max loop iterations (default "
                                           f"{defaults.loop_bound})")
        cmd.add_argument("--context-bound", type=int,
                         default=defaults.context_bound, metavar="C",
                         help="max context switches (default "
                              f"{defaults.context_bound})")
        cmd.add_argument("--nondet", type=_parse_nondet,
                         default=defaults.nondet_domain, metavar="LO..HI",
                         help=f"nondet value domain (default {lo}..{hi})")
        if name == "verify":
            cmd.add_argument("--deadlock-check", action="store_true",
                             help="report deadlocks as violations")
        if name in ("verify", "localize"):
            cmd.add_argument("--json", action="store_true",
                             help="machine-readable output")
        if name != "bench":
            cmd.add_argument("--emit-intermediates", action="store_true",
                             help="write counterexample, sequential "
                                  "program, diagnosis model and line map "
                                  "next to the input")
        cmd.add_argument("--max-states", type=int, default=None, metavar="N",
                         help=f"state budget (default {defaults.max_states}"
                              ", or MCFL_MAX_STATES)")
        if name == "bench":
            cmd.add_argument("--csv", default="mcfl_bench.csv",
                             metavar="PATH",
                             help="where to write the CSV summary")
    return parser


def _verifier_config(args: argparse.Namespace) -> VerifierConfig:
    """Raises ValueError on a bound out of range or a malformed
    MCFL_MAX_STATES."""
    max_states = args.max_states
    if max_states is None:
        text = os.environ.get("MCFL_MAX_STATES")
        try:
            max_states = VerifierConfig.max_states if text is None \
                else int(text)
        except ValueError:
            raise ValueError(
                f"MCFL_MAX_STATES must be an integer, not {text!r}"
            ) from None
    return VerifierConfig(
        context_bound=args.context_bound,
        loop_bound=args.unwind,
        nondet_domain=args.nondet,
        # only verify takes the flag; the others force their own value
        deadlock_check=getattr(args, "deadlock_check", False),
        max_states=max_states,
    )


def _load_program(path: str):
    source = Path(path).read_text()
    return parse(source)


def _emit(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    """Dispatches one parsed command line; returns the documented exit
    status."""
    try:
        vcfg = _verifier_config(args)
        if args.command == "bench":
            return _run_bench(args, vcfg)
        program = _load_program(args.input)
    except (OSError, ParseError, ValueError) as exc:
        print(f"mcfl: {exc}", file=sys.stderr)
        return EXIT_USAGE

    base = Path(args.input)
    try:
        if args.command == "verify":
            result = verify(program, vcfg)
            if result.outcome == "resource-exhausted":
                print("resource-exhausted")
                return EXIT_RESOURCE
            if result.outcome == "safe-within-bounds":
                suffix = " (loop bound hit)" if result.bound_hit else ""
                print(f"safe-within-bounds{suffix}")
                return EXIT_SAFE
            cex = result.counterexample
            if args.json:
                print(counterexample_to_json(cex), end="")
            else:
                v = cex.violation
                where = f" at line {v.line}" if v.line else \
                    f", blocked threads {list(v.blocked)}"
                print(f"violation: {v.kind}{where}")
                print(f"steps: {len(cex.steps)}, "
                      f"context switches: {len(cex.switches)}")
            if args.emit_intermediates:
                _emit_intermediates(base, args.command, cex)
            return EXIT_FAULTS

        if args.command in ("sequentialize", "instrument", "localize"):
            report = (localize if args.command == "localize"
                      else sequential_replay)(program, vcfg)
            if args.emit_intermediates:
                _emit_intermediates(base, args.command,
                                    report.counterexample, report)
            if args.command == "localize":
                if args.json:
                    print(report_to_json(report), end="")
                else:
                    _print_report(report)
                return _STATUS_EXIT[report.status]
            if report.sequential is None:
                print("resource-exhausted"
                      if report.status == "resource-exhausted"
                      else "safe-within-bounds: nothing to transform")
                return _STATUS_EXIT[report.status]
            if args.command == "sequentialize":
                print(pretty_print(report.sequential.program), end="")
                return EXIT_FAULTS
            # no model only when nothing is eligible; instrument says so
            model = report.instrumented or instrument(report.sequential)
            print(pretty_print(model.program), end="")
            return EXIT_FAULTS
    except (UnsupportedScheduleError, NothingToInstrument) as exc:
        print(f"mcfl: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ModelError, RuleGapError, GuardPlacementError,
            TraceMismatch) as exc:
        # the program leaves the modelled semantics or the transformation
        # rules: an input error, not a verdict
        print(f"mcfl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the later stages recurse once per expression level, where the
        # parser reads a chain of one precedence level in a loop
        print("mcfl: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE

    print(f"mcfl: unknown command {args.command!r}", file=sys.stderr)
    return EXIT_USAGE


def _emit_intermediates(base: Path, command: str, cex: Counterexample | None,
                        report: DiagnosisReport | None = None) -> None:
    """Writes the files of every stage up to the command's: the
    counterexample, then from the report the sequential program and its
    line map, then (but for sequentialize) the diagnosis model, built on
    this first read, and for instrument its sites."""
    if cex is not None:
        _emit(base.with_suffix(".counterexample.json"),
              counterexample_to_json(cex))
    if report is None or report.sequential is None:
        return
    _emit(base.with_suffix(".seq.mc"), pretty_print(report.sequential.program))
    _emit(base.with_suffix(".linemap.json"),
          line_map_to_json(report.sequential.line_map))
    if command == "sequentialize" or report.instrumented is None:
        return
    _emit(base.with_suffix(".instrumented.mc"),
          pretty_print(report.instrumented.program))
    if command == "instrument":
        _emit(base.with_suffix(".instrumented.json"),
              instrumented_to_json(report.instrumented))


def _print_report(report: DiagnosisReport) -> None:
    print(f"status: {report.status}")
    print(f"deadlock: {1 if report.deadlock else 0}")
    print(f"found errors: {report.found_error_count}")
    for d in report.diagnoses:
        origin = d.original_line if d.original_line is not None \
            else "(no source line)"
        check = "validated" if d.oracle_validated else "unvalidated"
        print(f"  line {origin}: replacement value {d.witness_value} "
              f"[iteration {d.iteration}, {check}]")
    total = sum(report.timings.values())
    stages = ", ".join(f"{k} {v:.3f}s" for k, v in report.timings.items())
    print(f"time: {total:.3f}s ({stages})")


def _run_bench(args: argparse.Namespace, vcfg: VerifierConfig) -> int:
    directory = Path(args.input)
    if not directory.is_dir():
        print(f"mcfl: {directory} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    rows = run_bench(directory, vcfg)
    print(rows_to_table(rows), end="")
    csv_path = Path(args.csv)
    csv_path.write_text(rows_to_csv(rows))
    print(f"wrote {csv_path}", file=sys.stderr)
    return EXIT_SAFE


def main(argv: list[str] | None = None) -> int:
    parser = build_cli()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -2..3 for an option unless joined
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--nondet" and argv[i][:1] == "-" and \
                argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"--nondet={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
