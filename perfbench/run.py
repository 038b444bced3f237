"""The localize benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. It imports `mcfl` from that checkout's
`src/` and drives `parse` + `localize` in a closed loop: one client, one
process, no threads, one program at a time, at the CLI defaults (context
bound 4, unwind 3, nondet 0..8, 200k states), the way a developer runs
`mcfl localize`. It makes passes over the workload's programs until
--seconds are used up (at least two), checks every report, and prints each
metric by name and unit. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 measures untraced and reports the end-to-end metrics.
--trace 1 alternates untraced and traced passes, reports the per-layer
metrics from the traced ones and writes the spans to perfbench/out/.

A program's latency is its median over the run's passes; localize_s is the
sum of those medians, i.e. one pass with per-program noise filtered out.
setup_s is the median of 15 fresh-process set-up samples, taken between
the untraced passes and not counted in --seconds.
Exits 2 without a result when mcfl cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, self_seconds
from workloads import STRAIGHTLINE_N, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 15
MIN_PASSES = 2


def import_mcfl():
    """Imports mcfl from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcfl
    if Path(mcfl.__file__).resolve().parent != SRC / "mcfl":
        raise ImportError(f"mcfl resolved to {mcfl.__file__}, not {SRC}")
    return mcfl


def cli_config():
    from mcfl.verifier import VerifierConfig
    return VerifierConfig(context_bound=4, loop_bound=3, nondet_domain=(0, 8),
                          deadlock_check=False, max_states=200_000)


class SetupSamples:
    """Fresh-process set-up samples (setup_probe.py), so that the import is
    paid cold each time. They are taken between passes, spread over the run
    like the passes are, and the run reports their median."""

    def __init__(self, workload: str, seed: int, count: int = SETUP_SAMPLES):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"),
                     workload, str(seed)]
        self.count = count
        self.samples: list[float] = []

    def take_until(self, share: float) -> float:
        """Samples until `share` of them are taken; returns seconds spent."""
        t0 = perf_counter()
        while len(self.samples) < min(self.count, int(self.count * share)):
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=60, check=True)
            self.samples.append(float(done.stdout.strip().splitlines()[-1]))
        return perf_counter() - t0

    def median(self) -> float:
        return statistics.median(self.samples)


def canonical(result) -> str:
    """The timing-free `--json` report, or the exception a call raised."""
    from mcfl.localizer import report_to_json
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}\n"
    doc = json.loads(report_to_json(result))
    del doc["timings"]
    return json.dumps(doc, indent=2) + "\n"


def check_report(workload: str, result) -> str | None:
    """The per-workload property known by construction, or None."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if workload == "straightline":
        want = STRAIGHTLINE_N + 1
        validated = sum(d.oracle_validated for d in result.diagnoses)
        if result.status != "faults-found" or \
                result.found_error_count != want or validated != want:
            return (f"{result.status} with {validated} of "
                    f"{result.found_error_count} diagnoses validated, "
                    f"want faults-found with {want} validated")
    if workload == "interleave" and result.status != "no-counterexample":
        return f"{result.status}, want no-counterexample"
    return None


def oracle_input(result):
    """What the soundness check needs from a report: True or False when
    that is already known, else the sequential program and the diagnosed
    lines to test against the brute-force oracle."""
    if isinstance(result, Exception):
        return False
    if result.status != "faults-found":
        return True
    if not all(d.oracle_validated for d in result.diagnoses):
        return False
    return result.sequential, {d.seq_line for d in result.diagnoses}


def is_sound(oracle_in, config) -> bool:
    """Every diagnosis of a faults-found report is validated and lies in
    the brute-force oracle's line set."""
    from mcfl.localizer import brute_force_diagnoses
    if isinstance(oracle_in, bool):
        return oracle_in
    sequential, diagnosed = oracle_in
    try:
        found = brute_force_diagnoses(sequential, config)
    except Exception:  # noqa: BLE001 - an oracle failure is not sound
        return False
    return diagnosed <= {line for line, _ in found}


class Run:
    """The passes of one benchmark run and the checks on their reports."""

    def __init__(self, workload: str, programs: list[tuple[str, str]]):
        from mcfl.localizer import localize
        from mcfl.parser import parse
        self.workload = workload
        self.programs = programs
        self.config = cli_config()
        self.parse = parse
        self.localize = localize
        self.tracer = Tracer()
        # from the first pass only, keeping memory near the program's own
        self.canonical: list[str] = []
        self.oracle_inputs: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies = {False: [], True: []}  # traced -> per-pass lists
        self.layers: list[dict[str, float]] = []  # per traced pass

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer
        parse, localize = self.parse, self.localize
        if traced:
            parse = tracer.wrap("parse", parse)
            localize = tracer.wrap("localize", localize)
        first_span = len(tracer.spans)
        latencies, results = [], []
        with tracer if traced else contextlib.nullcontext():
            for pid, source in self.programs:
                tracer.program = pid
                t0 = perf_counter()
                try:
                    program = parse(source)
                    tracer.input_program = program
                    result = localize(program, self.config)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    result = exc
                latencies.append(perf_counter() - t0)
                results.append(result)
        tracer.input_program = None
        self.latencies[traced].append(latencies)
        self._check(results)
        if traced:
            self.layers.append(
                layer_metrics(tracer.spans, first_span, results))

    def _check(self, results: list) -> None:
        self.attempted += len(results)
        self.failed += sum(isinstance(r, Exception) for r in results)
        texts = [canonical(r) for r in results]
        if not self.canonical:
            self.canonical = texts
            self.oracle_inputs = [oracle_input(r) for r in results]
            for (pid, _), result in zip(self.programs, results):
                problem = check_report(self.workload, result)
                if problem:
                    self.problems.append(f"{pid}: {problem}")
            return
        for (pid, _), text, want in zip(self.programs, texts,
                                        self.canonical):
            if text != want:
                self.problems.append(f"{pid}: report differs between passes")

    def measure(self, seconds: float, trace: bool,
                setup: SetupSamples | None = None) -> float:
        """Passes until the next one would overrun; returns seconds used.
        Set-up samples are taken between passes, outside those seconds."""
        kinds = [False, True] if trace else [False]
        start = perf_counter()
        paused = 0.0
        last: dict[bool, float] = {}
        done = 0
        while True:
            traced = kinds[done % len(kinds)]
            t0 = perf_counter()
            self.one_pass(traced)
            last[traced] = perf_counter() - t0
            done += 1
            following = kinds[done % len(kinds)]
            elapsed = perf_counter() - start - paused
            over = done >= MIN_PASSES and \
                elapsed + last.get(following, 0.0) > seconds
            if setup is not None:
                paused += setup.take_until(1.0 if over else elapsed / seconds)
            if over:
                return elapsed

    def program_medians(self, traced: bool) -> list[float]:
        passes = self.latencies[traced]
        return [statistics.median(p[i] for p in passes)
                for i in range(len(self.programs))]

    def digest(self) -> str:
        """sha256 of the first pass's timing-free reports, in program-id
        order so that it does not depend on the seed's program order."""
        h = hashlib.sha256()
        for (pid, _), text in sorted(zip(self.programs, self.canonical)):
            h.update(f"{pid}\n{text}".encode())
        return h.hexdigest()


def layer_metrics(spans, first: int, results) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass (spans[first:])."""
    from mcfl.localizer import DiagnosisReport
    from mcfl.syntax import line_table
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    timed_states_s = 0.0
    for span in spans[first:]:
        name, seconds = span.name, span.seconds
        if name == "parse":
            m["parser.calls"] += 1
            m["parser.s"] += seconds
        elif name == "pretty_print":
            m["syntax.pretty_print.calls"] += 1
            m["syntax.pretty_print.s"] += seconds
        elif name == "verify" and span.on_input:
            m["verifier.input.calls"] += 1
            m["verifier.input.s"] += seconds
            m["verifier.input.states"] += span.states
            if span.states:
                timed_states_s += seconds
        elif name == "verify" and span.parent >= 0 and \
                spans[span.parent].name == "localize":
            m["localizer.diagnose.calls"] += 1
            m["localizer.diagnose.s"] += seconds
        elif name in ("extract_schedule", "sequentialize"):
            m["sequentializer.s"] += seconds
        elif name == "instrument":
            m["instrumenter.instrument.s"] += seconds
        elif name == "block_diag":
            m["instrumenter.block_diag.calls"] += 1
            m["instrumenter.block_diag.s"] += seconds
        elif name == "validate_diag":
            m["localizer.validate.calls"] += 1
            m["localizer.validate.s"] += seconds
    m["localizer.self_s"] = self_seconds(spans, first).get("localize", 0.0)
    if timed_states_s:
        m["verifier.input.states_per_s"] = \
            m["verifier.input.states"] / timed_states_s
    validated = 0
    for result in results:
        if not isinstance(result, DiagnosisReport):
            continue
        if result.sequential is not None:
            m["sequentializer.seq_lines"] += \
                len(line_table(result.sequential.program))
        if result.instrumented is not None:
            m["instrumenter.diag_domain"] += \
                len(result.instrumented.diag_domain)
        m["localizer.diagnoses"] += len(result.diagnoses)
        validated += sum(d.oracle_validated for d in result.diagnoses)
    if m["localizer.diagnoses"]:
        m["localizer.diagnose.calls_per_diagnosis"] = \
            m["localizer.diagnose.calls"] / m["localizer.diagnoses"]
        m["localizer.validated_frac"] = validated / m["localizer.diagnoses"]
    return m


# per-layer metric -> unit, in report order; *.calls and the other counts
# are deterministic and must repeat exactly across traced passes
LAYER_UNITS = {
    "parser.calls": "count",
    "parser.s": "s",
    "syntax.pretty_print.calls": "count",
    "syntax.pretty_print.s": "s",
    "verifier.input.calls": "count",
    "verifier.input.s": "s",
    "verifier.input.states": "count",
    "verifier.input.states_per_s": "1/s",
    "sequentializer.s": "s",
    "sequentializer.seq_lines": "count",
    "instrumenter.instrument.s": "s",
    "instrumenter.diag_domain": "count",
    "instrumenter.block_diag.calls": "count",
    "instrumenter.block_diag.s": "s",
    "localizer.diagnose.calls": "count",
    "localizer.diagnose.s": "s",
    "localizer.diagnoses": "count",
    "localizer.diagnose.calls_per_diagnosis": "ratio",
    "localizer.validate.calls": "count",
    "localizer.validate.s": "s",
    "localizer.validated_frac": "fraction",
    "localizer.self_s": "s",
}
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit == "count"]


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float
               ) -> dict[str, tuple[float, str]]:
    medians = run.program_medians(False)
    sound = sum(is_sound(o, run.config) for o in run.oracle_inputs)
    return {
        "localize_s": (sum(medians), "s"),
        "localize_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "localize_p90_ms": (p90(medians) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sound_frac": (sound / len(run.oracle_inputs), "fraction"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    for name in COUNTS:
        if len({layers[name] for layers in run.layers}) > 1:
            run.problems.append(f"{name} differs between traced passes")
    metrics = {name: (statistics.median(p[name] for p in run.layers), unit)
               for name, unit in LAYER_UNITS.items()}
    traced = sum(run.program_medians(True))
    untraced = sum(run.program_medians(False))
    metrics["trace.localize_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "fraction")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_mcfl()
    except ImportError as exc:
        print(f"perfbench: cannot import mcfl from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    setup = None if args.trace else SetupSamples(args.workload, args.seed)
    programs = WORKLOADS[args.workload](args.seed)
    run = Run(args.workload, programs)
    origin = perf_counter()
    used = run.measure(args.seconds, bool(args.trace), setup)
    if args.trace:
        metrics = per_layer(run)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(trace_path, origin)
    else:
        peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(run, setup.median(), peak_rss_mb)

    passes = len(run.latencies[False]) + len(run.latencies[True])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(programs)} programs, {passes} passes in {used:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    frac = run.failed / run.attempted
    print(f"  {'failed_frac':40s} {frac:14.6g} fraction "
          f"({run.failed} of {run.attempted} calls raised)")
    print(f"  report digest {run.digest()}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    for problem in run.problems:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
