"""Pinned outputs: `verify`, `localize` and the `mcfl sequentialize` and
`mcfl instrument` commands must keep producing the exact texts recorded in
pinned_outputs.json, so a refactor can show that it changes no result.

Each program id maps to the sha256 of five texts. Four are at CLI
defaults: the counterexample JSON from `verify` (or its outcome when there
is no violation), the timing-free `report_to_json(localize(...))`, and for
each of the two commands its exit status and standard output. The fifth is
the timing-free `localize` report at SECOND_CONFIG, the configuration
`--nondet -2..3 --context-bound 2`: a narrow domain that starts below
zero, and fewer context switches than the default four.

Each id also maps to the search counts of the `localize` call at CLI
defaults, read from the searches it runs: the states and pruned states of
its first verify (deadlock check on), and the states of its diagnosis
search, null where it runs none. A refactor that keeps every text can
still change how much the searches do, and these pins show it.

The programs are the bundled ports, randprog programs with division,
three-thread randprog programs, callee programs (their calls are unwound
into copies) and a program with nothing to instrument.

Regenerate only when an output change is intended, and say why:

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/pinned_outputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mcfl import localizer
from mcfl.cli import main
from mcfl.localizer import localize, report_to_json
from mcfl.parser import parse
from mcfl.verifier import VerifierConfig, counterexample_to_json, verify

import randprog

BENCH_DIR = Path(__file__).parent.parent / "src" / "mcfl" / "benchmarks"
PINNED = Path(__file__).parent / "pinned_outputs.json"
RANDPROG_SEEDS = range(50)
THREE_THREAD_SEEDS = range(20)
CALLEE_SEEDS = range(20)
# a failing program with no line eligible for diagnosis: `mcfl instrument`
# exits 2 and `localize` is inconclusive
NOTHING_ELIGIBLE = "int x = 0; int main() { assert(x == 1); }\n"
SECOND_CONFIG = VerifierConfig(context_bound=2, nondet_domain=(-2, 3))


def _sources() -> dict[str, str]:
    sources = {f"port:{p.stem}": p.read_text()
               for p in sorted(BENCH_DIR.glob("*.mc"))}
    for seed in RANDPROG_SEEDS:
        sources[f"randprog:{seed}"] = randprog.generate_source(
            seed, with_div=True)
    for seed in THREE_THREAD_SEEDS:
        sources[f"threads3:{seed}"] = randprog.generate_source(
            seed, max_threads=3)
    for seed in CALLEE_SEEDS:
        sources[f"callee:{seed}"] = randprog.generate_callee_source(seed)
    sources["case:nothing-eligible"] = NOTHING_ELIGIBLE
    return sources


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _localized(program, config: VerifierConfig, searches=None) -> str:
    """The sha256 of localize's timing-free report at config; localize's
    verify results, in the order it runs them, are appended to searches
    when given."""
    real = localizer.verify

    def recording(*args, **kwargs):
        searches.append(real(*args, **kwargs))
        return searches[-1]
    if searches is not None:
        localizer.verify = recording
    try:
        return _sha(report_to_json(replace(localize(program, config),
                                           timings={})))
    finally:
        localizer.verify = real


def digests(source: str) -> dict[str, str | int | None]:
    program = parse(source)
    config = VerifierConfig()
    result = verify(program, config)
    verified = counterexample_to_json(result.counterexample) \
        if result.counterexample is not None else result.outcome
    searches: list = []
    found = {"verify": _sha(verified),
             "localize": _localized(program, config, searches),
             "localize_second_config": _localized(program, SECOND_CONFIG)}
    first, *diagnosis = searches
    found["first_verify_states"] = first.states
    found["first_verify_pruned"] = first.pruned
    found["diagnose_states"] = diagnosis[0].states if diagnosis else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.mc"
        path.write_text(source)
        for command in ("sequentialize", "instrument"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, str(path), "--max-states",
                             str(config.max_states)])
            found[command] = _sha(f"exit {code}\n{out.getvalue()}")
    return found


SOURCES = _sources()


@pytest.mark.parametrize("program_id", list(SOURCES))
def test_outputs_match_pins(program_id):
    pinned = json.loads(PINNED.read_text())[program_id]
    assert digests(SOURCES[program_id]) == pinned


def test_pins_cover_every_program():
    assert sorted(json.loads(PINNED.read_text())) == sorted(SOURCES)


if __name__ == "__main__":
    print(json.dumps({pid: digests(src) for pid, src in SOURCES.items()},
                     indent=2, sort_keys=True))
