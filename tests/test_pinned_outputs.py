"""Pinned outputs: `verify` and `localize` must keep producing the exact
texts recorded in pinned_outputs.json, so a refactor can show that it
changes no result.

Each program id maps to the sha256 of two texts, both at CLI defaults:
the counterexample JSON from `verify` (or its outcome when there is no
violation), and the timing-free `report_to_json(localize(...))`. The
programs are the bundled ports and randprog programs with division.

Regenerate only when an output change is intended, and say why:

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/pinned_outputs.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mcfl.localizer import localize, report_to_json
from mcfl.parser import parse
from mcfl.verifier import VerifierConfig, counterexample_to_json, verify

import randprog

BENCH_DIR = Path(__file__).parent.parent / "src" / "mcfl" / "benchmarks"
PINNED = Path(__file__).parent / "pinned_outputs.json"
RANDPROG_SEEDS = range(50)


def _sources() -> dict[str, str]:
    sources = {f"port:{p.stem}": p.read_text()
               for p in sorted(BENCH_DIR.glob("*.mc"))}
    for seed in RANDPROG_SEEDS:
        sources[f"randprog:{seed}"] = randprog.generate_source(
            seed, with_div=True)
    return sources


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(source: str) -> dict[str, str]:
    program = parse(source)
    config = VerifierConfig()
    result = verify(program, config)
    verified = counterexample_to_json(result.counterexample) \
        if result.counterexample is not None else result.outcome
    report = localize(program, config)
    localized = report_to_json(replace(report, timings={}))
    return {"verify": _sha(verified), "localize": _sha(localized)}


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
