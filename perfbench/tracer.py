"""Span tracer for the localize pipeline, built from the benchmark's files.

`Tracer` replaces the module-level names that `localize` reaches with
wrappers that record one span per call: name, start, end, parent span and
program id. Spans stay in memory until the run ends. Leaving the `with`
block puts every original name back. Tracing inside the verifier (compile,
search, counterexample building) needs hooks in the program itself and is
not done here.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from time import perf_counter

# module -> names looked up at call time by localize and its callees
TARGETS = {
    "mcfl.localizer": ("verify", "parse", "pretty_print", "extract_schedule",
                       "sequentialize", "instrument", "block_diag",
                       "validate_diag"),
    "mcfl.instrumenter": ("parse", "pretty_print"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    program: str
    # verify only: whether it ran on localize's input program, and the
    # states its result reports (filled on safe or exhausted outcomes)
    on_input: bool = False
    states: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.program = ""
        self.input_program = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open
        is_verify = name == "verify"

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                        self.program)
            if is_verify:
                span.on_input = args[0] is self.input_program
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if is_verify:
                span.states = result.states
            return result

        return traced

    def write(self, path, origin: float) -> None:
        """Writes one JSON object per span, times relative to origin."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "program": span.program,
                    "on_input": span.on_input,
                    "states": span.states,
                }) + "\n")


def self_seconds(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Self time per span name over spans[first:]: each span's duration
    minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans[first:]:
        if span.parent >= first:
            child_time[span.parent] += span.seconds
    totals: dict[str, float] = {}
    for i in range(first, len(spans)):
        span = spans[i]
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds \
            - child_time[i]
    return totals
