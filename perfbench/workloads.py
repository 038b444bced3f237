"""Seeded workload generators for the localize benchmark.

Each generator takes the seed as its argument and returns a list of
`(program_id, source)` pairs; the same seed always yields the same list.
A workload's cost must not depend on its seed, because the benchmark's
bounds compare runs made with different seeds: seeds vary constants,
operators and order, never the shape that sets how much work a program is.
"""

from __future__ import annotations

import random
from pathlib import Path

from corpus_gen import generate_source

PORTS_DIR = Path(__file__).resolve().parent.parent / "src" / "mcfl" / \
    "benchmarks"

STRAIGHTLINE_N = 100
CORPUS_RANDOM = 300

# Why `straightline`: ROADMAP's bigN family. One racing thread adds to a
# counter once and main adds to it N times, so the concurrent search is
# trivial, while the diagnosis model has N+1 eligible lines. localize then
# runs N+2 verifications of the instrumented model (block and re-verify),
# N+1 block_diag print/parse round trips and N+1 re-parsing validations,
# which is the loop ROADMAP item 2 replaces. Every increment is a repair
# (setting the counter to 0 there avoids the asserted total), so the
# expected report, N+1 validated diagnoses, is known by construction.


def straightline(seed: int, n: int = STRAIGHTLINE_N) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    var = rng.choice(["x", "count", "total", "acc"])
    init = rng.randint(0, 3)
    racer_step = rng.randint(1, 3)
    steps = [rng.randint(1, 3) for _ in range(n)]
    final = init + racer_step + sum(steps)
    lines = [
        f"int {var} = {init};",
        "pthread_t h;",
        "",
        "void racer() {",
        f"  {var} = {var} + {racer_step};",
        "}",
        "",
        "int main() {",
        "  pthread_create(h, racer);",
    ]
    lines += [f"  {var} = {var} + {k};" for k in steps]
    lines += [f"  assert({var} != {final});", "}"]
    return [(f"straightline-n{n}", "\n".join(lines) + "\n")]


# Why `interleave`: lock-correct programs whose first verify explores every
# interleaving (context switches, exhaustive safe search) and finds nothing,
# so localize stops after it and the run times the explorer alone, with no
# diagnosis. Each shape below is sized well under the 200k-state cap at CLI
# defaults (9k to 42k states), so that a pass is short and a run times each
# program several times. The shapes are fixed so that every seed costs the
# same; the seed picks the arithmetic, which never steers control flow, so
# it cannot change the state count.
#
# (thread loop trip counts, extra updates per critical section,
#  nondet read at the top of main: None, or its (lo, hi) range)
INTERLEAVE_SHAPES = [
    ((2, 2), 0, None),
    ((2, 1), 0, (0, 1)),
    ((3, 1), 1, None),
    ((2, 2), 1, None),
    ((2, 2), 2, None),
    ((3, 2), 0, None),
    ((3, 1), 0, (0, 1)),
    ((2, 1), 1, (0, 2)),
    ((2, 2), 0, (0, 1)),
    ((3, 2), 1, None),
    ((2, 2), 1, (0, 1)),
    ((3, 3), 0, None),
    ((1, 1, 1), 0, None),
    ((1, 1, 1), 1, None),
]


def interleave(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [(f"interleave-{i}", _locked_program(rng, *shape))
            for i, shape in enumerate(INTERLEAVE_SHAPES)]


def _locked_program(rng: random.Random, trips: tuple[int, ...], extra: int,
                    nondet: tuple[int, int] | None) -> str:
    step = rng.randint(1, 3)
    lines = ["int c = 0;", f"int s0 = {rng.randint(0, 4)};",
             f"int s1 = {rng.randint(0, 4)};", "pthread_mutex_t m;"]
    lines += [f"pthread_t h{i};" for i in range(len(trips))]
    for i, trip in enumerate(trips):
        lines += ["", f"void w{i}() {{", f"  int i{i};", f"  i{i} = 0;",
                  f"  while (i{i} < {trip}) {{",
                  "    pthread_mutex_lock(m);",
                  f"    c = c + {step};"]
        lines += [f"    {_update(rng)}" for _ in range(extra)]
        lines += ["    pthread_mutex_unlock(m);",
                  f"    i{i} = i{i} + 1;", "  }", "}"]
    lines += ["", "int main() {"]
    if nondet is not None:
        lo, hi = nondet
        lines.append(f"  {rng.choice(['s0', 's1'])} = nondet({lo}, {hi});")
    lines += [f"  pthread_create(h{i}, w{i});" for i in range(len(trips))]
    lines += [f"  pthread_join(h{i});" for i in range(len(trips))]
    lines += [f"  assert(c == {step * sum(trips)});", "}"]
    return "\n".join(lines) + "\n"


def _update(rng: random.Random) -> str:
    target = rng.choice(["s0", "s1"])
    source = rng.choice(["s0", "s1"])
    op = rng.choice(["+", "-", "*"])
    return f"{target} = {source} {op} {rng.randint(1, 3)};"


# Why `corpus`: representative traffic. The paper's 9 bundled ports plus
# 300 random programs drawn as tests/randprog.py draws them with
# with_div=True (seeds 0..299, division-by-zero seeds included on purpose).
# Statuses mix no-counterexample, inconclusive and faults-found, and most
# calls take milliseconds, so per-call fixed costs show in p50. It is the
# only workload where some faults-found reports are unsound, so correctness
# fixes and output drift show here. Per-program cost is heavy-tailed (p50
# about 8 ms, the slowest program about 2 s), so 300 programs drawn afresh
# per seed would move the totals by far more than any regression bound;
# the programs are therefore fixed and the seed sets the order they run in.


def corpus(seed: int) -> list[tuple[str, str]]:
    programs = [(f"port-{path.stem}", path.read_text())
                for path in sorted(PORTS_DIR.glob("*.mc"))]
    programs += [(f"rand-{i}", generate_source(i, with_div=True))
                 for i in range(CORPUS_RANDOM)]
    random.Random(seed).shuffle(programs)
    return programs


WORKLOADS = {
    "straightline": straightline,
    "interleave": interleave,
    "corpus": corpus,
}
