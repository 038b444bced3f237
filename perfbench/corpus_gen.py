"""Seeded random generator for small concurrent programs.

Emits source text that always parses: balanced lock pairs, counted loops,
creates before joins, nondet reads only at the top of main (so recorded
values pin cleanly during sequentialization).

Frozen copy of the scheme in tests/randprog.py. The `corpus` workload draws
from this copy so that editing the test generator cannot change what the
benchmark measures; keep it byte-stable.
"""

from __future__ import annotations

import random


class ProgramGen:
    def __init__(self, rng: random.Random, max_threads: int = 2,
                 max_stmts: int = 6, shared_vars: int = 2,
                 with_locks: bool = True, with_loops: bool = True,
                 with_div: bool = False):
        self.rng = rng
        self.max_threads = max_threads
        self.max_stmts = max_stmts
        self.shared = [f"g{i}" for i in range(shared_vars)]
        self.with_locks = with_locks
        self.with_loops = with_loops
        self.with_div = with_div

    def source(self) -> str:
        rng = self.rng
        n_threads = rng.randint(1, self.max_threads)
        use_lock = self.with_locks and rng.random() < 0.5
        lines = [f"int {v} = {rng.randint(0, 2)};" for v in self.shared]
        if use_lock:
            lines.append("pthread_mutex_t m;")
        for i in range(n_threads):
            lines.append(f"pthread_t h{i};")
        for i in range(n_threads):
            lines.append("")
            lines.append(f"void worker{i}() {{")
            lines.extend(self._body(i, use_lock))
            lines.append("}")
        lines.append("")
        lines.append("int main() {")
        if rng.random() < 0.4:
            lines.append(f"  {rng.choice(self.shared)} = nondet();")
        for i in range(n_threads):
            lines.append(f"  pthread_create(h{i}, worker{i});")
        join = rng.random() < 0.6
        if join:
            for i in range(n_threads):
                lines.append(f"  pthread_join(h{i});")
        lines.append(f"  assert({self._predicate()});")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _body(self, tid: int, use_lock: bool) -> list[str]:
        rng = self.rng
        budget = rng.randint(2, self.max_stmts)
        out: list[str] = []
        locked = False
        while budget > 0:
            roll = rng.random()
            if use_lock and not locked and roll < 0.2 and budget >= 3:
                out.append("  pthread_mutex_lock(m);")
                locked = True
                budget -= 1
            elif locked and (roll < 0.3 or budget <= 1):
                out.append("  pthread_mutex_unlock(m);")
                locked = False
                budget -= 1
            elif self.with_loops and roll < 0.35 and budget >= 4 \
                    and not any("while" in s for s in out):
                var = f"i{tid}"
                trips = rng.randint(1, 2)
                out.append(f"  int {var};")
                out.append(f"  {var} = 0;")
                out.append(f"  while ({var} < {trips}) {{")
                out.append(f"    {self._update()}")
                out.append(f"    {var} = {var} + 1;")
                out.append("  }")
                budget -= 4
            elif roll < 0.5:
                cond = self._predicate()
                out.append(f"  if ({cond}) {{")
                out.append(f"    {self._update()}")
                out.append("  }")
                budget -= 2
            else:
                out.append(f"  {self._update()}")
                budget -= 1
        if locked:
            out.append("  pthread_mutex_unlock(m);")
        return out

    def _update(self) -> str:
        rng = self.rng
        target = rng.choice(self.shared)
        source = rng.choice(self.shared)
        kind = rng.random()
        if self.with_div and kind < 0.1:
            return f"{target} = {rng.randint(1, 6)} / {source};"
        if kind < 0.4:
            return f"{target} = {target} + {rng.randint(1, 3)};"
        if kind < 0.6:
            return f"{target} = {source} - {rng.randint(0, 2)};"
        if kind < 0.8:
            return f"{target} = {source} * {rng.randint(0, 2)};"
        return f"{target} = {rng.randint(0, 4)};"

    def _predicate(self) -> str:
        rng = self.rng
        v = rng.choice(self.shared)
        op = rng.choice(["==", "!=", "<", "<="])
        return f"{v} {op} {rng.randint(0, 5)}"


def generate_source(seed: int, **kwargs) -> str:
    return ProgramGen(random.Random(seed), **kwargs).source()
