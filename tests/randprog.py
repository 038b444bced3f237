"""Seeded random generator for small concurrent programs.

Emits source text that always parses: balanced lock pairs, counted loops,
creates before joins, nondet reads only at the top of main (so recorded
values pin cleanly during sequentialization).
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


def generate_callee_source(seed: int) -> str:
    """A single-thread program whose int functions each hold a nondet read,
    a while loop that may run past the unwind bound, an assert and a
    division that may be by zero; a function may call earlier ones, so some
    calls nest. Arguments may read nondet or divide too."""
    rng = random.Random(seed)
    lines = [f"int g = {rng.randint(0, 3)};"]
    arity = []
    for k in range(rng.randint(1, 3)):
        params = ["a", "b"][:rng.randint(1, 2)]
        stmts = [
            f"t = t + nondet(0, {rng.randint(1, 3)});",
            "while (i < t) {\n    g = g + 1;\n    i = i + 1;\n  }",
            f"assert(t != {rng.randint(0, 9)});",
            f"t = {rng.randint(1, 6)} / (t - {params[-1]} + "
            f"{rng.randint(0, 3)});",
        ]
        if k > 0:
            stmts.append(f"t = {_call(rng, arity, 't')};")
        rng.shuffle(stmts)
        lines.append(f"int f{k}({', '.join(f'int {p}' for p in params)}) {{")
        lines.append("  int t = a;")
        lines.append("  int i = 0;")
        lines.extend(f"  {s}" for s in stmts)
        lines.append(f"  return t + {rng.randint(0, 2)};")
        lines.append("}")
        arity.append(len(params))
    lines.append("int main() {")
    lines.append("  int x = 0;")
    for _ in range(rng.randint(1, 2)):
        lines.append(f"  x = {_call(rng, arity, 'x')};")
        lines.append("  g = g + x;")
    lines.append(f"  assert(x != {rng.randint(-2, 4)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _call(rng: random.Random, arity: list[int], var: str) -> str:
    k = rng.randrange(len(arity))
    choices = [var, "g", f"{var} + {rng.randint(1, 2)}",
               f"nondet(0, {rng.randint(1, 2)})",
               f"{rng.randint(2, 6)} / (nondet(0, 2) - 1)"]
    args = [rng.choice(choices) for _ in range(arity[k])]
    return f"f{k}({', '.join(args)})"
