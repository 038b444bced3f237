import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mcfl.parser import parse
from mcfl.verifier import VerifierConfig

BENCH_DIR = Path(__file__).parent.parent / "src" / "mcfl" / "benchmarks"
DOCS_DIR = Path(__file__).parent.parent / "docs"


@pytest.fixture(scope="session")
def default_config() -> VerifierConfig:
    return VerifierConfig(context_bound=4, loop_bound=3,
                          nondet_domain=(0, 8))


@pytest.fixture(scope="session")
def single_fault_source() -> str:
    return (BENCH_DIR / "single_fault.mc").read_text()


@pytest.fixture(scope="session")
def single_fault_program(single_fault_source):
    return parse(single_fault_source)


def bench_source(name: str) -> str:
    return (BENCH_DIR / f"{name}.mc").read_text()


def doc_example(name: str) -> str:
    """The first JSON example of docs/<name>.md."""
    text = (DOCS_DIR / f"{name}.md").read_text()
    return text.split("```json\n", 1)[1].split("```", 1)[0]


def bign_source(n: int) -> str:
    """bigN: one racer adds to x once, main adds to it n times, then asserts
    the total is not reached. Every increment is a repair, so the diagnosis
    model has n + 1 eligible lines and n + 1 diagnoses."""
    lines = ["int x = 0;", "pthread_t h;", "", "void racer() {",
             "  x = x + 1;", "}", "", "int main() {",
             "  pthread_create(h, racer);"]
    lines += ["  x = x + 1;"] * n
    lines += [f"  assert(x != {n + 1});", "}"]
    return "\n".join(lines) + "\n"


def threads_source(n: int) -> str:
    """n created threads, of which only the last adds 1 to x, and main
    asserts x == 0: the failing schedule runs main, threads 1 and 2, the
    last thread and main again."""
    lines = ["int x = 0;", *(f"pthread_t h{k};" for k in range(1, n + 1))]
    lines += [f"void w{k}() {{ x = x + {int(k == n)}; }}"
              for k in range(1, n + 1)]
    lines += ["int main() {",
              *(f"  pthread_create(h{k}, w{k});" for k in range(1, n + 1)),
              "  assert(x == 0);", "}"]
    return "\n".join(lines) + "\n"
