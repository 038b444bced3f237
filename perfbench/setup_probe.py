"""One set-up sample, taken in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py corpus 1

Imports mcfl from this checkout's src/ and generates the workload's sources
for the seed, then prints the seconds that took. It imports nothing else
first, so the import is paid cold, as `mcfl localize` pays it.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import mcfl  # noqa: E402,F401 - timed on purpose
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(perf_counter() - t0)
