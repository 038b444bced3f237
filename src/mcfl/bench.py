"""Benchmark sweep: localize every .mc file in a directory and tabulate
deadlock flag, found/actual error counts, per-stage times and usefulness."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

from .localizer import brute_force_diagnoses, localize
from .parser import ParseError, parse
from .verifier import ModelError, VerifierConfig

_STAGES = ("verify", "sequentialize", "diagnose", "validate")


@dataclass
class BenchRow:
    name: str
    status: str
    deadlock: int | None = None
    fe: int | None = None
    ae: int | None = None
    r: int | None = None
    timings: dict[str, float] = field(default_factory=dict)
    error: str = ""

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())


def run_bench(directory: str | Path,
              config: VerifierConfig) -> list[BenchRow]:
    """One row per .mc entry, ordered by name; failures never abort the
    sweep: an entry that cannot be read as UTF-8 text, such as a
    directory, gives an error row, as a parse error does."""
    rows: list[BenchRow] = []
    for path in sorted(Path(directory).glob("*.mc")):
        name = path.stem
        try:
            program = parse(path.read_text())
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            rows.append(BenchRow(name, "error", error=str(exc)))
            continue
        try:
            report = localize(program, config)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            rows.append(BenchRow(name, "error",
                                 error=f"{type(exc).__name__}: {exc}"))
            continue
        ae = None
        if report.sequential is not None:
            try:
                ae = len(brute_force_diagnoses(report.sequential, config))
            except ModelError:
                pass  # the oracle ran out or failed: the row has no ae
        useful = 1 if (report.status == "faults-found"
                       and report.diagnoses
                       and all(d.oracle_validated
                               for d in report.diagnoses)) else 0
        rows.append(BenchRow(
            name=name,
            status=report.status,
            deadlock=1 if report.deadlock else 0,
            fe=report.found_error_count,
            ae=ae,
            r=useful,
            timings=dict(report.timings),
        ))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    out = io.StringIO()
    headers = ["name", "deadlock", "fe", "ae", "r", "status"]
    headers += [f"vt_{s}" for s in _STAGES] + ["vt_total"]
    out.write(",".join(headers) + "\n")
    for row in rows:
        cells = [
            row.name,
            "" if row.deadlock is None else str(row.deadlock),
            "" if row.fe is None else str(row.fe),
            "" if row.ae is None else str(row.ae),
            "" if row.r is None else str(row.r),
            row.status,
        ]
        for stage in _STAGES:
            value = row.timings.get(stage)
            cells.append("" if value is None else f"{value:.4f}")
        cells.append(f"{row.total_time:.4f}")
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def rows_to_table(rows: list[BenchRow]) -> str:
    if not rows:
        return "no .mc files found\n"
    lines = [f"{'F':24s} {'D':>2s} {'FE/AE':>7s} {'VT':>8s} {'R':>2s}  "
             f"status"]
    for row in rows:
        d = "-" if row.deadlock is None else str(row.deadlock)
        fe = "-" if row.fe is None else str(row.fe)
        ae = "-" if row.ae is None else str(row.ae)
        r = "-" if row.r is None else str(row.r)
        note = row.status if not row.error else f"error: {row.error}"
        lines.append(
            f"{row.name:24s} {d:>2s} {fe + '/' + ae:>7s} "
            f"{row.total_time:8.3f} {r:>2s}  {note}")
    return "\n".join(lines) + "\n"
