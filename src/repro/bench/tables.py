"""Headline comparison table of Section V of the paper.

The paper quotes two headline numbers in the text of Section V:

* LS64, 256 tasks: baseline 1121.79 s vs new algorithm 4.13 s — 270× faster;
* NL64, 384 tasks: baseline 535.24 s vs new algorithm 0.90 s — 593× faster.

Those absolute numbers compare the authors' *C++* baseline against their
Python implementation of the new algorithm on their machine; this harness
re-measures both data points with both algorithms implemented in Python on the
current machine, so the speedup it reports isolates the algorithmic gap.  The
paper's reference values are kept in :data:`PAPER_HEADLINE` so reports can
print both side by side.

When NumPy is importable the table also reports, in its own column, the
fixed-point baseline on the vector backend (:mod:`repro.core.vector`).  That
time is not like for like — the speedup column never uses it — but it is the
fastest baseline this reproduction ships, so it is the bar the incremental
algorithm has to clear in practice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import analyze, numpy_available
from ..generators import fixed_ls_workload, fixed_nl_workload
from ..viz.report import format_table
from .runner import NEW_ALGORITHM, OLD_ALGORITHM

__all__ = ["HeadlineRow", "PAPER_HEADLINE", "run_headline_case", "run_headline_table", "format_headline_table"]


@dataclass(frozen=True)
class HeadlineRow:
    """One measured headline case."""

    label: str
    task_count: int
    new_seconds: float
    old_seconds: float
    new_makespan: int
    old_makespan: int
    #: the baseline on the vector backend; ``None`` when NumPy is not importable
    vector_seconds: Optional[float] = None

    @property
    def speedup(self) -> float:
        return self.old_seconds / self.new_seconds if self.new_seconds > 0 else float("inf")


#: the paper's reference values: label -> (tasks, old seconds, new seconds, speedup)
PAPER_HEADLINE: Dict[str, Tuple[int, float, float, float]] = {
    "LS64": (256, 1121.79, 4.13, 270.0),
    "NL64": (384, 535.24, 0.90, 593.0),
}


def run_headline_case(label: str, *, task_count: Optional[int] = None, seed: int = 2020) -> HeadlineRow:
    """Measure one headline case (``label`` is ``"LS64"`` or ``"NL64"``)."""
    reference = PAPER_HEADLINE[label.upper()]
    size = task_count if task_count is not None else reference[0]
    seed = seed * 1_000_003 + size
    if label.upper() == "LS64":
        workload = fixed_ls_workload(size, 64, seed=seed)
    elif label.upper() == "NL64":
        workload = fixed_nl_workload(size, 64, seed=seed)
    else:
        raise KeyError(f"unknown headline case {label!r}; expected LS64 or NL64")
    problem = workload.to_problem()

    start = time.perf_counter()
    new_schedule = analyze(problem, NEW_ALGORITHM)
    new_seconds = time.perf_counter() - start

    start = time.perf_counter()
    # like for like: the baseline on the same pure-Python backend as Algorithm 1
    old_schedule = analyze(problem, OLD_ALGORITHM, backend="python")
    old_seconds = time.perf_counter() - start

    vector_seconds = None
    if numpy_available():
        start = time.perf_counter()
        analyze(problem, OLD_ALGORITHM, backend="vector")
        vector_seconds = time.perf_counter() - start

    return HeadlineRow(
        label=label.upper(),
        task_count=size,
        new_seconds=new_seconds,
        old_seconds=old_seconds,
        new_makespan=new_schedule.makespan,
        old_makespan=old_schedule.makespan,
        vector_seconds=vector_seconds,
    )


def run_headline_table(*, seed: int = 2020) -> List[HeadlineRow]:
    """Measure both headline cases at the paper's task counts."""
    return [run_headline_case(label, seed=seed) for label in PAPER_HEADLINE]


def format_headline_table(rows: List[HeadlineRow]) -> str:
    """Render measured-vs-paper headline numbers as a fixed-width table."""
    table_rows: List[List[str]] = []
    for row in rows:
        paper = PAPER_HEADLINE.get(row.label)
        paper_speedup = f"{paper[3]:.0f}x" if paper else "-"
        paper_times = f"{paper[1]:.1f}s / {paper[2]:.2f}s" if paper else "-"
        table_rows.append(
            [
                row.label,
                str(row.task_count),
                f"{row.old_seconds:.3f}",
                f"{row.new_seconds:.3f}",
                f"{row.speedup:.1f}x",
                f"{row.vector_seconds:.3f}" if row.vector_seconds is not None else "-",
                paper_times,
                paper_speedup,
            ]
        )
    header = [
        "case",
        "tasks",
        "old (s)",
        "new (s)",
        "speedup",
        "old vector (s)",
        "paper old/new",
        "paper speedup",
    ]
    note = (
        "note: the paper compares a C++ baseline against the Python incremental algorithm;\n"
        "here both are Python, so the measured speedup isolates the algorithmic gap only.\n"
        "'old vector' is the same baseline on the NumPy backend ('-' without NumPy); it is\n"
        "not like for like and no speedup is derived from it."
    )
    return format_table(header, table_rows) + "\n" + note
