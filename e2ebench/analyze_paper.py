"""``analyze-paper``: in-process incremental analysis of the paper's inputs.

Fixed-LS DAGs (layer size 64) and Fixed-NL DAGs (32 layers) from
``repro.generators`` at 256 to 2048 tasks on the default 16-core platform are
built in set-up; a closed loop on one thread analyses them with
``analyze(problem, "incremental")``.  At 2048 tasks the two families coincide
(32 layers of 64 tasks), so that size is built once.  One pass of
``analyze(problem, "fixedpoint")`` over the inputs of at most 1024 tasks gives
the fixed-point baseline on the same inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

from repro import analyze
from repro.core.kernel import compilation_count
from repro.core.vector import generation_pass_count, vector_sweep_count

import harness
from harness import Op

NAME = "analyze-paper"
WHY = (
    "core.incremental, its arbiter IBUS calls and the kernel compile do nearly all "
    "the timed work; io, service and engine are not used, so a compiled-loop change "
    "shows here and a wire-path change moves only setup_s."
)

SIZES = {
    "full": {
        "inputs": [
            ("LS64", 256), ("LS64", 512), ("LS64", 1024), ("LS64", 2048),
            ("NL32", 256), ("NL32", 512), ("NL32", 1024),
        ],
        "fixedpoint_max_tasks": 1024,
        "min_cycles": 6,
    },
    "tiny": {
        "inputs": [("LS8", 32), ("LS8", 64), ("NL4", 32), ("NL4", 64)],
        "fixedpoint_max_tasks": 64,
        "min_cycles": 2,
    },
}


def _fingerprint(schedule: Any) -> tuple:
    stats = schedule.stats
    return (schedule.schedulable, schedule.makespan, stats.cursor_steps, stats.ibus_calls)


class Workload:
    name = NAME
    why = WHY

    def __init__(self, seed: int, size: str, state_dir: Any) -> None:
        self.seed = seed
        self.spec = SIZES[size]
        self.min_cycles = self.spec["min_cycles"]
        self.ops_per_cycle = len(self.spec["inputs"])
        self.problems: List[Any] = []
        self._first_cycle = None
        self._compiles = 0
        self._cycle0_compiles = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> Iterator[None]:
        """Builds the inputs, yielding after each one (the caller times the steps)."""
        inputs = list(self.spec["inputs"])
        random.Random(harness.derive_seed(self.seed, NAME, "order")).shuffle(inputs)
        self.problems = []
        for family, tasks in inputs:
            self.problems.append(harness.paper_problem(family, tasks, self.seed))
            yield

    def close(self) -> None:
        pass

    # -- timed loop -----------------------------------------------------
    def make_cycle(self, cycle: int) -> List[Op]:
        if self._first_cycle is None:
            self._first_cycle = cycle
            self._compiles = compilation_count()
        keep = cycle == self._first_cycle

        def op(problem: Any):
            def run() -> Any:
                schedule = analyze(problem, "incremental")
                return schedule if keep else _fingerprint(schedule)

            return run

        return [
            Op("analyze", op(problem), tasks=problem.task_count, key=index)
            for index, problem in enumerate(self.problems)
        ]

    def on_cycle_end(self, cycle: int, results: List[harness.OpResult]) -> None:
        if cycle == self._first_cycle:
            self._cycle0_compiles = compilation_count() - self._compiles

    # -- after the loop -------------------------------------------------
    def finish(self, loops: List[harness.Loop], gate: harness.Gate) -> Dict[str, Any]:
        """Correctness gate, the fixed-point pass and this workload's counters."""
        first = {
            result.key: result.output
            for loop in loops[:1]
            for result in loop.results
            if result.ok and result.cycle == self._first_cycle
        }
        validated = harness.Validated()
        for key, schedule in sorted(first.items()):
            gate.check(f"incremental schedule of {self.problems[key].name} is schedulable",
                       schedule.schedulable)
            gate.run(f"validate_schedule({self.problems[key].name})",
                     validated.check, key, self.problems[key], schedule)
        for loop in loops:
            for result in loop.results:
                if result.ok and result.cycle != self._first_cycle:
                    gate.check(
                        f"repeat analysis of {self.problems[result.key].name} matches the first",
                        result.output == _fingerprint(first[result.key]),
                    )

        # fixed-point baseline on the same inputs (at most 1024 tasks)
        subset = [
            (key, problem) for key, problem in enumerate(self.problems)
            if problem.task_count <= self.spec["fixedpoint_max_tasks"]
        ]
        sweeps, passes = vector_sweep_count(), generation_pass_count()
        fixedpoint = {}

        def passes_over_subset() -> Iterator[None]:
            for key, problem in subset:
                fixedpoint[key] = analyze(problem, "fixedpoint")
                yield

        elapsed, reference = harness.timed_steps(passes_over_subset())
        subset_tasks = sum(problem.task_count for _, problem in subset)
        backends = sorted({schedule.stats.backend for schedule in fixedpoint.values()})
        incremental = list(first.values())
        for key, schedule in fixedpoint.items():
            gate.run(f"validate_schedule({self.problems[key].name}, fixedpoint)",
                     validated.check, key, self.problems[key], schedule)
            gate.check(f"fixed-point schedule of {self.problems[key].name} is schedulable",
                       schedule.schedulable)

        digest = harness.digest_bytes(
            b"".join(harness.canonical_schedule(first[key]) for key in sorted(first))
            + b"".join(harness.canonical_schedule(fixedpoint[key]) for key in sorted(fixedpoint))
        )
        counters = {
            "core.incremental.cursor_steps": sum(s.stats.cursor_steps for s in incremental),
            "core.incremental.ibus_calls": sum(s.stats.ibus_calls for s in incremental),
            "core.incremental.warm_start_hits": sum(s.stats.warm_start_hits for s in incremental),
            "core.kernel.compilations": self._cycle0_compiles,
            "core.kernel.patches": 0,
            "core.fixedpoint.outer_iterations": sum(
                s.stats.outer_iterations for s in fixedpoint.values()
            ),
            "core.fixedpoint.inner_iterations": sum(
                s.stats.inner_iterations for s in fixedpoint.values()
            ),
            "core.fixedpoint.ibus_calls": sum(s.stats.ibus_calls for s in fixedpoint.values()),
            "core.vector.sweeps": vector_sweep_count() - sweeps,
            "core.vector.generation_passes": generation_pass_count() - passes,
        }
        return {
            "digest": digest,
            "counters": counters,
            "end_to_end": {"fixedpoint_tasks_per_s": subset_tasks / reference},
            "wall": {"fixedpoint_tasks_per_s": subset_tasks / elapsed},
            "provenance": {
                "incremental_backend": ",".join(
                    sorted({schedule.stats.backend for schedule in incremental})
                ),
                "fixedpoint_backend": ",".join(backends),
                "fixedpoint_inputs": [self.problems[key].name for key, _ in subset],
                "inputs": [problem.name for problem in self.problems],
            },
            "probe_inputs": self.problems,
            "probe_outputs": incremental,
        }
