"""``explore-deltas``: in-process design-space exploration over one runtime.

The way users of ``repro-rta search`` and :mod:`repro.analysis` run it: every
operation goes through a :class:`~repro.analysis.SearchDriver` bound to an
:class:`~repro.service.EngineRuntime` with ``nproc`` worker threads and a
SQLite result cache.  Each cycle runs

* ``memory_sensitivity`` and ``wcet_sensitivity`` bracket searches on
  256- and 512-task Fixed-LS and Fixed-NL problems -- a balanced half of the
  kind x family x size grid, each level twice -- all incremental, plus one
  driver on ``fixedpoint`` so that ``analyze_generation`` runs;
* one ``structural_what_if`` grid of ``BATCH_WIDTH`` remap and edge edits
  that ``patch_problem`` accepted in set-up;
* a replay of every one of these operations, after all of them, through a
  fresh ``ResultCache`` opened on the same store path: the replays read from
  disk and make no analyzer calls.

Every operation uses a new horizon each cycle (set from the baseline
makespan), so the first run misses the cache and writes to it.  Half the
operations are replays by design; like the rest of the mix, that share is
synthetic.  The driver's lookahead is pinned to what the worker count gives,
so probe counts do not depend on measured latencies.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import analyze
from repro.analysis import SearchDriver, memory_sensitivity, structural_what_if, wcet_sensitivity
from repro.analysis.search import adaptive_speculation
from repro.core.kernel import compilation_count, patch_count
from repro.core.vector import generation_pass_count, vector_sweep_count
from repro.engine import ResultCache
from repro.service import EngineRuntime

import harness
from harness import Op

NAME = "explore-deltas"
WHY = (
    "io and the server are not used; each probe's analysis is small, so engine overhead "
    "(jobs, pool dispatch, digests, store transactions), kernel overlays and patches, warm "
    "starts, disk replays and wasted speculative probes are a visible share."
)

SIZES = {
    "full": {
        #: (operation, family, tasks, algorithm)
        "searches": [
            ("memory", "LS64", 256, "incremental"),
            ("wcet", "NL32", 256, "incremental"),
            ("memory", "NL32", 512, "incremental"),
            ("wcet", "LS64", 512, "incremental"),
            ("memory", "NL32", 256, "fixedpoint"),
        ],
        "grid": ("LS64", 256),
        "edits": harness.BATCH_WIDTH,
        "tolerance": 0.05,
        "min_cycles": 5,
    },
    "tiny": {
        "searches": [
            ("memory", "LS8", 32, "incremental"),
            ("wcet", "NL4", 32, "incremental"),
            ("memory", "NL4", 32, "fixedpoint"),
        ],
        "grid": ("LS8", 32),
        "edits": 3,
        "tolerance": 0.1,
        "min_cycles": 2,
    },
}
#: horizon of an input: its baseline makespan times this slack
SLACK = 1.25


class CountingDriver(SearchDriver):
    """A ``SearchDriver`` that tallies the probes and schedules it evaluates."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.probes = 0
        self.generations = 0
        self.evaluated: List[Tuple[Any, Any]] = []

    def evaluate(self, problems, *, remaining_generations=None):  # type: ignore[override]
        problems = list(problems)
        schedules = super().evaluate(problems, remaining_generations=remaining_generations)
        if problems:
            self.generations += 1
            self.probes += len(problems)
            self.evaluated.extend(zip(problems, schedules))
        return schedules


class Workload:
    name = NAME
    why = WHY

    def __init__(self, seed: int, size: str, state_dir: Any) -> None:
        self.seed = seed
        self.spec = SIZES[size]
        self.state_dir = state_dir
        self.min_cycles = self.spec["min_cycles"]
        self.ops_per_cycle = 2 * (len(self.spec["searches"]) + 1)
        self.runtime: Optional[EngineRuntime] = None
        self._setups = 0
        self._first_cycle: Optional[int] = None
        self._cycle_start: Dict[str, int] = {}
        self.cycle0: Dict[str, int] = {}
        #: results of the first cycle's operations, for the gate
        self.first: List[Tuple[str, Any, CountingDriver, Any]] = []

    # -- set-up ---------------------------------------------------------
    def setup(self) -> Iterator[None]:
        """Builds inputs, horizons, edits and the runtime, yielding between steps."""
        spec = self.spec
        wanted = {(family, tasks) for _, family, tasks, _ in spec["searches"]} | {spec["grid"]}
        self.inputs: Dict[Tuple[str, int], Any] = {}
        self.horizons: Dict[Tuple[str, int], int] = {}
        for key in sorted(wanted):
            problem = harness.paper_problem(*key, self.seed)
            self.inputs[key] = problem
            self.horizons[key] = int(analyze(problem).makespan * SLACK)
            yield
        rng = random.Random(harness.derive_seed(self.seed, NAME, "edits"))
        self.edits = harness.accepted_edits(self.inputs[spec["grid"]], spec["edits"], rng)
        yield
        self._setups += 1
        self.store = self.state_dir / f"store-{self._setups}.sqlite"
        self.runtime = EngineRuntime(
            backend="thread", max_workers=harness.nproc(), cache=ResultCache(path=self.store)
        )
        self.speculation = adaptive_speculation(self.runtime.workers)

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None

    # -- operations -----------------------------------------------------
    def _operation(self, index: int, cycle: int, cache: Optional[ResultCache]):
        """Thunk of operation ``index`` (the searches, then the grid) and its input."""
        spec = self.spec
        if index < len(spec["searches"]):
            kind, family, tasks, algorithm = spec["searches"][index]
            key = (family, tasks)
            search = memory_sensitivity if kind == "memory" else wcet_sensitivity
        else:
            kind, key, algorithm, search = "grid", spec["grid"], "incremental", None
        problem = self.inputs[key].with_horizon(self.horizons[key] + 1 + cycle)

        def run() -> Any:
            driver = CountingDriver(
                algorithm, runtime=self.runtime, cache=cache, speculation=self.speculation
            )
            if search is None:
                result = structural_what_if(problem, self.edits, driver=driver)
            else:
                result = search(problem, tolerance=spec["tolerance"], driver=driver)
            return result.to_dict(), driver, result

        return kind, run, problem

    def make_cycle(self, cycle: int) -> List[Op]:
        if self._first_cycle is None:
            self._first_cycle = cycle
            self._cycle_start = self._counters()
        keep = cycle == self._first_cycle
        new: List[Op] = []
        replays: List[Op] = []
        for index in range(len(self.spec["searches"]) + 1):
            kind, run, problem = self._operation(index, cycle, cache=None)
            new.append(self._op(kind, index, run, problem, hit=False, keep=keep, cycle=cycle))

            # a fresh cache on the same store: every probe is read from disk
            def replay(index: int = index) -> Any:
                cache = ResultCache(path=self.store)
                try:
                    return self._operation(index, cycle, cache)[1]()
                finally:
                    cache.close()

            replays.append(self._op(kind, index, replay, problem, hit=True, keep=False, cycle=cycle))
        # the seed fixes the order once, so every cycle runs the same sequence:
        # every operation, then every replay
        rng = random.Random(harness.derive_seed(self.seed, NAME, "plan"))
        rng.shuffle(new)
        rng.shuffle(replays)
        return new + replays

    def _op(self, kind: str, index: int, run: Any, problem: Any, *, hit: bool, keep: bool,
            cycle: int) -> Op:
        def wrapped() -> Any:
            record, driver, result = run()
            tasks = driver.probes * problem.task_count
            if keep:
                self.first.append((kind, problem, driver, result))
            return {"record": record, "tasks": tasks, "computed": driver.total_computed,
                    "cached": driver.total_cached,
                    "transactions": driver.cache.stats.transactions if hit else 0}

        return Op(kind + (".replay" if hit else ""), wrapped, hit=hit, key=(index, hit, cycle))

    def _counters(self) -> Dict[str, int]:
        return {
            "compilations": compilation_count(),
            "patches": patch_count(),
            "sweeps": vector_sweep_count(),
            "passes": generation_pass_count(),
            "transactions": self.runtime.cache.stats.transactions,
            "jobs": self.runtime.stats().jobs_completed,
        }

    def on_cycle_end(self, cycle: int, results: List[harness.OpResult]) -> None:
        if cycle == self._first_cycle:
            after = self._counters()
            self.cycle0 = {name: after[name] - self._cycle_start[name] for name in after}

    # -- after the loop -------------------------------------------------
    def finish(self, loops: List[harness.Loop], gate: harness.Gate) -> Dict[str, Any]:
        results = [result for loop in loops for result in loop.results if result.ok]
        cold = {(result.key[0], result.key[2]): result.output["record"]
                for result in results if not result.hit}
        for result in results:
            if result.hit:
                index, _, cycle = result.key
                gate.check(f"replay {result.kind} returns its cold run's probe trace and verdict",
                           result.output["record"] == cold.get((index, cycle)))
                gate.check(f"replay {result.kind} makes no analyzer calls",
                           result.output["computed"] == 0)
        first = sorted(
            (result for result in results if result.cycle == self._first_cycle),
            key=lambda result: repr(result.key),
        )
        drivers = [driver for _, _, driver, _ in self.first]
        evaluated = [pair for driver in drivers for pair in driver.evaluated]
        schedules = [schedule for _, schedule in evaluated]

        # every structural parent and a seeded sample of probe schedules pass validate_schedule
        validated = harness.Validated()
        rng = random.Random(harness.derive_seed(self.seed, NAME, "validate-sample"))
        sample = [(probe.materialize(), schedule)
                  for probe, schedule in rng.sample(evaluated, min(8, len(evaluated)))]
        grids = [(problem, result) for kind, problem, _, result in self.first if kind == "grid"]
        sample += [(problem, result.parent) for problem, result in grids]
        for problem, schedule in sample:
            gate.run(f"validate_schedule({problem.name})", validated.check,
                     problem.name, problem, schedule)
        for problem, result in grids:
            harness.check_structural_sample(
                gate,
                random.Random(harness.derive_seed(self.seed, NAME, "structural-sample")),
                problem,
                [(verdict.name, verdict.delta, verdict) for verdict in result.verdicts],
                3,
                lambda verdict, cold: (verdict.schedulable, verdict.makespan)
                == (cold.schedulable, cold.makespan if cold.schedulable else None),
            )

        searches = [result for kind, _, _, result in self.first if kind != "grid"]
        in_result = sum(len(result.probes) for result in searches) + sum(
            len(result.verdicts) + 1 for _, result in grids
        )
        transactions = self.cycle0["transactions"] + sum(
            result.output["transactions"] for result in first
        )
        counters = {
            "analysis.probes_computed": sum(driver.total_computed for driver in drivers),
            "analysis.probes_cached": sum(driver.total_cached for driver in drivers),
            "analysis.generations": sum(driver.generations for driver in drivers),
            "analysis.probes_evaluated": sum(driver.probes for driver in drivers),
            "core.incremental.cursor_steps": sum(s.stats.cursor_steps for s in schedules),
            "core.incremental.ibus_calls": sum(s.stats.ibus_calls for s in schedules),
            "core.incremental.warm_start_hits": sum(s.stats.warm_start_hits for s in schedules),
            "core.fixedpoint.inner_iterations": sum(s.stats.inner_iterations for s in schedules),
            "core.kernel.compilations": self.cycle0["compilations"],
            "core.kernel.patches": self.cycle0["patches"],
            "core.vector.sweeps": self.cycle0["sweeps"],
            "core.vector.generation_passes": self.cycle0["passes"],
            "engine.store_transactions": transactions,
        }
        cached = sum(result.output["cached"] for result in first)
        looked_up = cached + sum(result.output["computed"] for result in first)
        layer = {
            "analysis.useful_probe_share": in_result / max(counters["analysis.probes_evaluated"], 1),
            "engine.cache_hit_share": cached / max(looked_up, 1),
            "engine.store_transactions_per_op": transactions / max(len(first), 1),
            "engine.pools_created": self.runtime.pools_created if self.runtime else 0,
            "engine.jobs_computed": self.cycle0["jobs"],
        }
        digest = harness.digest_bytes(
            repr([(repr(result.key), result.output["record"]) for result in first]).encode("utf-8")
        )
        backends = sorted({schedule.stats.backend for schedule in schedules})
        return {
            "digest": digest,
            "counters": counters,
            "layer": layer,
            "provenance": {
                "search_backends": ",".join(backends),
                "speculation": self.speculation,
                "inputs": sorted(problem.name for problem in self.inputs.values()),
                "store": "sqlite",
            },
            "probe_inputs": list(self.inputs.values()),
            "probe_outputs": schedules[:3],
        }
