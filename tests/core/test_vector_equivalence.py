"""Differential fuzz campaign: vector backend vs. pure-Python oracle (PR 9).

The contract under test:

* For every workload in the generator zoo (chains, fork-join, layer-by-layer
  in both LS and NL flavours, series-parallel, random min-release DAGs), the
  fixed-point analyzer under ``backend="vector"`` produces schedules
  **bit-identical** to ``backend="python"`` — entries, verdicts, unscheduled
  sets, makespans, IBUS call counts and iteration counters all match exactly.
* The incremental analyzer (one sequential loop) is bit-identical whatever
  the backend setting says, and its warm-started probes equal cold analysis.
* Every built-in arbiter's closed-form vector kernel reproduces the scalar
  arbiter to the bit.
* :func:`repro.core.analyze_generation` evaluates a whole overlay generation
  in one batched pass whose per-probe schedules equal the serial oracle's,
  counting exactly one generation pass.
* The PR 7 warm-start seeding contract survives vectorization: a warm-started
  probe analysed under the vector backend equals the same warm probe under
  the python backend, including ``warm_start_hits``.
"""

import random

import pytest

from repro import AnalysisProblem
from repro.arbiter import (
    FifoArbiter,
    FixedPriorityArbiter,
    MultiLevelRoundRobinArbiter,
    NullArbiter,
    RoundRobinArbiter,
    TdmArbiter,
    WeightedRoundRobinArbiter,
)
from repro.core import (
    ParamOverlay,
    PatchedProblem,
    StructureOverlay,
    analyze,
    analyze_fixedpoint,
    analyze_generation,
    compile_problem,
    generation_pass_count,
    numpy_available,
    vector_sweep_count,
)
from repro.core.vector import BACKEND_ENV
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    SeriesParallelConfig,
    fixed_ls_workload,
    fixed_nl_workload,
    generate_chains,
    generate_fork_join,
    generate_series_parallel,
)
from repro.model import Mapping, MemoryDemand, Task, TaskGraph
from repro.platform import Platform

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="NumPy missing: vector backend unavailable"
)


def _random_min_release_problem(seed: int) -> AnalysisProblem:
    """Random DAG with strictly positive minimal releases and two banks."""
    rng = random.Random(seed)
    cores, banks = 4, 2
    graph = TaskGraph(f"vec-minrel-{seed}")
    mapping = Mapping()
    names = []
    for i in range(rng.randint(8, 20)):
        name = f"t{i:03d}"
        demand = {bank: rng.randint(0, 6) for bank in range(banks)}
        graph.add_task(
            Task(
                name=name,
                wcet=rng.randint(1, 30),
                demand=MemoryDemand(demand),
                min_release=rng.randint(1, 40),
            )
        )
        mapping.assign(name, rng.randrange(cores))
        for earlier in names:
            if rng.random() < 0.15:
                graph.add_dependency(earlier, name)
        names.append(name)
    platform = Platform.symmetric(cores, banks, name=f"plat-{seed}")
    horizon = rng.choice([None, 2_000, 10_000])
    return AnalysisProblem(graph, mapping, platform, horizon=horizon)


def _workloads():
    """The full generator zoo, one deterministic instance per family."""
    return [
        generate_chains(
            ChainsConfig(chains=5, length=4, core_count=4, bank_count=2, seed=7)
        ).to_problem(),
        generate_fork_join(
            ForkJoinConfig(sections=3, width=4, core_count=4, bank_count=2, seed=13)
        ).to_problem(horizon=30_000),
        fixed_ls_workload(30, 5, core_count=5, seed=11).to_problem(horizon=50_000),
        fixed_nl_workload(24, 4, core_count=4, seed=3).to_problem(),
        generate_series_parallel(
            SeriesParallelConfig(target_tasks=18, core_count=4, bank_count=2, seed=21)
        ).to_problem(),
        _random_min_release_problem(1),
        _random_min_release_problem(2),
        _random_min_release_problem(9),
    ]


def fingerprint(schedule):
    """Everything the bit-identity contract covers, in one comparable value."""
    return (
        [entry.to_dict() for entry in schedule.entries()],
        schedule.schedulable,
        sorted(schedule.unscheduled),
        schedule.makespan,
        schedule.stats.ibus_calls,
        schedule.stats.inner_iterations,
        schedule.stats.outer_iterations,
        schedule.stats.cursor_steps,
        schedule.stats.warm_start_hits,
    )


@pytest.mark.parametrize("case", range(8))
class TestAnalyzerBitIdentity:
    """backend="vector" ≡ backend="python" on every zoo workload."""

    def test_fixedpoint(self, case):
        problem = _workloads()[case]
        before = vector_sweep_count()
        oracle = analyze_fixedpoint(problem, backend="python")
        vector = analyze_fixedpoint(problem, backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)
        assert oracle.stats.backend == "python"
        assert vector.stats.backend == "vector"
        # one lockstep sweep per inner iteration, and they really ran
        assert vector.stats.vector_sweeps == vector.stats.inner_iterations
        assert vector_sweep_count() - before >= vector.stats.inner_iterations

    def test_incremental(self, case, monkeypatch):
        # Algorithm 1 has one sequential loop: the backend setting that
        # selects the fixed-point core must not change a single bit of it
        problem = _workloads()[case]
        monkeypatch.setenv(BACKEND_ENV, "python")
        oracle = analyze(problem, "incremental")
        monkeypatch.setenv(BACKEND_ENV, "vector")
        forced = analyze(problem, "incremental")
        assert fingerprint(forced) == fingerprint(oracle)
        assert oracle.stats.backend == forced.stats.backend == "python"

    def test_analyze_entry_point(self, case):
        problem = _workloads()[case]
        oracle = analyze(problem, "fixedpoint", backend="python")
        vector = analyze(problem, "fixedpoint", backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)


def _arbiters():
    return [
        NullArbiter(),
        FifoArbiter(),
        RoundRobinArbiter(),
        WeightedRoundRobinArbiter({0: 3, 1: 1, 2: 2}, default_weight=2),
        FixedPriorityArbiter({0: 2, 1: 0, 2: 1, 3: 3}),
        TdmArbiter(total_cores=4, slots={0: 3, 2: 2}),
        MultiLevelRoundRobinArbiter(group_size=2, groups={3: 0}),
    ]


@pytest.mark.parametrize("arbiter_index", range(7))
class TestArbiterMatrix:
    """Every built-in arbiter's closed form matches its scalar ``ibus``."""

    def test_fixedpoint_bit_identity(self, arbiter_index):
        arbiter = _arbiters()[arbiter_index]
        base = fixed_ls_workload(24, 4, core_count=4, seed=5).to_problem()
        problem = AnalysisProblem(
            base.graph,
            base.mapping,
            base.platform,
            arbiter=arbiter,
            horizon=base.horizon,
            name=f"arb-{type(arbiter).__name__}",
        )
        oracle = analyze_fixedpoint(problem, backend="python")
        vector = analyze_fixedpoint(problem, backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)
        # all seven built-ins have a vector kernel: no silent fallback
        assert vector.stats.backend == "vector"


def _probe_generation(kernel):
    """A mixed overlay generation: wcet, demand and horizon probes."""
    probes = [
        kernel.with_overlay(kernel.scaled_wcet_overlay(factor))
        for factor in (0.6, 1.0, 1.7, 2.4)
    ]
    probes.extend(
        kernel.with_overlay(kernel.scaled_demand_overlay(factor))
        for factor in (0.5, 1.5)
    )
    probes.append(kernel.with_overlay(ParamOverlay(horizon=None)))
    probes.append(kernel.with_overlay(ParamOverlay(horizon=50)))
    return probes


@pytest.mark.parametrize("case", range(8))
class TestGenerationBatching:
    """analyze_generation ≡ serial oracle, one batched pass per generation."""

    def test_batched_pass_is_bit_identical(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        probes = _probe_generation(kernel)
        passes_before = generation_pass_count()
        batched = analyze_generation(probes, "fixedpoint", backend="vector")
        assert generation_pass_count() - passes_before == 1
        serial = [analyze_fixedpoint(p, backend="python") for p in probes]
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert fingerprint(got) == fingerprint(want)
            assert got.stats.backend == "vector"

    def test_python_backend_generation_matches_too(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        probes = _probe_generation(kernel)[:3]
        passes_before = generation_pass_count()
        results = analyze_generation(probes, "fixedpoint", backend="python")
        # forced python: per-probe fallback, no batched pass counted
        assert generation_pass_count() - passes_before == 0
        for got, probe in zip(results, probes):
            assert fingerprint(got) == fingerprint(
                analyze_fixedpoint(probe, backend="python")
            )


def _random_delta(rng, kernel):
    """One random single-edit structural delta (same shapes as PR 7 tests)."""
    names = list(kernel.names)
    kind = rng.choice(["add_task", "remove_task", "add_edge", "remove_edge", "remap_task"])
    if kind == "add_task":
        return StructureOverlay.add_task(
            f"extra-{rng.randrange(10**6)}",
            wcet=rng.randint(1, 40),
            core=rng.randrange(len(kernel.core_ids)),
            demand={bank: rng.randint(0, 9) for bank in kernel.bank_ids},
        )
    if kind == "remove_task":
        return StructureOverlay.remove_task(rng.choice(names))
    if kind == "remap_task":
        return StructureOverlay.remap_task(
            rng.choice(names), rng.randrange(len(kernel.core_ids))
        )
    producer, consumer = rng.sample(names, 2)
    if kind == "add_edge":
        return StructureOverlay.add_edge(producer, consumer, volume=rng.randint(0, 4))
    return StructureOverlay.remove_edge(producer, consumer)


@pytest.mark.parametrize("case", range(8))
class TestWarmStartContract:
    """PR 7 warm-start seeding is preserved under the vector backend."""

    def test_warm_probes_bit_identical_across_backends(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        rng = random.Random(1000 + case)
        parent = analyze(problem, "fixedpoint", backend="python")
        for _ in range(3):
            delta = _random_delta(rng, kernel)
            try:
                warm = PatchedProblem(kernel, delta, parent_schedule=parent)
            except Exception:
                continue  # delta invalid for this kernel (e.g. cycle)
            oracle = analyze(warm, "fixedpoint", backend="python")
            vector = analyze(warm, "fixedpoint", backend="vector")
            assert fingerprint(vector) == fingerprint(oracle)
            assert vector.stats.warm_start_hits == oracle.stats.warm_start_hits

    def test_incremental_warm_probes_match_cold(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        rng = random.Random(1000 + case)
        parent = analyze(problem, "incremental")
        for _ in range(3):
            delta = _random_delta(rng, kernel)
            try:
                warm = PatchedProblem(kernel, delta, parent_schedule=parent)
            except Exception:
                continue  # delta invalid for this kernel (e.g. cycle)
            cold = analyze(PatchedProblem(kernel, delta), "incremental")
            # everything but the warm-start counter itself is bit-identical
            assert fingerprint(analyze(warm, "incremental"))[:-1] == fingerprint(cold)[:-1]

    def test_noop_delta_warm_shortcut_matches(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        parent = analyze(problem, "fixedpoint", backend="python")
        warm = PatchedProblem(kernel, StructureOverlay.noop(), parent_schedule=parent)
        oracle = analyze(warm, "fixedpoint", backend="python")
        vector = analyze(warm, "fixedpoint", backend="vector")
        assert fingerprint(vector) == fingerprint(oracle)
        assert vector.stats.warm_start_hits == 1
