"""Property tests: the kernel-path analyzers are bit-identical to the frozen
pre-refactor dict-path implementations, and overlay digests equal the digests
of the materialized problems (PR 5 acceptance)."""

import random

import pytest

from repro import AnalysisProblem
from repro.analysis.sensitivity import scale_memory_demand, scale_wcets
from repro.bench import PerTaskRoundRobinArbiter
from repro.core import ParamOverlay, analyze_fixedpoint, analyze_incremental, compile_problem
from repro.engine.jobs import problem_digest, split_problem_digests
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    fixed_ls_workload,
    fixed_nl_workload,
    generate_chains,
    generate_fork_join,
)
from repro.model import MemoryDemand, Task

from .reference_impl import reference_fixedpoint, reference_incremental


def _random_min_release_problem(seed: int) -> AnalysisProblem:
    """Hand-rolled random DAG with positive minimal releases and multi-bank demand."""
    from repro.model import Mapping, TaskGraph
    from repro.platform import Platform

    rng = random.Random(seed)
    cores, banks = 4, 2
    graph = TaskGraph(f"rand-minrel-{seed}")
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
                min_release=rng.randint(1, 40),  # strictly positive on purpose
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
    cases = []
    for seed in (3, 11, 42):
        cases.append(fixed_ls_workload(36, 6, core_count=6, seed=seed).to_problem(horizon=50_000))
        cases.append(fixed_nl_workload(30, 5, core_count=4, seed=seed).to_problem())
    cases.append(
        generate_chains(ChainsConfig(chains=6, length=5, core_count=4, seed=7)).to_problem()
    )
    cases.append(
        generate_fork_join(
            ForkJoinConfig(sections=3, width=4, core_count=4, seed=13)
        ).to_problem(horizon=30_000)
    )
    cases.extend(_random_min_release_problem(seed) for seed in (1, 2, 9))
    return cases


def _schedules_identical(new, ref):
    assert new.to_dict()["entries"] == ref.to_dict()["entries"]
    assert new.schedulable == ref.schedulable
    assert new.unscheduled == ref.unscheduled
    assert new.makespan == ref.makespan
    assert new.stats.ibus_calls == ref.stats.ibus_calls


@pytest.mark.parametrize("case", range(len(_workloads())))
class TestBitIdenticalToReference:
    def test_incremental(self, case):
        problem = _workloads()[case]
        new = analyze_incremental(problem)
        ref = reference_incremental(problem)
        _schedules_identical(new, ref)
        # cursor-start satellite: exactly the t=0 no-op step disappears when
        # every task releases strictly late, nothing else
        min_release = min(task.min_release for task in problem.graph)
        expected_delta = 1 if min_release > 0 else 0
        assert ref.stats.cursor_steps - new.stats.cursor_steps == expected_delta

    def test_fixedpoint(self, case):
        problem = _workloads()[case]
        new = analyze_fixedpoint(problem)
        ref = reference_fixedpoint(problem)
        _schedules_identical(new, ref)
        # the interval sweep changes how overlaps are *found*, never the
        # fixed-point trajectory: iteration counts match exactly
        assert new.stats.inner_iterations == ref.stats.inner_iterations
        assert new.stats.outer_iterations == ref.stats.outer_iterations


@pytest.mark.parametrize("case", range(len(_workloads())))
def test_plugin_arbiter_incremental_matches_reference(case):
    """A plug-in without a ``charge`` override runs the default path, which is
    bit-identical to re-evaluating the arbiter on every IBUS call, as the
    frozen reference does."""
    base = _workloads()[case]
    problem = AnalysisProblem(
        graph=base.graph,
        mapping=base.mapping,
        platform=base.platform,
        arbiter=PerTaskRoundRobinArbiter(),
        horizon=base.horizon,
        name=base.name,
        validate=False,
    )
    new = analyze_incremental(problem)
    ref = reference_incremental(problem)
    _schedules_identical(new, ref)
    assert new.stats.ibus_calls > 0
    min_release = min(task.min_release for task in problem.graph)
    assert ref.stats.cursor_steps - new.stats.cursor_steps == (1 if min_release > 0 else 0)


@pytest.mark.parametrize("case", range(len(_workloads())))
class TestOverlayAnalysisEquivalence:
    """Overlay probes analyse identically to rebuilding whole scaled problems."""

    def test_wcet_overlay(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        for factor in (0.7, 1.0, 2.5):
            probe = kernel.with_overlay(kernel.scaled_wcet_overlay(factor))
            rebuilt = AnalysisProblem(
                graph=scale_wcets(problem.graph, factor),
                mapping=problem.mapping,
                platform=problem.platform,
                arbiter=problem.arbiter,
                horizon=problem.horizon,
                name=problem.name,
                validate=False,
            )
            for analyze_fn in (analyze_incremental, analyze_fixedpoint):
                via_overlay = analyze_fn(probe)
                via_rebuild = analyze_fn(rebuilt)
                assert (
                    via_overlay.to_dict()["entries"] == via_rebuild.to_dict()["entries"]
                )
                assert via_overlay.schedulable == via_rebuild.schedulable

    def test_demand_overlay(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        for factor in (0.4, 1.3):
            probe = kernel.with_overlay(kernel.scaled_demand_overlay(factor))
            rebuilt = AnalysisProblem(
                graph=scale_memory_demand(problem.graph, factor),
                mapping=problem.mapping,
                platform=problem.platform,
                arbiter=problem.arbiter,
                horizon=problem.horizon,
                name=problem.name,
                validate=False,
            )
            via_overlay = analyze_incremental(probe)
            via_rebuild = analyze_incremental(rebuilt)
            assert via_overlay.to_dict()["entries"] == via_rebuild.to_dict()["entries"]
            assert via_overlay.schedulable == via_rebuild.schedulable


@pytest.mark.parametrize("case", range(len(_workloads())))
class TestOverlayDigestEquivalence:
    """digest(overlay probe) == digest(materialized problem), half by half."""

    def test_scaled_overlays(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        for factor in (0.5, 1.0, 1.9, 4.0):
            for overlay in (
                kernel.scaled_wcet_overlay(factor),
                kernel.scaled_demand_overlay(factor),
            ):
                probe = kernel.with_overlay(overlay, name=f"{problem.name}-x{factor}")
                materialized = probe.materialize()
                assert split_problem_digests(probe) == split_problem_digests(materialized)
                assert problem_digest(probe) == problem_digest(materialized)

    def test_horizon_overlay(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        probe = kernel.with_overlay(ParamOverlay(horizon=None))
        assert split_problem_digests(probe) == split_problem_digests(probe.materialize())
        probe = kernel.with_overlay(ParamOverlay(horizon=123_456))
        assert split_problem_digests(probe) == split_problem_digests(probe.materialize())

    def test_structure_half_is_shared_across_factors(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        digests = {
            split_problem_digests(kernel.with_overlay(kernel.scaled_wcet_overlay(f)))
            for f in (0.5, 1.5, 3.0)
        }
        structures = {structure for structure, _ in digests}
        overlays = {overlay for _, overlay in digests}
        assert len(structures) == 1  # one shared structure...
        assert len(overlays) == 3  # ...three distinct parameter vectors

    def test_identity_overlay_digests_like_the_base_problem(self, case):
        problem = _workloads()[case]
        kernel = compile_problem(problem)
        probe = kernel.with_overlay(ParamOverlay())
        assert problem_digest(probe) == problem_digest(problem)
