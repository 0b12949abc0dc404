"""Unit tests for the incremental analysis (Algorithm 1 — the paper's contribution)."""

import pytest

from repro import (
    AnalysisProblem,
    IncrementalAnalyzer,
    RoundRobinArbiter,
    TaskGraphBuilder,
    analyze_incremental,
    validate_schedule,
)
from repro.core import interference_is_exact
from repro.platform import quad_core_single_bank


def two_core_problem(**overrides):
    """Two independent tasks on two cores sharing one bank."""
    builder = TaskGraphBuilder("two")
    builder.task("a", wcet=10, accesses=4, core=0)
    builder.task("b", wcet=10, accesses=6, core=1)
    graph, mapping = builder.build_both()
    return AnalysisProblem(graph, mapping, quad_core_single_bank(), RoundRobinArbiter(), **overrides)


class TestBasics:
    def test_empty_problem_like_schedule(self):
        builder = TaskGraphBuilder("single")
        builder.task("only", wcet=7, accesses=3, core=0)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.schedulable
        assert schedule.makespan == 7
        assert schedule.entry("only").interference == 0

    def test_two_overlapping_tasks_interfere_symmetrically(self):
        schedule = analyze_incremental(two_core_problem())
        a, b = schedule.entry("a"), schedule.entry("b")
        # RR: each access of a waits for at most one of b's and vice versa
        assert a.interference == 4  # min(4, 6)
        assert b.interference == 4  # min(6, 4)
        assert schedule.makespan == 14
        validate_schedule(two_core_problem(), schedule)

    def test_release_dates_respect_min_release(self):
        builder = TaskGraphBuilder("minrel")
        builder.task("a", wcet=5, core=0, min_release=100)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.entry("a").release == 100
        assert schedule.makespan == 105

    def test_dependencies_delay_release(self):
        builder = TaskGraphBuilder("dep")
        builder.task("a", wcet=10, core=0)
        builder.task("b", wcet=5, core=1)
        builder.edge("a", "b")
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.entry("b").release == 10
        assert schedule.makespan == 15

    def test_same_core_tasks_are_serialized_without_explicit_edge(self):
        builder = TaskGraphBuilder("serial")
        builder.task("a", wcet=10, core=0)
        builder.task("b", wcet=5, core=0)  # no dependency, same core
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.entry("b").release == 10

    def test_same_core_tasks_never_interfere(self):
        builder = TaskGraphBuilder("serial")
        builder.task("a", wcet=10, accesses=5, core=0)
        builder.task("b", wcet=5, accesses=5, core=0)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.entry("a").interference == 0
        assert schedule.entry("b").interference == 0

    def test_zero_task_graph(self):
        from repro import Mapping, TaskGraph

        problem = AnalysisProblem(TaskGraph("empty"), Mapping(), quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert len(schedule) == 0
        assert schedule.schedulable
        assert schedule.makespan == 0


class TestInterferenceDynamics:
    def test_late_arrival_extends_alive_task(self):
        """A task opening later adds interference to a task that is still alive."""
        builder = TaskGraphBuilder("late")
        builder.task("long", wcet=100, accesses=10, core=0)
        builder.task("late", wcet=10, accesses=10, core=1, min_release=50)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        # both overlap in [50, ...): each gets min(10, 10) = 10 cycles of interference
        assert schedule.entry("long").interference == 10
        assert schedule.entry("late").interference == 10
        assert schedule.entry("long").finish == 110

    def test_closed_tasks_never_gain_interference(self):
        """A task that finished before another is released must not be charged for it."""
        builder = TaskGraphBuilder("disjoint")
        builder.task("early", wcet=10, accesses=10, core=0)
        builder.task("later", wcet=10, accesses=10, core=1, min_release=10)
        graph, mapping = builder.build_both()
        problem = AnalysisProblem(graph, mapping, quad_core_single_bank())
        schedule = analyze_incremental(problem)
        assert schedule.entry("early").interference == 0
        assert schedule.entry("later").interference == 0

    def test_charged_interference_matches_final_overlaps_exactly(self, small_problem):
        schedule = analyze_incremental(small_problem)
        assert schedule.schedulable
        assert interference_is_exact(small_problem, schedule)

    def test_multi_bank_problem(self):
        builder = TaskGraphBuilder("banks", default_bank=0)
        builder.task("a", wcet=10, accesses={0: 4, 1: 4}, core=0)
        builder.task("b", wcet=10, accesses={0: 2}, core=1)
        builder.task("c", wcet=10, accesses={1: 3}, core=2)
        graph, mapping = builder.build_both()
        from repro.platform import banked_manycore

        problem = AnalysisProblem(graph, mapping, banked_manycore(4, 2), RoundRobinArbiter())
        schedule = analyze_incremental(problem)
        a = schedule.entry("a")
        # bank 0: min(4,2)=2 from b; bank 1: min(4,3)=3 from c
        assert a.interference_by_bank == {0: 2, 1: 3}
        assert schedule.entry("b").interference == 2
        assert schedule.entry("c").interference == 3


class TestHorizonAndDeadlock:
    def test_horizon_violation_is_reported(self):
        problem = two_core_problem(horizon=12)  # true makespan is 14
        schedule = analyze_incremental(problem)
        assert not schedule.schedulable

    def test_generous_horizon_is_fine(self):
        problem = two_core_problem(horizon=14)
        schedule = analyze_incremental(problem)
        assert schedule.schedulable
        assert schedule.makespan == 14

    def test_cross_core_order_deadlock_detected(self):
        """A per-core order contradicting the dependencies across cores deadlocks."""
        from repro import Mapping

        builder = TaskGraphBuilder("deadlock")
        builder.task("a", wcet=5)
        builder.task("b", wcet=5)
        builder.task("c", wcet=5)
        builder.task("d", wcet=5)
        # a -> d and c -> b, but b is ordered before a on core 0 and d before c on core 1:
        # neither b nor d can ever start.
        builder.edge("a", "d")
        builder.edge("c", "b")
        graph = builder.build()
        mapping = Mapping({0: ["b", "a"], 1: ["d", "c"]})
        problem = AnalysisProblem(
            graph, mapping, quad_core_single_bank(), validate=False
        )
        schedule = analyze_incremental(problem)
        assert not schedule.schedulable
        assert set(schedule.unscheduled) == {"a", "b", "c", "d"}


class TestStatsAndTrace:
    def test_stats_populated(self, small_problem):
        schedule = analyze_incremental(small_problem)
        assert schedule.stats.algorithm == "incremental"
        assert schedule.stats.cursor_steps > 0
        assert schedule.stats.ibus_calls > 0
        assert schedule.stats.wall_time_seconds >= 0

    def test_backend_is_always_python(self, small_problem, monkeypatch):
        """Algorithm 1 is one sequential loop: no backend knob reaches it."""
        from repro.core.kernel import PatchedProblem, StructureOverlay, compile_problem
        from repro.core.vector import BACKEND_ENV

        monkeypatch.setenv(BACKEND_ENV, "vector")
        cold = analyze_incremental(small_problem)
        reused = analyze_incremental(
            PatchedProblem(
                compile_problem(small_problem), StructureOverlay.noop(), parent_schedule=cold
            )
        )
        assert reused.stats.warm_start_hits == 1
        assert cold.stats.backend == reused.stats.backend == "python"
        with pytest.raises(TypeError):
            analyze_incremental(small_problem, backend="python")

    def test_alive_set_bounded_by_core_count(self, small_problem):
        analyzer = IncrementalAnalyzer(small_problem, trace=True)
        analyzer.run()
        assert analyzer.trace is not None
        assert analyzer.trace.max_alive() <= small_problem.platform.core_count
