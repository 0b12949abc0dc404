"""Parity tests of the one order check (:func:`repro.model.taskgraph.kahn_order`).

``TaskGraph.topological_order``, ``Mapping.validate`` and the compiled
kernel's ``topo_order``/``cyclic_tasks`` all decide order consistency with the
same linear Kahn pass.  These tests pin it against frozen copies of the
checks it replaced: the name-keyed Kahn loop and depth-first cycle search of
``TaskGraph``, and the per-task transitive-closure check ``Mapping.validate``
used to run.  The closure missed deadlocks across cores; the union-graph pass
rejects every mapping the closure rejected, plus those.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnalysisProblem, Task, TaskGraph
from repro.core import analyze_fixedpoint, analyze_incremental, compile_problem
from repro.errors import CyclicDependencyError, MappingError
from repro.model import Mapping
from repro.model.taskgraph import find_cycle, kahn_order
from repro.platform import Platform

PLATFORM = Platform.symmetric(3, 1)


# -- frozen reference copies of the replaced checks -------------------------


def reference_topological_order(graph: TaskGraph):
    """The name-keyed Kahn loop ``TaskGraph.topological_order`` used to run."""
    names = graph.task_names()
    in_deg = {name: len(graph.predecessors(name)) for name in names}
    ready = [name for name in names if in_deg[name] == 0]
    order = []
    head = 0
    while head < len(ready):
        name = ready[head]
        head += 1
        order.append(name)
        for succ in graph.successors(name):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    return order if len(order) == len(names) else None


def reference_find_cycle(graph: TaskGraph):
    """The colour-marking depth-first search ``TaskGraph`` used to name a cycle."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph.task_names()}
    parent = {}
    for start in graph.task_names():
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph.successors(start)))]
        color[start] = GREY
        parent[start] = None
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if color[succ] == WHITE:
                    color[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if color[succ] == GREY:
                    cycle = [succ]
                    cursor = node
                    while cursor is not None and cursor != succ:
                        cycle.append(cursor)
                        cursor = parent.get(cursor)
                    cycle.append(succ)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


def closure_rejects(mapping: Mapping, graph: TaskGraph) -> bool:
    """The transitive-closure order check ``Mapping.validate`` used to run."""
    for _, order in mapping.items():
        for position, name in enumerate(order):
            if graph.transitive_predecessors(name) & set(order[position + 1 :]):
                return True
    return False


# -- strategies ---------------------------------------------------------------


@st.composite
def graphs(draw, *, acyclic=True):
    """Up to 7 tasks in a random insertion order, edges added in a random order."""
    count = draw(st.integers(1, 7))
    names = [f"t{i}" for i in range(count)]
    rank = draw(st.permutations(names))  # edges run forward in this order
    pairs = [(a, b) for i, a in enumerate(rank) for b in rank[i + 1 :]]
    if not acyclic:
        pairs += [(b, a) for a, b in pairs]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    graph = TaskGraph("random")
    for name in draw(st.permutations(names)):
        graph.add_task(Task(name, wcet=draw(st.integers(1, 9)), demand={0: 2}))
    for producer, consumer in edges:
        graph.add_dependency(producer, consumer)
    return graph


@st.composite
def mapped_graphs(draw):
    graph = draw(graphs())
    orders = {core: [] for core in range(PLATFORM.core_count)}
    for name in draw(st.permutations(graph.task_names())):
        orders[draw(st.integers(0, PLATFORM.core_count - 1))].append(name)
    return graph, Mapping({core: order for core, order in orders.items() if order})


def _rejects(mapping: Mapping, graph: TaskGraph) -> bool:
    try:
        mapping.validate(graph)
    except MappingError:
        return True
    return False


# -- parity --------------------------------------------------------------------


class TestParity:
    @settings(max_examples=300, deadline=None)
    @given(mapped_graphs())
    def test_validate_rejects_exactly_the_kernel_cycles(self, case):
        graph, mapping = case
        kernel = compile_problem(AnalysisProblem(graph, mapping, PLATFORM, validate=False))
        assert _rejects(mapping, graph) == bool(kernel.cyclic_tasks)

    @settings(max_examples=300, deadline=None)
    @given(mapped_graphs())
    def test_every_closure_rejection_is_still_rejected(self, case):
        graph, mapping = case
        if closure_rejects(mapping, graph):
            assert _rejects(mapping, graph)

    @settings(max_examples=300, deadline=None)
    @given(graphs(acyclic=False))
    def test_topological_order_matches_the_replaced_loop(self, graph):
        expected = reference_topological_order(graph)
        if expected is None:
            with pytest.raises(CyclicDependencyError) as excinfo:
                graph.topological_order()
            assert excinfo.value.cycle == reference_find_cycle(graph)
        else:
            assert graph.topological_order() == expected


class TestKahnOrder:
    def test_cycle_leaves_the_order_partial(self):
        # 0 -> 1 -> 2 -> 1, 2 -> 3: only 0 is reachable
        successors = [[1], [2], [1, 3], []]
        assert kahn_order(successors) == [0]
        assert find_cycle(successors) == [1, 2, 1]

    def test_ties_follow_id_order_then_row_order(self):
        successors = [[3, 2], [], [], []]
        assert kahn_order(successors) == [0, 1, 3, 2]
        assert find_cycle(successors) == []


class TestCrossCoreDeadlock:
    """``a -> d`` and ``c -> b`` with ``[b, a]`` on core 0 and ``[d, c]`` on core 1.

    Neither ``b`` nor ``d`` can ever start.  The closure check accepted this
    mapping (no core orders a task before its own dependency); the union-graph
    check rejects it when the problem is built.
    """

    @staticmethod
    def case():
        graph = TaskGraph("deadlock")
        for name in "abcd":
            graph.add_task(Task(name, wcet=5))
        graph.add_dependency("a", "d")
        graph.add_dependency("c", "b")
        return graph, Mapping({0: ["b", "a"], 1: ["d", "c"]})

    def test_validated_construction_raises(self):
        graph, mapping = self.case()
        assert not closure_rejects(mapping, graph)
        with pytest.raises(MappingError) as excinfo:
            AnalysisProblem(graph, mapping, PLATFORM)
        message = str(excinfo.value)
        assert "core(s) 0, 1" in message
        assert "cycle a -> d -> c -> b -> a" in message

    def test_unvalidated_problem_keeps_the_analysis_verdicts(self):
        graph, mapping = self.case()
        problem = AnalysisProblem(graph, mapping, PLATFORM, validate=False)
        assert not analyze_incremental(problem).schedulable
        with pytest.raises(MappingError):
            analyze_fixedpoint(problem)

    def test_cyclic_graph_still_raises_cyclic_dependency_error(self):
        graph, mapping = self.case()
        graph.add_dependency("d", "a")
        with pytest.raises(CyclicDependencyError):
            AnalysisProblem(graph, mapping, PLATFORM)
