"""Unit tests for :class:`repro.model.Mapping`."""

import pytest

from repro import Mapping, Task, TaskGraph
from repro.errors import MappingError, UnknownTaskError


def simple_graph() -> TaskGraph:
    graph = TaskGraph()
    for name in ("a", "b", "c", "d"):
        graph.add_task(Task(name=name, wcet=10))
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    graph.add_dependency("a", "d")
    return graph


class TestAssignment:
    def test_assign_and_query(self):
        mapping = Mapping()
        mapping.assign("a", 0)
        mapping.assign("b", 0)
        mapping.assign("c", 1)
        assert mapping.core_of("a") == 0
        assert mapping.core_of("c") == 1
        assert mapping.order_on(0) == ["a", "b"]
        assert mapping.cores() == [0, 1]
        assert mapping.task_count == 3
        assert mapping.core_count == 2

    def test_constructor_from_dict(self):
        mapping = Mapping({0: ["a", "b"], 2: ["c"]})
        assert mapping.order_on(0) == ["a", "b"]
        assert mapping.core_of("c") == 2

    def test_double_assignment_rejected(self):
        mapping = Mapping()
        mapping.assign("a", 0)
        with pytest.raises(MappingError):
            mapping.assign("a", 1)

    def test_negative_core_rejected(self):
        with pytest.raises(MappingError):
            Mapping().assign("a", -1)

    def test_unmapped_query_raises(self):
        with pytest.raises(MappingError):
            Mapping().core_of("ghost")

    def test_unassign(self):
        mapping = Mapping({0: ["a", "b"]})
        mapping.unassign("a")
        assert mapping.order_on(0) == ["b"]
        with pytest.raises(MappingError):
            mapping.unassign("a")

    def test_position_and_neighbours(self):
        mapping = Mapping({0: ["a", "b", "c"]})
        assert mapping.position_on_core("b") == 1
        assert mapping.predecessor_on_core("a") is None
        assert mapping.predecessor_on_core("b") == "a"
        assert mapping.successor_on_core("b") == "c"
        assert mapping.successor_on_core("c") is None

    def test_same_core(self):
        mapping = Mapping({0: ["a", "b"], 1: ["c"]})
        assert mapping.same_core("a", "b")
        assert not mapping.same_core("a", "c")

    def test_insert_position(self):
        mapping = Mapping({0: ["a", "c"]})
        mapping.assign("b", 0, position=1)
        assert mapping.order_on(0) == ["a", "b", "c"]


class TestValidation:
    def test_complete_and_consistent(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b"], 1: ["c", "d"]})
        mapping.validate(graph)  # does not raise

    def test_missing_task_rejected_when_complete_required(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b", "c"]})
        with pytest.raises(MappingError):
            mapping.validate(graph)

    def test_unknown_task_rejected(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b", "c", "d", "ghost"]})
        with pytest.raises(UnknownTaskError):
            mapping.validate(graph)

    def test_order_contradicting_dependencies_rejected(self):
        graph = simple_graph()
        # b depends on a but is ordered before a on core 0
        mapping = Mapping({0: ["b", "a"], 1: ["c", "d"]})
        with pytest.raises(MappingError):
            mapping.validate(graph)

    def test_load(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b"], 1: ["c", "d"]})
        assert mapping.load(graph) == {0: 20, 1: 20}


class TestValueSemantics:
    def test_roundtrip_dict(self):
        mapping = Mapping({0: ["a"], 3: ["b", "c"]})
        assert Mapping.from_dict(mapping.to_dict()) == mapping

    def test_copy_is_independent(self):
        mapping = Mapping({0: ["a"]})
        clone = mapping.copy()
        clone.assign("b", 0)
        assert mapping.task_count == 1
        assert clone.task_count == 2
