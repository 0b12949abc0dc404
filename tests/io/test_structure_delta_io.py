"""Wire format of structural deltas: round-trips and strict key rejection."""

import pytest

from repro.core import (
    OverlayProblem,
    PatchedProblem,
    StructureOverlay,
    analyze_incremental,
    compile_problem,
)
from repro.errors import SerializationError
from repro.generators import ChainsConfig, generate_chains
from repro.io import (
    delta_from_dict,
    delta_parent,
    delta_to_dict,
    is_structure_delta,
    overlay_from_dict,
    structure_delta_from_dict,
    structure_delta_to_dict,
)


@pytest.fixture
def kernel():
    workload = generate_chains(
        ChainsConfig(chains=3, length=4, core_count=3, bank_count=2, seed=8)
    )
    return compile_problem(workload.to_problem(horizon=100_000))


def _all_kinds(kernel):
    names = [kernel.names[index] for index in kernel.topo_order]
    return [
        StructureOverlay.noop(),
        StructureOverlay.add_task("extra", wcet=7, core=1, demand={0: 2, 1: 1}),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_edge(names[0], names[5], volume=3),
        StructureOverlay.remove_edge(names[0], names[1]),
        StructureOverlay.remap_task(names[2], core=2),
    ]


class TestRoundTrip:
    def test_every_kind_round_trips(self, kernel):
        for delta in _all_kinds(kernel):
            record = structure_delta_to_dict(delta, name=f"probe-{delta.kind}")
            rebuilt, name = structure_delta_from_dict(record)
            assert name == f"probe-{delta.kind}"
            assert rebuilt.kind == delta.kind
            assert structure_delta_to_dict(rebuilt) == structure_delta_to_dict(delta)

    def test_name_is_optional(self, kernel):
        record = structure_delta_to_dict(StructureOverlay.noop())
        assert "name" not in record
        _, name = structure_delta_from_dict(record)
        assert name is None

    def test_delta_from_dict_applies_and_warm_starts(self, kernel):
        parent_schedule = analyze_incremental(kernel.problem)
        names = [kernel.names[index] for index in kernel.topo_order]
        record = structure_delta_to_dict(
            StructureOverlay.remap_task(names[1], core=2), name="what-if"
        )
        probe = delta_from_dict(record, kernel, parent_schedule=parent_schedule)
        assert isinstance(probe, PatchedProblem)
        assert probe.name == "what-if"
        assert probe.parent is kernel
        assert probe.warm is not None


class TestDeltaCodec:
    """One codec for both record formats, told apart by the ``format`` tag."""

    def test_structural_probe_round_trips(self, kernel):
        names = [kernel.names[index] for index in kernel.topo_order]
        producer = next(i for i in kernel.topo_order if kernel.dependents_of(i))
        applicable = [
            StructureOverlay.noop(),
            StructureOverlay.add_task("extra", wcet=7, core=1, demand={0: 2, 1: 1}),
            StructureOverlay.remove_task(names[-1]),
            StructureOverlay.add_edge(names[0], names[5], volume=3),
            StructureOverlay.remove_edge(
                kernel.names[producer], kernel.names[kernel.dependents_of(producer)[0]]
            ),
            StructureOverlay.remap_task(names[1], core=2),
        ]
        for delta in applicable:
            probe = PatchedProblem(kernel, delta, name=f"probe-{delta.kind}")
            record = delta_to_dict(probe)
            assert record == structure_delta_to_dict(delta, name=probe.name)
            assert is_structure_delta(record)
            assert delta_parent(probe) is kernel
            rebuilt = delta_from_dict(record, delta_parent(probe))
            assert isinstance(rebuilt, PatchedProblem)
            assert rebuilt.name == probe.name
            assert rebuilt.delta == delta

    def test_overlay_probe_round_trips(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(1.5), name="w15")
        record = delta_to_dict(probe)
        assert record["format"] == "repro-overlay"
        assert not is_structure_delta(record)
        assert delta_parent(probe) is kernel
        rebuilt = delta_from_dict(record, kernel)
        assert type(rebuilt) is OverlayProblem
        assert rebuilt.kernel is kernel
        assert rebuilt.overlay == probe.overlay
        assert rebuilt.name == "w15"

    def test_handed_over_child_and_warm_bundle_are_reused(self, kernel):
        names = [kernel.names[index] for index in kernel.topo_order]
        probe = PatchedProblem(
            kernel,
            StructureOverlay.remap_task(names[1], core=2),
            parent_schedule=analyze_incremental(kernel.problem),
        )
        rebuilt = delta_from_dict(
            delta_to_dict(probe), kernel, child=probe.kernel, warm=probe.warm
        )
        assert rebuilt.kernel is probe.kernel
        assert rebuilt.warm is probe.warm

    def test_foreign_records_rejected(self, kernel):
        for record in ({"format": "repro-problem"}, {"version": 1}, [], "x", None):
            with pytest.raises(SerializationError, match="repro-overlay"):
                is_structure_delta(record)
            with pytest.raises(SerializationError, match="repro-structure-delta"):
                delta_from_dict(record, kernel)


class TestStrictKeyRejection:
    """Satellite hardening: version-skewed peers fail loudly, not silently."""

    def test_unknown_key_rejected_with_key_name_in_message(self):
        record = structure_delta_to_dict(StructureOverlay.noop())
        record["speculative"] = True
        with pytest.raises(SerializationError, match="speculative"):
            structure_delta_from_dict(record)

    def test_key_from_another_kind_rejected(self, kernel):
        names = [kernel.names[index] for index in kernel.topo_order]
        record = structure_delta_to_dict(StructureOverlay.remove_task(names[0]))
        record["core"] = 1  # remap_task vocabulary on a remove_task record
        with pytest.raises(SerializationError, match="core"):
            structure_delta_from_dict(record)

    def test_unknown_kind_rejected(self):
        record = {
            "format": "repro-structure-delta",
            "version": 1,
            "kind": "swap_tasks",
        }
        with pytest.raises(SerializationError, match="swap_tasks"):
            structure_delta_from_dict(record)

    def test_foreign_document_rejected(self):
        with pytest.raises(SerializationError, match="repro-structure-delta"):
            structure_delta_from_dict({"format": "repro-overlay", "version": 1})
        with pytest.raises(SerializationError):
            structure_delta_from_dict("not-a-record")

    def test_overlay_reader_still_rejects_unknown_keys(self, kernel):
        overlay_record = {
            "format": "repro-overlay",
            "version": 1,
            "has_horizon": False,
            "mystery": 1,
        }
        with pytest.raises(SerializationError, match="mystery"):
            overlay_from_dict(overlay_record, kernel)
