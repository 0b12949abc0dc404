"""Engine transport of structural jobs: payloads, kernel memo, warm bundles."""

import pickle

import pytest

from repro.core import (
    PatchedProblem,
    StructureOverlay,
    analyze,
    analyze_incremental,
    compile_problem,
)
from repro.engine.executor import run_jobs
from repro.engine.jobs import AnalysisJob, _warm_start_from_payload
from repro.generators import ChainsConfig, generate_chains


@pytest.fixture
def base_problem():
    workload = generate_chains(
        ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=11)
    )
    return workload.to_problem(horizon=200_000)


@pytest.fixture
def kernel(base_problem):
    return compile_problem(base_problem)


@pytest.fixture
def parent_schedule(base_problem):
    return analyze_incremental(base_problem)


def _names(kernel):
    return [kernel.names[index] for index in kernel.topo_order]


def _probes(kernel, parent_schedule):
    names = _names(kernel)
    deltas = [
        StructureOverlay.noop(),
        StructureOverlay.remap_task(names[3], core=1),
        StructureOverlay.add_edge(names[0], names[7], volume=2),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_task("extra", wcet=9, core=2, demand={0: 3}),
    ]
    return [
        PatchedProblem(
            kernel, delta, name=f"probe-{k}", parent_schedule=parent_schedule
        )
        for k, delta in enumerate(deltas)
    ]


def _clear_kernel_memo():
    """Force the worker-side parse+patch path (the memo would shortcut it)."""
    from repro.engine import jobs as jobs_module

    with jobs_module._KERNEL_MEMO_LOCK:
        jobs_module._KERNEL_MEMO.clear()


class TestStructuralPayloads:
    def test_payload_round_trip_is_bit_identical_and_warm(
        self, kernel, parent_schedule
    ):
        for probe in _probes(kernel, parent_schedule):
            expected = analyze(probe, "incremental")
            job = AnalysisJob(problem=probe, algorithm="incremental", index=2)
            payload = job.to_payload()
            assert payload["delta"]["format"] == "repro-structure-delta"
            assert "base_problem" in payload
            assert "base_structure_digest" in payload
            _clear_kernel_memo()
            rebuilt = AnalysisJob.from_payload(payload)
            schedule = rebuilt.run()
            assert schedule.to_dict()["entries"] == expected.to_dict()["entries"]
            assert schedule.schedulable == expected.schedulable
            assert (
                schedule.stats.warm_start_hits == expected.stats.warm_start_hits
            )

    def test_payload_survives_pickle_like_a_pool_would(
        self, kernel, parent_schedule
    ):
        probes = _probes(kernel, parent_schedule)
        expected = [analyze(p, "incremental") for p in probes]
        payloads = [AnalysisJob(problem=p, algorithm="incremental").to_payload() for p in probes]
        wire = pickle.dumps(payloads)
        _clear_kernel_memo()
        for payload, reference in zip(pickle.loads(wire), expected):
            schedule = AnalysisJob.from_payload(payload).run()
            assert schedule.to_dict()["entries"] == reference.to_dict()["entries"]

    def test_round_trip_via_structure_table(self, kernel, parent_schedule):
        probe = _probes(kernel, parent_schedule)[1]
        job = AnalysisJob(problem=probe, algorithm="incremental")
        payload = job.to_payload()
        base_document = payload.pop("base_problem")
        structures = {payload["base_structure_digest"]: base_document}
        _clear_kernel_memo()
        rebuilt = AnalysisJob.from_payload(payload, structures=structures)
        expected = analyze(probe, "incremental")
        assert rebuilt.run().to_dict()["entries"] == expected.to_dict()["entries"]

    def test_unresolvable_warm_reference_degrades_to_cold(
        self, kernel, parent_schedule
    ):
        probe = _probes(kernel, parent_schedule)[1]
        job = AnalysisJob(problem=probe, algorithm="incremental")
        payload = job.to_payload()
        # simulate a factored-out parent schedule whose table entry got lost
        payload["warm_start"] = {
            **payload["warm_start"],
            "schedule": "warm:0000:incremental",
        }
        _clear_kernel_memo()
        rebuilt = AnalysisJob.from_payload(payload, structures={})
        schedule = rebuilt.run()
        expected = analyze(PatchedProblem(kernel, probe.delta, name=probe.name))
        assert schedule.stats.warm_start_hits == 0
        assert schedule.to_dict()["entries"] == expected.to_dict()["entries"]

    def test_warm_start_from_payload_rejects_garbage(self):
        assert _warm_start_from_payload(None, None, None) is None
        assert _warm_start_from_payload("nope", None, None) is None
        assert _warm_start_from_payload({"schedule": "warm:x"}, None, None) is None


class TestStructuralDigests:
    def test_noop_probe_digests_identically_to_parent(
        self, kernel, base_problem, parent_schedule
    ):
        noop = PatchedProblem(
            kernel, StructureOverlay.noop(), parent_schedule=parent_schedule
        )
        assert AnalysisJob(problem=noop).digest == AnalysisJob(problem=base_problem).digest

    def test_edited_probe_digests_differently(self, kernel, base_problem, parent_schedule):
        probe = _probes(kernel, parent_schedule)[1]
        assert AnalysisJob(problem=probe).digest != AnalysisJob(problem=base_problem).digest


class TestStructuralPoolExecution:
    def test_pooled_and_serial_runs_are_bit_identical(self, kernel, parent_schedule):
        probes = _probes(kernel, parent_schedule)
        jobs = [
            AnalysisJob(problem=probe, algorithm="incremental", index=i)
            for i, probe in enumerate(probes)
        ]
        pooled = run_jobs(jobs, max_workers=3)
        serial = [analyze(probe, "incremental") for probe in probes]
        warm_hits = 0
        for left, right in zip(pooled, serial):
            assert left.to_dict()["entries"] == right.to_dict()["entries"]
            assert left.problem_name == right.problem_name
            warm_hits += left.stats.warm_start_hits
        assert warm_hits >= len(probes) - 1  # every non-degenerate probe resumed warm
