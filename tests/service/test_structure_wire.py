"""Service-layer tests of the structural-delta wire form: server batch form,
client structure batches, dispatcher sub-batch planning, and remote what-ifs."""

import pytest

from repro.core import (
    PatchedProblem,
    StructureOverlay,
    analyze,
    analyze_incremental,
    compile_problem,
)
from repro.engine.jobs import AnalysisJob
from repro.errors import ServiceError
from repro.generators import ChainsConfig, generate_chains
from repro.io import problem_to_dict, structure_delta_to_dict
from repro.service import AnalysisServer, ClusterDispatcher, EngineRuntime, ServiceClient


@pytest.fixture
def problem():
    workload = generate_chains(
        ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=11)
    )
    return workload.to_problem(horizon=200_000)


@pytest.fixture
def kernel(problem):
    return compile_problem(problem)


@pytest.fixture
def server():
    runtime = EngineRuntime(backend="inline")
    server = AnalysisServer(runtime, port=0).start()
    try:
        yield server
    finally:
        server.close()
        runtime.close()


def _probes(kernel):
    names = [kernel.names[index] for index in kernel.topo_order]
    deltas = [
        StructureOverlay.remap_task(names[3], core=1),
        StructureOverlay.add_edge(names[0], names[7], volume=2),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_task("extra", wcet=9, core=2, demand={0: 3}),
    ]
    return [
        PatchedProblem(kernel, delta, name=f"probe-{k}")
        for k, delta in enumerate(deltas)
    ]


class TestServerStructuralBatch:
    def test_client_structure_batch_matches_local_analysis(self, server, kernel):
        client = ServiceClient(server.url)
        probes = _probes(kernel)
        remote = client.analyze_many_structures(probes, algorithm="incremental")
        for probe, schedule in zip(probes, remote):
            local = analyze(probe, "incremental")
            assert schedule.to_dict()["entries"] == local.to_dict()["entries"]
            assert schedule.schedulable == local.schedulable
            assert schedule.problem_name == probe.name

    def test_server_warm_starts_probes_and_counts_hits(self, server, kernel):
        client = ServiceClient(server.url)
        remote = client.analyze_many_structures(_probes(kernel), algorithm="incremental")
        returned_hits = sum(s.stats.warm_start_hits for s in remote)
        # the server derives warm bundles from its own parent analysis; the
        # probes resume from it (a probe dirty from time zero legitimately
        # has no prefix to replay) and the runtime counter aggregates them
        assert returned_hits > 0
        stats = client.stats()["runtime"]
        assert stats["warm_start_hits"] == returned_hits

    def test_server_compiles_base_once_per_structural_batch(self, server, kernel):
        from repro.core import compilation_count

        client = ServiceClient(server.url)
        before = compilation_count()
        client.analyze_many_structures(_probes(kernel), algorithm="incremental")
        # one server-side base compilation; probes are patched, not compiled
        # (the inline server runs in this process, so the counter sees it)
        assert compilation_count() - before == 1

    def test_unknown_delta_key_is_a_400(self, server, kernel):
        client = ServiceClient(server.url)
        record = structure_delta_to_dict(StructureOverlay.noop())
        record["surprise"] = 1
        document = {
            "problem": problem_to_dict(kernel.problem),
            "deltas": [record],
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/batch", document)
        assert excinfo.value.status == 400
        assert "deltas[0]" in str(excinfo.value)

    def test_delta_against_unknown_task_is_a_400(self, server, kernel):
        client = ServiceClient(server.url)
        record = structure_delta_to_dict(StructureOverlay.remove_task("no-such-task"))
        document = {
            "problem": problem_to_dict(kernel.problem),
            "deltas": [record],
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/batch", document)
        assert excinfo.value.status == 400

    def test_mixed_overlay_and_structure_batch_matches_local_analysis(
        self, server, kernel
    ):
        from repro.core import compilation_count

        client = ServiceClient(server.url)
        structural = _probes(kernel)
        overlays = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor), name=f"w-{factor}")
            for factor in (1.0, 1.5)
        ]
        probes = [overlays[0], *structural[:2], overlays[1], *structural[2:]]
        before = compilation_count()
        remote = client.analyze_many_overlays(probes, algorithm="incremental")
        # one server-side parent compilation for the whole mixed batch
        assert compilation_count() - before == 1
        for probe, schedule in zip(probes, remote):
            local = analyze(probe, "incremental")
            assert schedule.to_dict()["entries"] == local.to_dict()["entries"]
            assert schedule.schedulable == local.schedulable
            assert schedule.problem_name == probe.name
        structural_hits = sum(
            schedule.stats.warm_start_hits
            for probe, schedule in zip(probes, remote)
            if isinstance(probe, PatchedProblem)
        )
        overlay_hits = sum(
            schedule.stats.warm_start_hits
            for probe, schedule in zip(probes, remote)
            if not isinstance(probe, PatchedProblem)
        )
        assert structural_hits > 0 and overlay_hits == 0
        assert client.stats()["runtime"]["warm_start_hits"] == structural_hits

    @pytest.mark.parametrize("legacy", ["overlays", "structure_deltas"])
    def test_legacy_batch_keys_are_a_400(self, server, kernel, legacy):
        client = ServiceClient(server.url)
        document = {
            "problem": problem_to_dict(kernel.problem),
            legacy: [structure_delta_to_dict(StructureOverlay.noop())],
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/batch", document)
        assert excinfo.value.status == 400
        assert legacy in str(excinfo.value)

    def test_mixed_parents_rejected_client_side(self, server, problem):
        client = ServiceClient(server.url)
        probes = [
            PatchedProblem(compile_problem(problem), StructureOverlay.noop())
            for _ in range(2)  # two separately compiled parents
        ]
        with pytest.raises(ServiceError):
            client.analyze_many_structures(probes)

    def test_non_probe_rejected_client_side(self, server, problem):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError):
            client.analyze_many_structures([problem])
        with pytest.raises(ServiceError):
            client.analyze_many_structures([])


class TestDispatcherStructuralUnits:
    def test_plan_units_groups_same_parent_probes(self, kernel, problem):
        dispatcher = ClusterDispatcher(["127.0.0.1:1"], delta_batch=3)
        try:
            jobs = [
                AnalysisJob(problem=probe, index=i)
                for i, probe in enumerate(_probes(kernel))
            ]
            jobs.append(AnalysisJob(problem=problem, index=len(jobs)))
            units = dispatcher._plan_units(jobs)
            # plain job alone, 4 same-parent probes chunked 3 + 1
            sizes = sorted(len(unit) for unit in units)
            assert sizes == [1, 1, 3]
        finally:
            dispatcher.close()

    def test_structural_rejection_falls_back_to_per_job_dispatch(self, kernel):
        """A pre-structural-wire server (400 on the form) still serves probes."""
        from repro import analyze as top_analyze

        calls = {"structure": 0, "single": 0}

        class LegacyClient:
            def __init__(self, base_url, *, timeout=None):
                self.base_url = base_url

            def analyze_many_overlays(self, probes, *, algorithm=None, priority=0):
                calls["structure"] += 1
                raise ServiceError("unknown batch form", status=400)

            def analyze(self, problem, *, algorithm=None, priority=0):
                calls["single"] += 1
                return top_analyze(problem, algorithm or "incremental")

            def healthz(self):
                return {"status": "ok"}

            def stats(self):
                return {}

        dispatcher = ClusterDispatcher(
            ["127.0.0.1:9"], client_factory=LegacyClient, retries=0
        )
        try:
            probes = _probes(kernel)[:2]
            jobs = [AnalysisJob(problem=p, index=i) for i, p in enumerate(probes)]
            schedules = dispatcher.run(jobs)
        finally:
            dispatcher.close()
        assert calls["structure"] == 1 and calls["single"] == 2
        for probe, schedule in zip(probes, schedules):
            local = top_analyze(probe)
            assert schedule.to_dict()["entries"] == local.to_dict()["entries"]

    def test_mixed_generation_dispatches_as_one_unit(self, server, kernel):
        probes = [
            *_probes(kernel),
            kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name="d15"),
        ]
        expected = [analyze(p, "incremental") for p in probes]
        dispatcher = ClusterDispatcher([server.url])  # delta_batch=8 > 5 probes
        jobs = [
            AnalysisJob(problem=p, algorithm="incremental", index=i)
            for i, p in enumerate(probes)
        ]
        try:
            assert dispatcher._plan_units(jobs) == [list(range(len(probes)))]
        finally:
            dispatcher.close()
        requests_before = server._requests
        with EngineRuntime(backend="remote", endpoints=[server.url]) as runtime:
            remote = runtime.run(jobs)
        for left, right in zip(remote, expected):
            assert left.to_dict()["entries"] == right.to_dict()["entries"]
        # the overlay and structural probes travel as one /batch request
        assert server._requests - requests_before == 1

    def test_remote_backend_is_bit_identical_and_batched(self, server, kernel):
        probes = _probes(kernel)
        expected = [analyze(p, "incremental") for p in probes]
        requests_before = server._requests
        with EngineRuntime(backend="remote", endpoints=[server.url]) as runtime:
            jobs = [
                AnalysisJob(problem=p, algorithm="incremental", index=i)
                for i, p in enumerate(probes)
            ]
            remote = runtime.run(jobs)
        for left, right in zip(remote, expected):
            assert left.to_dict()["entries"] == right.to_dict()["entries"]
        # the whole same-parent grid travels as one structural /batch request
        assert server._requests - requests_before < len(probes) + 1
