"""Service-layer tests of the overlay (delta) wire format: server batch form,
client delta batches, dispatcher grouping, and the remote search end-to-end."""

import pytest

from repro import AnalysisProblem, TaskGraphBuilder
from repro.analysis import SearchDriver, memory_sensitivity
from repro.core import ParamOverlay, analyze, compile_problem
from repro.engine.jobs import AnalysisJob
from repro.errors import ServiceError
from repro.generators import fixed_ls_workload
from repro.io import overlay_from_dict, overlay_to_dict, problem_to_dict
from repro.platform import partitioned_banks
from repro.service import AnalysisServer, ClusterDispatcher, EngineRuntime, ServiceClient


@pytest.fixture
def problem():
    return fixed_ls_workload(20, 4, core_count=4, seed=23).to_problem(horizon=22_000)


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


class TestOverlayWireFormat:
    def test_round_trip(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name="d15")
        record = overlay_to_dict(probe)
        assert record["format"] == "repro-overlay"
        rebuilt = overlay_from_dict(record, kernel)
        assert rebuilt.name == "d15"
        assert rebuilt.overlay == probe.overlay
        assert rebuilt.horizon == probe.horizon

    def test_horizon_tristate_round_trip(self, kernel):
        for overlay in (ParamOverlay(), ParamOverlay(horizon=None), ParamOverlay(horizon=9)):
            probe = kernel.with_overlay(overlay)
            rebuilt = overlay_from_dict(overlay_to_dict(probe), kernel)
            assert rebuilt.horizon == probe.horizon
            assert rebuilt.overlay == probe.overlay

    def test_foreign_document_rejected(self, kernel):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            overlay_from_dict({"format": "repro-problem"}, kernel)

    def test_wrong_vector_length_rejected(self, kernel):
        from repro.errors import SerializationError

        record = overlay_to_dict(kernel.with_overlay(kernel.scaled_wcet_overlay(2.0)))
        record["wcet"] = record["wcet"][:-1]
        with pytest.raises(SerializationError):
            overlay_from_dict(record, kernel)


class TestServerDeltaBatch:
    def test_client_delta_batch_matches_local_analysis(self, server, kernel):
        client = ServiceClient(server.url)
        probes = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor), name=f"w-{factor}")
            for factor in (1.0, 1.5, 2.0)
        ]
        remote = client.analyze_many_overlays(probes)
        for probe, schedule in zip(probes, remote):
            local = analyze(probe)
            assert schedule.to_dict()["entries"] == local.to_dict()["entries"]
            assert schedule.problem_name == probe.name

    def test_mixed_kernels_rejected_client_side(self, server, problem):
        client = ServiceClient(server.url)
        probes = [
            compile_problem(problem).with_overlay(ParamOverlay())
            for _ in range(2)  # two separately compiled kernels
        ]
        with pytest.raises(ServiceError):
            client.analyze_many_overlays(probes)

    def test_malformed_overlay_is_a_400(self, server, kernel):
        client = ServiceClient(server.url)
        document = {
            "problem": problem_to_dict(kernel.problem),
            "deltas": [{"format": "repro-overlay", "version": 1, "wcet": [1]}],
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/batch", document)
        assert excinfo.value.status == 400
        assert "deltas[0]" in str(excinfo.value)

    def test_overlay_on_unknown_bank_is_a_400(self, server, kernel):
        record = overlay_to_dict(kernel.with_overlay(ParamOverlay()))
        record["accesses"] = [{"0": 1} for _ in kernel.names]
        record["accesses"][3] = {"999": 5}
        document = {
            "problem": problem_to_dict(kernel.problem),
            "deltas": [overlay_to_dict(kernel.with_overlay(ParamOverlay())), record],
        }
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._request("POST", "/batch", document)
        assert excinfo.value.status == 400
        assert "deltas[1]" in str(excinfo.value)
        assert "bank 999" in str(excinfo.value)

    def test_overlay_on_foreign_reserved_bank_is_a_400(self, server):
        builder = TaskGraphBuilder("private")
        builder.task("a", wcet=10, accesses={0: 4}, core=0)
        builder.task("b", wcet=10, accesses={1: 4}, core=1)
        graph, mapping = builder.build_both()
        # banks 0 and 1 are reserved for cores 0 and 1
        problem = AnalysisProblem(graph, mapping, partitioned_banks(2))
        record = overlay_to_dict(compile_problem(problem).with_overlay(ParamOverlay()))
        record["accesses"] = [{"1": 4}, {"1": 4}]
        document = {"problem": problem_to_dict(problem), "deltas": [record]}
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._request("POST", "/batch", document)
        assert excinfo.value.status == 400
        assert "deltas[0]" in str(excinfo.value)
        assert "reserved for core 1" in str(excinfo.value)

    def test_server_compiles_base_once_per_delta_batch(self, server, kernel):
        from repro.core import compilation_count

        client = ServiceClient(server.url)
        probes = [
            kernel.with_overlay(kernel.scaled_demand_overlay(factor))
            for factor in (0.5, 1.0, 1.5, 2.0, 2.5)
        ]
        before = compilation_count()
        client.analyze_many_overlays(probes)
        # one server-side base compilation for the whole 5-probe batch (the
        # inline server runs in this process, so the counter sees it)
        assert compilation_count() - before == 1

    def test_stats_expose_kernel_compilations(self, server):
        stats = ServiceClient(server.url).stats()
        assert "kernel_compilations" in stats["runtime"]
        metrics = ServiceClient(server.url).metrics()
        assert "repro_runtime_kernel_compilations_total" in metrics


class TestDispatcherDeltaGrouping:
    def test_plan_units_groups_same_kernel_probes(self, kernel, problem):
        dispatcher = ClusterDispatcher(["127.0.0.1:1"], delta_batch=3)
        try:
            other = fixed_ls_workload(10, 2, core_count=2, seed=3).to_problem()
            jobs = [
                AnalysisJob(problem=probe, index=i)
                for i, probe in enumerate(
                    [
                        kernel.with_overlay(kernel.scaled_wcet_overlay(f))
                        for f in (1.0, 1.2, 1.4, 1.6, 1.8)
                    ]
                )
            ]
            jobs.append(AnalysisJob(problem=other, index=5))
            units = dispatcher._plan_units(jobs)
            # plain job alone, 5 same-kernel probes chunked 3 + 2
            sizes = sorted(len(unit) for unit in units)
            assert sizes == [1, 2, 3]
            plain_units = [u for u in units if u == [5]]
            assert plain_units  # the foreign problem dispatches per-job
        finally:
            dispatcher.close()

    def test_delta_rejection_falls_back_to_per_job_dispatch(self, kernel):
        """A pre-delta-wire server (400 on the overlay form) still serves probes."""
        from repro import analyze

        calls = {"delta": 0, "single": 0}

        class LegacyClient:
            def __init__(self, base_url, *, timeout=None):
                self.base_url = base_url

            def analyze_many_overlays(self, probes, *, algorithm=None, priority=0):
                calls["delta"] += 1
                raise ServiceError("unknown batch form", status=400)

            def analyze(self, problem, *, algorithm=None, priority=0):
                calls["single"] += 1
                return analyze(problem, algorithm or "incremental")

            def healthz(self):
                return {"status": "ok"}

            def stats(self):
                return {}

        dispatcher = ClusterDispatcher(
            ["127.0.0.1:9"], client_factory=LegacyClient, retries=0
        )
        try:
            probes = [
                kernel.with_overlay(kernel.scaled_wcet_overlay(f), name=f"x{f}")
                for f in (1.0, 1.5)
            ]
            jobs = [AnalysisJob(problem=p, index=i) for i, p in enumerate(probes)]
            schedules = dispatcher.run(jobs)
        finally:
            dispatcher.close()
        assert calls["delta"] == 1 and calls["single"] == 2
        for probe, schedule in zip(probes, schedules):
            assert schedule.to_dict()["entries"] == analyze(probe).to_dict()["entries"]

    def test_remote_search_is_bit_identical_and_delta_batched(self, server, problem):
        serial = memory_sensitivity(problem)
        requests_before = server._requests
        with EngineRuntime(backend="remote", endpoints=[server.url]) as runtime:
            remote = memory_sensitivity(problem, driver=SearchDriver(runtime=runtime))
        assert remote == serial  # factor, makespan AND probe trace
        requests = server._requests - requests_before
        # delta batching: whole generations travel as single /batch requests,
        # so the HTTP request count stays below the probe count
        assert requests < len(serial.probes) + 1
