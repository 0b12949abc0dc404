"""Engine-layer tests of the split digest and the overlay job transport."""

import pytest

from repro import analyze
from repro.core import ParamOverlay, compile_problem
from repro.engine import BatchAnalyzer, analyze_many
from repro.engine.executor import run_jobs
from repro.engine.jobs import SCHEMA_VERSION, AnalysisJob, split_problem_digests
from repro.generators import fixed_ls_workload


@pytest.fixture
def base_problem():
    return fixed_ls_workload(24, 4, core_count=4, seed=5).to_problem(horizon=40_000)


@pytest.fixture
def kernel(base_problem):
    return compile_problem(base_problem)


class TestSplitDigests:
    def test_cache_key_carries_combined_digest_and_schema(self, base_problem):
        job = AnalysisJob(problem=base_problem, algorithm="incremental")
        assert job.cache_key == f"{job.digest}:incremental:v{SCHEMA_VERSION}"
        assert job.digest.startswith(job.digest[:8])  # 64-hex sanity
        assert len(job.structure_digest) == 64
        assert len(job.overlay_digest) == 64

    def test_structure_digest_invariant_under_parameter_changes(self, kernel):
        a = AnalysisJob(problem=kernel.with_overlay(kernel.scaled_wcet_overlay(1.5)))
        b = AnalysisJob(problem=kernel.with_overlay(kernel.scaled_demand_overlay(0.5)))
        c = AnalysisJob(problem=kernel.with_overlay(ParamOverlay(horizon=None)))
        assert a.structure_digest == b.structure_digest == c.structure_digest
        assert len({a.overlay_digest, b.overlay_digest, c.overlay_digest}) == 3
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_probe_and_materialized_share_cache_entries(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(2.0), name="x2")
        materialized = probe.materialize()
        analyzer = BatchAnalyzer(max_workers=1)
        first = analyzer.run([probe])
        second = analyzer.run([materialized])
        assert (first.computed, first.cached) == (1, 0)
        assert (second.computed, second.cached) == (0, 1)  # pure cache hit
        assert first.schedules[0].makespan == second.schedules[0].makespan

    def test_intra_batch_dedup_across_forms(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(2.0), name="as-probe")
        materialized = probe.materialize()
        report = BatchAnalyzer(max_workers=1).run([probe, materialized])
        assert report.computed == 1
        assert report.cached == 1
        assert report.schedules[0].makespan == report.schedules[1].makespan
        assert report.schedules[1].problem_name == "as-probe"  # relabeled clone

    def test_batch_report_counts_structures(self, kernel, base_problem):
        other = fixed_ls_workload(12, 3, core_count=3, seed=99).to_problem()
        probes = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor))
            for factor in (1.0, 1.5, 2.0)
        ]
        report = BatchAnalyzer(max_workers=1).run([*probes, other])
        assert report.structures == 2  # one shared kernel + one foreign problem


def _clear_kernel_memo():
    """Force the worker-side parse+compile path (the memo would shortcut it)."""
    from repro.engine import jobs as jobs_module

    with jobs_module._KERNEL_MEMO_LOCK:
        jobs_module._KERNEL_MEMO.clear()


class TestOverlayPayloadTransport:
    def test_payload_round_trip_with_inline_base(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_demand_overlay(1.5), name="d15")
        job = AnalysisJob(problem=probe, algorithm="incremental", index=3)
        payload = job.to_payload()
        assert "delta" in payload and "base_problem" in payload
        assert payload["delta"]["format"] == "repro-overlay"
        assert payload["base_structure_digest"] == job.structure_digest
        _clear_kernel_memo()
        rebuilt = AnalysisJob.from_payload(payload)
        assert rebuilt.index == 3
        assert rebuilt.name == "d15"
        assert rebuilt.split_digests == job.split_digests
        assert (
            rebuilt.run().to_dict()["entries"] == analyze(probe).to_dict()["entries"]
        )

    def test_payload_round_trip_via_structure_table(self, kernel):
        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(1.2), name="w12")
        job = AnalysisJob(problem=probe)
        payload = job.to_payload()
        base_document = payload.pop("base_problem")
        structures = {job.structure_digest: base_document}
        _clear_kernel_memo()
        rebuilt = AnalysisJob.from_payload(payload, structures=structures)
        assert rebuilt.run().schedulable == analyze(probe).schedulable

    def test_payload_without_base_or_table_fails_cleanly(self, kernel):
        from repro.errors import EngineError

        probe = kernel.with_overlay(kernel.scaled_wcet_overlay(1.2))
        payload = AnalysisJob(problem=probe).to_payload()
        payload.pop("base_problem")
        # poison the memo key so the worker-side kernel cache cannot serve it
        payload["base_structure_digest"] = "0" * 64
        with pytest.raises(EngineError):
            AnalysisJob.from_payload(payload, structures={})

    def test_process_pool_runs_overlay_jobs(self, kernel):
        probes = [
            kernel.with_overlay(kernel.scaled_wcet_overlay(factor), name=f"w{factor}")
            for factor in (1.0, 1.3, 1.6, 2.0)
        ]
        jobs = [
            AnalysisJob(problem=probe, algorithm="incremental", index=i)
            for i, probe in enumerate(probes)
        ]
        parallel = run_jobs(jobs, max_workers=2)
        serial = [analyze(probe) for probe in probes]
        for left, right in zip(parallel, serial):
            assert left.to_dict()["entries"] == right.to_dict()["entries"]
            assert left.problem_name == right.problem_name

    def test_analyze_many_mixes_probes_and_problems(self, kernel, base_problem):
        probes = [
            kernel.with_overlay(kernel.scaled_demand_overlay(factor))
            for factor in (0.5, 1.5)
        ]
        schedules = analyze_many([base_problem, *probes], max_workers=2)
        reference = [analyze(base_problem), *(analyze(p) for p in probes)]
        for left, right in zip(schedules, reference):
            assert left.to_dict()["entries"] == right.to_dict()["entries"]
