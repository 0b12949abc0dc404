"""In-process pools pass objects: no codec runs inside one address space.

The ``thread`` and ``inline`` runtimes hand :class:`AnalysisJob` objects to
their workers and get :class:`Schedule` objects back; a memory-tier cache
holds schedules, and hits, duplicates and coalesced callers are relabeled
instead of cloned through a dict.  These tests count every codec entry point
over a mixed batch (plain problems, overlay probes, structural probes) run as
a miss and then as a memory hit, and count the content digests a request
pays in the job queue.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ParamOverlay,
    PatchedProblem,
    Schedule,
    StructureOverlay,
    analyze,
    compile_problem,
)
from repro.engine import BatchAnalyzer, ResultCache
from repro.engine import jobs as jobs_module
from repro.engine.jobs import AnalysisJob
from repro.generators import ChainsConfig, generate_chains
from repro.io import json_io
from repro.service import EngineRuntime, JobQueue

CODEC = (
    (Schedule, "from_dict", True),
    (Schedule, "to_dict", False),
    (AnalysisJob, "to_payload", False),
    (AnalysisJob, "from_payload", True),
)


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of every codec entry point, keyed by its name."""
    counts = {name: 0 for _owner, name, _cls in CODEC}
    counts["problem_from_dict"] = 0

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, name, is_classmethod in CODEC:
        original = getattr(owner, name)
        if is_classmethod:
            monkeypatch.setattr(owner, name, classmethod(counting(name, original.__func__)))
        else:
            monkeypatch.setattr(owner, name, counting(name, original))
    monkeypatch.setattr(
        json_io, "problem_from_dict", counting("problem_from_dict", json_io.problem_from_dict)
    )
    return counts


@pytest.fixture
def digest_calls(monkeypatch):
    """Number of :func:`split_problem_digests` calls made through the jobs."""
    calls = [0]
    original = jobs_module.split_problem_digests

    def counting(problem):
        calls[0] += 1
        return original(problem)

    monkeypatch.setattr(jobs_module, "split_problem_digests", counting)
    return calls


def _base(seed: int):
    workload = generate_chains(
        ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=seed)
    )
    return workload.to_problem(horizon=200_000)


def _mixed_batch(seed: int):
    """Plain problems, overlay probes and warm structural probes of one parent."""
    base = _base(seed)
    kernel = compile_problem(base)
    parent = analyze(base, "incremental")
    names = [kernel.names[index] for index in kernel.topo_order]
    plain = [base, _base(seed + 1)]
    overlays = [
        kernel.with_overlay(
            ParamOverlay(wcet=[value + step for value in kernel.wcet]), name=f"overlay-{step}"
        )
        for step in (1, 2)
    ]
    structural = [
        PatchedProblem(kernel, delta, name=f"structural-{k}", parent_schedule=parent)
        for k, delta in enumerate(
            [
                StructureOverlay.remap_task(names[3], core=1),
                StructureOverlay.add_edge(names[0], names[7], volume=2),
            ]
        )
    ]
    return plain + overlays + structural


def _fingerprint(schedules):
    return [
        (schedule.problem_name, [entry.to_dict() for entry in schedule], schedule.makespan)
        for schedule in schedules
    ]


@pytest.mark.parametrize("backend", ["thread", "inline"])
def test_batch_miss_then_memory_hit_runs_no_codec(backend, codec_calls):
    problems = _mixed_batch(seed=21)
    runtime = EngineRuntime(backend=backend, max_workers=2, cache=ResultCache())
    try:
        analyzer = BatchAnalyzer("incremental", runtime=runtime)
        miss = analyzer.run(problems)
        hit = analyzer.run(problems)
        stats = runtime.stats()
    finally:
        runtime.close()
    assert codec_calls == {name: 0 for name in codec_calls}
    assert (miss.computed, hit.cached) == (len(problems), len(problems))
    assert stats.cache["memory_hits"] == len(problems)
    assert stats.pools_created == (1 if backend == "thread" else 0)
    expected = [analyze(problem, "incremental") for problem in problems]
    assert _fingerprint(miss.schedules) == _fingerprint(expected)
    assert _fingerprint(hit.schedules) == _fingerprint(expected)


@pytest.mark.parametrize("backend", ["thread", "inline"])
def test_queue_runs_no_codec_and_digests_once_per_request(
    backend, codec_calls, digest_calls
):
    problems = _mixed_batch(seed=31)
    runtime = EngineRuntime(backend=backend, max_workers=2, cache=ResultCache())
    queue = JobQueue(runtime, algorithm="incremental")
    try:
        for round_ in ("miss", "hit"):
            digest_calls[0] = 0
            futures = queue.map(problems)
            schedules = [future.result(timeout=60) for future in futures]
            assert digest_calls[0] == len(problems), round_
            assert [schedule.problem_name for schedule in schedules] == [
                problem.name for problem in problems
            ]
            for problem in problems:
                digest_calls[0] = 0
                schedule = queue.submit(problem).result(timeout=60)
                assert digest_calls[0] == 1, round_
                assert schedule.problem_name == problem.name
    finally:
        queue.close()
        runtime.close()
    assert codec_calls == {name: 0 for name in codec_calls}


def test_process_pool_still_speaks_the_codec(codec_calls):
    """The worker-process edge keeps its payloads (the counters are live)."""
    problems = _mixed_batch(seed=41)[:3]
    runtime = EngineRuntime(backend="process", max_workers=2, cache=ResultCache())
    try:
        schedules = BatchAnalyzer("incremental", runtime=runtime).run(problems).schedules
    finally:
        runtime.close()
    assert codec_calls["to_payload"] == len(problems)
    assert codec_calls["from_dict"] == len(problems)  # one record back per job
    expected = [analyze(problem, "incremental") for problem in problems]
    assert _fingerprint(schedules) == _fingerprint(expected)
