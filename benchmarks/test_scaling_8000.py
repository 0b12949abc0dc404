"""E11 — scaling claim of Section VI: more than 8000 tasks in reasonable time.

The conclusion of the paper claims the incremental analysis scales "to more
than 8000 tasks while maintaining a reasonable execution time".  These
benchmarks measure the incremental algorithm at 2048, 4096 and 8192 tasks
(LS64 configuration, the one used for the paper's largest runs) and assert a
generous notion of "reasonable" so the suite stays robust across machines.
The O(n⁴)-class baseline is *not* run at these sizes — extrapolating its
measured growth law (see ``test_complexity_exponents.py``) is exactly how the
paper argues it would take hours.
"""

import pytest

from repro.core import analyze

from workloads import build_problem

SIZES = [2048, 4096, 8192]


@pytest.mark.parametrize("tasks", SIZES)
def test_scaling_incremental_ls64(benchmark, tasks):
    problem = build_problem("LS", 64, tasks)
    benchmark.extra_info["tasks"] = tasks
    benchmark.extra_info["panel"] = "LS64"
    schedule = benchmark.pedantic(
        lambda: analyze(problem, "incremental"), rounds=1, iterations=1, warmup_rounds=0
    )
    assert schedule.schedulable
    benchmark.extra_info["makespan"] = schedule.makespan


def test_scaling_beyond_8000_tasks_is_reasonable(benchmark):
    """The paper's headline scaling claim, with an explicit wall-clock bound."""
    problem = build_problem("LS", 64, 8192)
    schedule = benchmark.pedantic(
        lambda: analyze(problem, "incremental"), rounds=1, iterations=1, warmup_rounds=0
    )
    assert schedule.schedulable
    # the analyzer's own clock: also present under --benchmark-disable
    seconds = schedule.stats.wall_time_seconds
    benchmark.extra_info["tasks"] = 8192
    benchmark.extra_info["seconds"] = round(seconds, 3)
    # "reasonable execution time": well under a minute on a laptop-class machine
    assert seconds < 60.0
