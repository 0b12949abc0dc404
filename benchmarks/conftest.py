"""Shared fixtures for the benchmark suite (pytest-benchmark).

Workload generation is *not* part of the measured time: problems are built
once per session (cached by configuration in :mod:`workloads`) and only the
analysis call is benchmarked, mirroring the paper's methodology where the
random DAGs are inputs to the timed algorithms.

Paper claims compare like with like: Algorithm 1 is a sequential pure-Python
loop, so the whole suite pins the fixed-point baseline to the pure-Python
backend too.  The pin lives in ``os.environ`` so process-pool workers inherit
it.
"""

from __future__ import annotations

import pytest

from repro.core.vector import BACKEND_ENV

from workloads import build_problem


@pytest.fixture(scope="session", autouse=True)
def python_analysis_backend():
    """Run every analysis of the session on the pure-Python backend."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BACKEND_ENV, "python")
        yield


@pytest.fixture(scope="session")
def problem_factory():
    """Session-scoped access to the cached problem builder."""
    return build_problem
