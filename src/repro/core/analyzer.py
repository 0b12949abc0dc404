"""High-level entry point: run a named analysis algorithm on a problem.

Most users only ever need::

    from repro import analyze
    schedule = analyze(problem)                       # incremental (the paper)
    baseline = analyze(problem, algorithm="fixedpoint")  # Rihani et al. baseline
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from ..errors import AnalysisError, UnschedulableError
from .fixedpoint import FixedPointAnalyzer, analyze_fixedpoint
from .incremental import IncrementalAnalyzer, analyze_incremental
from .kernel import OverlayProblem
from .problem import AnalysisProblem
from .schedule import Schedule

__all__ = [
    "analyze",
    "analyze_or_raise",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "INCREMENTAL",
    "FIXEDPOINT",
]

#: canonical algorithm names
INCREMENTAL = "incremental"
FIXEDPOINT = "fixedpoint"

AlgorithmFunction = Callable[[AnalysisProblem], Schedule]

_ALGORITHMS: Dict[str, AlgorithmFunction] = {}


def register_algorithm(name: str, function: AlgorithmFunction, *, overwrite: bool = False) -> None:
    """Register a new analysis algorithm under ``name`` (for plug-in analyses)."""
    key = name.strip().lower()
    if not key:
        raise AnalysisError("algorithm name must be a non-empty string")
    if key in _ALGORITHMS and not overwrite:
        raise AnalysisError(f"algorithm {key!r} is already registered")
    _ALGORITHMS[key] = function


def available_algorithms() -> List[str]:
    """Names of all registered analysis algorithms, sorted."""
    return sorted(_ALGORITHMS)


def get_algorithm(name: str) -> AlgorithmFunction:
    """Registered algorithm function for ``name`` (the batch engine ships these
    to pool workers so runtime registrations survive the ``spawn`` boundary)."""
    key = name.strip().lower()
    try:
        return _ALGORITHMS[key]
    except KeyError:
        raise AnalysisError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        ) from None


def analyze(
    problem: Union[AnalysisProblem, OverlayProblem],
    algorithm: str = INCREMENTAL,
    *,
    backend: Optional[str] = None,
) -> Schedule:
    """Run the named algorithm on ``problem`` and return its :class:`Schedule`.

    The returned schedule may be flagged unschedulable; no exception is raised
    for that outcome (use :func:`analyze_or_raise` if you prefer exceptions).

    ``problem`` may also be an :class:`~repro.core.kernel.OverlayProblem` —
    a precompiled kernel plus a parameter overlay.  Kernel-aware algorithms
    (the built-in ``incremental`` and ``fixedpoint``: their registered
    functions carry a truthy ``kernel_aware`` attribute) consume it directly;
    every other registered algorithm receives the materialized
    :class:`AnalysisProblem`, so plug-ins work unchanged.

    ``backend`` selects the analysis backend (see :mod:`repro.core.vector`):
    ``None`` defers to ``REPRO_ANALYSIS_BACKEND``; an explicit value is passed
    through to algorithms that accept one (their registered functions carry a
    truthy ``accepts_backend`` attribute — the built-in ``fixedpoint`` does)
    and is an error for the others, the sequential ``incremental`` included.
    """
    function = get_algorithm(algorithm)
    if isinstance(problem, OverlayProblem) and not getattr(function, "kernel_aware", False):
        problem = problem.materialize()
    if backend is not None:
        if not getattr(function, "accepts_backend", False):
            raise AnalysisError(
                f"algorithm {algorithm!r} does not accept a backend selection"
            )
        return function(problem, backend=backend)
    return function(problem)


def analyze_or_raise(
    problem: Union[AnalysisProblem, OverlayProblem],
    algorithm: str = INCREMENTAL,
    *,
    backend: Optional[str] = None,
) -> Schedule:
    """Like :func:`analyze` but raises :class:`~repro.errors.UnschedulableError`
    when the resulting schedule is not schedulable."""
    schedule = analyze(problem, algorithm, backend=backend)
    if not schedule.schedulable:
        raise UnschedulableError(
            f"problem {problem.name!r} is unschedulable under the {algorithm!r} analysis",
            schedule=schedule,
        )
    return schedule


analyze_fixedpoint.accepts_backend = True  # type: ignore[attr-defined]

register_algorithm(INCREMENTAL, analyze_incremental)
register_algorithm(FIXEDPOINT, analyze_fixedpoint)
