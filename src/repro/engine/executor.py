"""Pool fan-out for analysis jobs.

:func:`run_jobs` executes a list of :class:`~repro.engine.jobs.AnalysisJob`
across a :class:`concurrent.futures.ProcessPoolExecutor`:

* jobs are grouped into *chunks* so per-task IPC overhead is amortized over
  many small problems (one pickled payload round-trip per chunk, not per job);
* results are restored to **submission order** no matter which worker finishes
  first, so a parallel sweep is a drop-in replacement for a serial loop;
* an optional ``progress`` callback receives :class:`ProgressEvent` updates as
  chunks complete (streamed, not buffered until the end);
* ``max_workers=1`` falls back to a plain in-process loop — no pool, no
  serialization, same results — which is also the safe mode on platforms
  where forking is undesirable.

Every pool runs the chunk runner :func:`run_jobs_serial` uses, over
:class:`AnalysisJob` objects; a thread pool hands back
:class:`~repro.core.Schedule` objects, so no codec runs in one address space.
A process pool gets the codec as an adapter at its edge
(:func:`_run_payload_chunk`): jobs cross as :meth:`AnalysisJob.to_payload`
documents, schedules as :meth:`Schedule.to_dict` records.  Runtime-registered
algorithms travel *inside the payload* (re-registered by the worker before
the job runs), so plug-ins work under every multiprocessing start method —
``fork`` and ``spawn`` alike.  Set the ``REPRO_MP_START_METHOD`` environment
variable to pin the pool's start method (e.g. ``spawn`` to reproduce the
macOS/Windows default on Linux, which is also what CI does to guard the
payload-registration path).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core import Schedule
from ..core.vector import analyze_generation, generation_supported
from ..errors import BatchExecutionError, EngineError, ReproError
from .jobs import AnalysisJob

__all__ = [
    "ProgressEvent",
    "ProgressCallback",
    "START_METHOD_ENV",
    "default_worker_count",
    "run_generation_batched",
    "run_jobs",
    "run_jobs_on",
    "run_jobs_serial",
]

#: environment variable pinning the pool's multiprocessing start method
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """Multiprocessing context for the pool (None = interpreter default)."""
    method = (os.environ.get(START_METHOD_ENV) or "").strip().lower()
    if not method:
        return None
    try:
        return multiprocessing.get_context(method)
    except ValueError as exc:
        raise EngineError(f"invalid {START_METHOD_ENV}={method!r}: {exc}") from exc


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed progress update: ``done`` of ``total`` jobs finished."""

    done: int
    total: int
    job_name: str = ""

    @property
    def fraction(self) -> float:
        return (self.done / self.total) if self.total else 1.0


ProgressCallback = Callable[[ProgressEvent], None]


def default_worker_count() -> int:
    """Number of workers used when the caller does not pin one (CPU count)."""
    return max(1, os.cpu_count() or 1)


#: one job's outcome in a chunk: its batch position and its schedule, or the
#: ``"<type>: <message>"`` of the exception it raised
Outcome = Tuple[int, Union[Schedule, str]]


def _run_each(jobs: Iterable[Tuple[int, AnalysisJob]]) -> Iterator[Outcome]:
    """Run ``(position, job)`` pairs in order, yielding each outcome as it ends.

    One failing job must not poison the others of its chunk (or batch).
    """
    for position, job in jobs:
        outcome: Union[Schedule, str]
        try:
            with obs.span("job.run", job=job.name, algorithm=job.algorithm):
                outcome = job.run()
        except Exception as exc:  # noqa: BLE001 - reported per job, batch continues
            outcome = f"{type(exc).__name__}: {exc}"
        yield position, outcome


def _run_chunk(
    jobs: Sequence[Tuple[int, AnalysisJob]], traceparent: Optional[str] = None
) -> Tuple[List[Outcome], List[obs.Span]]:
    """Pool entry point: run one chunk of jobs, return outcomes and spans.

    When the submitting side was tracing, ``traceparent`` carries its trace
    position to the worker: the chunk runs under a local tracer continuing
    that trace, and its spans come back to be stitched into the caller's.
    """
    if traceparent is None:
        return list(_run_each(jobs)), []
    tracer = obs.Tracer.from_traceparent(
        traceparent, service=f"engine-worker:{os.getpid()}"
    )
    with tracer.activate():
        with obs.span("engine.chunk", jobs=len(jobs)):
            outcomes = list(_run_each(jobs))
    return outcomes, tracer.spans


def _run_payload_chunk(
    payloads: Sequence[Dict[str, Any]],
    structures: Optional[Dict[str, Any]],
    traceparent: Optional[str],
) -> Tuple[List[Tuple[int, Union[Dict[str, Any], str]]], List[obs.Span]]:
    """:func:`_run_chunk` behind the codec a worker process needs.

    Jobs arrive as :meth:`AnalysisJob.to_payload` documents (``structures``
    is the chunk's shared base-problem table, see :func:`_encode_chunk`);
    schedules leave as :meth:`Schedule.to_dict` records.
    """
    jobs = [
        (int(payload["index"]), AnalysisJob.from_payload(payload, structures=structures))
        for payload in payloads
    ]
    outcomes, spans = _run_chunk(jobs, traceparent)
    return [
        (position, value if isinstance(value, str) else value.to_dict())
        for position, value in outcomes
    ], spans


def _encode_chunk(
    chunk: Sequence[Tuple[int, AnalysisJob]]
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Payloads for one chunk bound for a worker process, plus its structure table.

    The base problems of delta jobs are factored into one table per chunk,
    keyed by the parent's structure digest: N probes over one parent ship
    one base document, and the worker's kernel memo compiles it once.
    """
    structures: Dict[str, Any] = {}
    payloads: List[Dict[str, Any]] = []
    for position, job in chunk:
        payload = job.to_payload()
        # result ordering is defined by submission position; the caller's
        # own job.index is left untouched (it may carry outer-batch semantics)
        payload["index"] = position
        base_digest = payload.get("base_structure_digest")
        if base_digest is not None:
            structures.setdefault(str(base_digest), payload.pop("base_problem"))
            warm = payload.get("warm_start")
            if warm is not None:
                # every probe of a structural generation carries the same
                # parent schedule: ship it once per chunk, referenced by key
                schedule = warm["schedule"]
                key = f"warm:{base_digest}:{schedule.get('algorithm', '')}"
                structures.setdefault(key, schedule)
                warm["schedule"] = key
        payloads.append(payload)
    return payloads, structures or None


def _chunk(items: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def run_generation_batched(
    jobs: Sequence[AnalysisJob],
    progress: Optional[ProgressCallback] = None,
) -> Optional[List[Schedule]]:
    """One vectorized 2-D pass for an eligible overlay generation, else None.

    Eligible means: every job runs the same algorithm and
    :func:`repro.core.vector.generation_supported` holds for the problem list
    (``fixedpoint`` overlay probes sharing one compiled kernel, vector
    backend resolved).  Such a generation costs one lockstep array pass
    instead of a worker fan-out — and pays neither pool construction nor
    payload pickling — with schedules bit-identical to the per-job path.
    Returns None when the batch is not eligible (or the pass degrades, e.g.
    on a :class:`~repro.errors.ConvergenceError`): the caller then runs the
    jobs through its normal path, which also reproduces the per-job failure
    contract.
    """
    if not jobs:
        return None
    algorithm = jobs[0].algorithm
    if any(job.algorithm != algorithm for job in jobs):
        return None
    problems = [job.problem for job in jobs]
    if not generation_supported(problems, algorithm):
        return None
    try:
        results = analyze_generation(problems, algorithm)
    except ReproError:
        return None
    if progress is not None:
        total = len(jobs)
        for done, job in enumerate(jobs, start=1):
            progress(ProgressEvent(done=done, total=total, job_name=job.name))
    return results


def run_jobs_serial(
    jobs: Sequence[AnalysisJob],
    progress: Optional[ProgressCallback] = None,
) -> List[Schedule]:
    """Run ``jobs`` serially in-process: same registry path, no pool overhead.

    The serial fallback of :func:`run_jobs` (``max_workers=1``) and of the
    ``inline`` backend of :class:`repro.service.EngineRuntime`.  Failure
    semantics match the pooled path: every job runs, a
    :class:`~repro.errors.BatchExecutionError` is raised at the end.
    """
    jobs = list(jobs)
    outcomes: Dict[int, Union[Schedule, str]] = {}
    for done, (position, outcome) in enumerate(_run_each(enumerate(jobs)), start=1):
        outcomes[position] = outcome
        if progress is not None:
            progress(ProgressEvent(done=done, total=len(jobs), job_name=jobs[position].name))
    return _collect(jobs, outcomes)


def run_jobs_on(
    pool: Any,
    jobs: Sequence[AnalysisJob],
    *,
    workers: int,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Schedule]:
    """Run ``jobs`` on an already-constructed executor, in submission order.

    ``pool`` is anything with the :class:`concurrent.futures.Executor`
    ``submit`` interface — the transient :class:`ProcessPoolExecutor` of
    :func:`run_jobs`, or the persistent process/thread pool owned by a
    :class:`repro.service.EngineRuntime`.  A :class:`ProcessPoolExecutor`
    gets job payloads and returns schedule records; any other executor is
    taken to share this address space and passes the objects themselves.
    The pool is *not* shut down here; its lifetime belongs to the caller
    (which is exactly what makes warm reuse across batches possible).
    ``workers`` sizes the default chunking so each worker gets a few chunks.
    """
    if chunksize is not None and chunksize < 1:
        raise EngineError(f"chunksize must be >= 1, got {chunksize}")
    jobs = list(jobs)
    total = len(jobs)
    if total == 0:
        return []
    if chunksize is None:
        chunksize = max(1, total // (max(1, workers) * 4))
    # when the caller is tracing, ship its trace position to the workers so
    # their spans come back stitched under the dispatching span
    traceparent = obs.current_traceparent()
    tracer = obs.current_tracer()
    dispatch_started = _perf_counter()
    chunks = _chunk(list(enumerate(jobs)), chunksize)
    # only a process pool needs the payload codec at its edge; a thread pool
    # shares this address space, runs the job objects and hands back
    # schedules.  Every chunk is encoded before the first submit forks the
    # workers, so they inherit every kernel the encoding memoized.
    if isinstance(pool, ProcessPoolExecutor):
        calls = [(_run_payload_chunk, *_encode_chunk(chunk)) for chunk in chunks]
    else:
        calls = [(_run_chunk, chunk) for chunk in chunks]
    outcomes: Dict[int, Union[Schedule, str]] = {}
    done = 0
    pending = {}
    for chunk, call in zip(chunks, calls):
        future = pool.submit(*call, traceparent)
        pending[future] = [position for position, _job in chunk]
    while pending:
        finished, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            positions = pending.pop(future)
            last_name = ""
            try:
                chunk_outcomes, spans = future.result()
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable payload
                # the whole chunk is lost, but the batch must carry on
                message = f"{type(exc).__name__}: {exc}"
                chunk_outcomes, spans = [(position, message) for position in positions], []
            if spans and tracer is not None:
                tracer.record_foreign(spans)
            for position, value in chunk_outcomes:
                if isinstance(value, dict):  # a schedule record from a worker process
                    value = Schedule.from_dict(value)
                outcomes[position] = value
                done += 1
                last_name = jobs[position].name
            if progress is not None:
                progress(ProgressEvent(done=done, total=total, job_name=last_name))
    obs.record_span(
        "engine.dispatch",
        _perf_counter() - dispatch_started,
        jobs=total,
        chunks=len(chunks),
        chunksize=chunksize,
    )
    return _collect(jobs, outcomes)


def _collect(
    jobs: Sequence[AnalysisJob], outcomes: Dict[int, Union[Schedule, str]]
) -> List[Schedule]:
    """Schedules in submission order, or the batch's partial-failure error."""
    total = len(jobs)
    missing = [jobs[position].name for position in range(total) if position not in outcomes]
    if missing:
        raise EngineError(f"batch lost results for {len(missing)} job(s): {missing[:5]}")
    results: List[Optional[Schedule]] = []
    failures: Dict[int, str] = {}
    for position in range(total):
        outcome = outcomes[position]
        if isinstance(outcome, str):
            results.append(None)
            failures[position] = f"{jobs[position].name}: {outcome}"
        else:
            results.append(outcome)
    if failures:
        raise BatchExecutionError(
            f"{len(failures)} of {total} job(s) failed: {_summarize(failures)}",
            failures=failures,
            results=results,
        )
    return results  # type: ignore[return-value]


def run_jobs(
    jobs: Sequence[AnalysisJob],
    *,
    max_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Schedule]:
    """Run ``jobs`` and return their schedules in submission order.

    ``max_workers=None`` uses :func:`default_worker_count`; ``max_workers=1``
    runs serially in-process.  ``chunksize=None`` picks a chunk size that
    gives each worker a few chunks (load balancing without per-job IPC).

    The pool is constructed and torn down per call; long-lived callers that
    run many batches should hold a :class:`repro.service.EngineRuntime`
    instead, which keeps one warm pool across calls — and whose ``remote``
    backend replaces the local pool entirely, dispatching the same jobs to a
    fleet of analysis servers under the same ordering and partial-failure
    contract.

    A failing job does not abort the batch: every other job still runs, and a
    :class:`~repro.errors.BatchExecutionError` carrying the completed
    schedules (``.results``, ``None`` at failed positions) and the failure
    messages (``.failures``) is raised at the end.
    """
    if max_workers is not None and max_workers < 1:
        raise EngineError(f"max_workers must be >= 1, got {max_workers}")
    if chunksize is not None and chunksize < 1:
        raise EngineError(f"chunksize must be >= 1, got {chunksize}")
    jobs = list(jobs)
    total = len(jobs)
    if total == 0:
        return []
    batched = run_generation_batched(jobs, progress)
    if batched is not None:
        return batched
    workers = default_worker_count() if max_workers is None else int(max_workers)
    workers = min(workers, total)

    if workers == 1:
        # serial fallback: same jobs, same registry path, no pool overhead
        return run_jobs_serial(jobs, progress)

    with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
        return run_jobs_on(
            pool, jobs, workers=workers, chunksize=chunksize, progress=progress
        )


def _summarize(failures: Dict[int, str], limit: int = 3) -> str:
    shown = list(failures.values())[:limit]
    suffix = ", ..." if len(failures) > limit else ""
    return "; ".join(shown) + suffix
