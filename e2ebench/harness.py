"""Shared machinery of the benchmark: closed loops, statistics, tracing, reports.

Everything here measures the program from outside: it times calls into the
public functions of ``repro`` and reads the counters the program already
exposes.  Nothing in ``src/`` is patched or instrumented.

On a shared machine other tenants take the core away for stretches of
seconds to minutes, which moved whole sets of runs by a third; inside a
virtual machine that time is not even visible as lost CPU time.  So every
measured interval is followed by a fixed calibration loop running for a set
share of the interval's length, and the figures are reported in *reference
seconds*: wall seconds divided by how much slower the calibration loop ran
than on a quiet reference machine (see :class:`Slowdown`).  Raw wall-clock
figures are reported beside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform as _platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs

#: percentile ladder the tail latency is picked from
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: probes per ``POST /batch`` request and edits per structural grid; a fixed
#: choice, not derived from any recorded use
BATCH_WIDTH = 8


def derive_seed(seed: int, *parts: object) -> int:
    """Stable sub-seed for one generated input (``hash()`` is salted per run)."""
    text = repr((int(seed),) + tuple(parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "big")


def canonical_schedule(schedule: Any) -> bytes:
    """Schedule bytes that must match bit for bit (the measured stats dropped)."""
    record = schedule.to_dict()
    record.pop("stats", None)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ----------------------------------------------------------------------
# operations and the closed loop
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload: a thunk plus what it stands for."""

    kind: str
    run: Callable[[], Any]
    #: tasks analysed or served by the operation (filled in by ``run`` when 0)
    tasks: int = 0
    #: True when the operation is designed to be served from the result cache
    hit: Optional[bool] = None
    #: key under which the correctness gate finds the operation's reference
    key: Any = None


@dataclass
class OpResult:
    kind: str
    cycle: int
    tasks: int
    hit: Optional[bool]
    key: Any
    #: wall-clock seconds
    latency: float
    ok: bool
    output: Any = None
    error: str = ""


@dataclass
class Loop:
    """Outcome of one timed closed loop."""

    results: List[OpResult]
    elapsed: float
    #: wall-clock seconds the operations of each cycle took, in order
    cycle_seconds: List[float]
    #: slowdown of each cycle against the reference machine, in order
    cycle_slowdown: List[float]
    first_cycle: int = 0

    @property
    def cycles(self) -> int:
        return len(self.cycle_seconds)

    @property
    def completed(self) -> List[OpResult]:
        return [result for result in self.results if result.ok]


def closed_loop(
    make_cycle: Callable[[int], List[Op]],
    *,
    seconds: float,
    min_cycles: int,
    first_cycle: int = 0,
    on_cycle_end: Optional[Callable[[int, List[OpResult]], None]] = None,
) -> Loop:
    """Run whole cycles of operations until ``seconds`` have passed.

    ``make_cycle(c)`` returns the operations of cycle ``c``.  One caller runs
    them in order, waiting for each reply before sending the next operation
    (a closed loop), so an operation that repeats earlier content always
    finds it finished.  The loop starts a new cycle while fewer than
    ``min_cycles`` ran or time remains: every run measures whole cycles, and
    every cycle carries the same operation mix.  Each operation is followed
    by calibration (see :class:`Slowdown`), which gives each cycle its
    slowdown.  ``on_cycle_end`` sees each cycle's results after its clock has
    stopped.
    """
    results: List[OpResult] = []
    cycle_seconds: List[float] = []
    cycle_slowdown: List[float] = []
    started = time.perf_counter()
    cycle = first_cycle
    while len(cycle_seconds) < min_cycles or time.perf_counter() - started < seconds:
        # every cycle starts from a collected heap, so the collector's work
        # does not depend on where the previous cycle left its counters
        gc.collect()
        slowdown = Slowdown()
        done = []
        for op in make_cycle(cycle):
            done.append(_run_op(op, cycle))
            slowdown.after(done[-1].latency)
        cycle_seconds.append(sum(result.latency for result in done))
        cycle_slowdown.append(slowdown.factor)
        if on_cycle_end is not None:
            on_cycle_end(cycle, done)
        results.extend(done)
        cycle += 1
    return Loop(results, time.perf_counter() - started, cycle_seconds, cycle_slowdown, first_cycle)


def _run_op(op: Op, cycle: int) -> OpResult:
    began = time.perf_counter()
    try:
        with obs.span(f"bench.{op.kind}", cycle=cycle):
            output = op.run()
        ok, error = True, ""
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        output, ok, error = None, False, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - began
    tasks = op.tasks
    if ok and not tasks and isinstance(output, dict):
        tasks = int(output.get("tasks", 0))
    return OpResult(op.kind, cycle, tasks, op.hit, op.key, latency, ok, output, error)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

#: loop iterations of one calibration unit
CALIBRATION_UNIT = 4000
#: wall seconds of one unit on the reference machine, a quiet 2-vCPU
#: 2.0 GHz Xeon virtual machine running CPython 3.11
REFERENCE_UNIT_SECONDS = 0.00086
#: calibration after a measured interval, as a share of the interval's length
CALIBRATION_SHARE = 0.3


def calibration_units(seconds: float) -> Tuple[float, int]:
    """Run whole calibration units for at least ``seconds``: (seconds spent, units)."""
    began = time.perf_counter()
    units = 0
    while True:
        table: Dict[int, int] = {}
        for index in range(CALIBRATION_UNIT):
            table[index % 1000] = table.get(index % 1000, 0) + index * index
        units += 1
        spent = time.perf_counter() - began
        if spent >= seconds:
            return spent, units


class Slowdown:
    """How much slower than the reference machine a stretch of measurements ran.

    After each measured interval the calibration loop runs for
    ``CALIBRATION_SHARE`` of the interval's length, so calibration samples
    the machine's state in proportion to the time measured.  The factor is
    the calibration's seconds per unit over the reference's; a measured time
    divided by it is in reference seconds.  On a 2-core box with a competing
    process on the measured core, raw operation times moved by 85% and
    calibrated ones by 10%.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.units = 0

    def after(self, interval: float) -> None:
        spent, units = calibration_units(CALIBRATION_SHARE * interval)
        self.seconds += spent
        self.units += units

    @property
    def factor(self) -> float:
        return self.seconds / (self.units * REFERENCE_UNIT_SECONDS)


def timed_steps(steps: Iterable[Any]) -> Tuple[float, float]:
    """Run ``steps`` (a generator yielding between steps), calibrating after each.

    Returns the wall seconds and the reference seconds of the steps.
    """
    iterator = iter(steps)
    slowdown = Slowdown()
    wall = 0.0
    while True:
        began = time.perf_counter()
        finished = next(iterator, iterator) is iterator
        spent = time.perf_counter() - began
        slowdown.after(spent)
        wall += spent
        if finished:
            return wall, wall / slowdown.factor


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile leaving ``TAIL_BEYOND`` samples beyond it.

    The rung is picked from the workload's guaranteed minimum sample count,
    so every run of the workload reports the same percentile.
    """
    chosen = TAIL_LADDER[0]
    for rung in TAIL_LADDER:
        if min_samples * (1.0 - rung / 100.0) >= TAIL_BEYOND:
            chosen = rung
    return chosen


def percentile(values: Sequence[float], rung: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(rung / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, rung: float) -> int:
    return count - max(1, math.ceil(rung / 100.0 * count))


def loop_metrics(loop: Loop, tail_rung: float) -> Dict[str, Any]:
    """End-to-end figures of one timed loop, in reference seconds.

    Throughput is completed operations (tasks) per second of the whole loop;
    latencies are medians and the tail percentile over every completed
    operation.  Each cycle's times are divided by its slowdown.  ``wall``
    holds the same figures on the raw wall clock.
    """
    done = loop.completed
    slowdown = dict(zip(range(loop.first_cycle, loop.first_cycle + loop.cycles), loop.cycle_slowdown))
    calibrated = sum(seconds / factor for seconds, factor in zip(loop.cycle_seconds, loop.cycle_slowdown))
    figures = _figures(
        done, calibrated, [result.latency / slowdown[result.cycle] for result in done], tail_rung
    )
    figures["wall"] = _figures(
        done, sum(loop.cycle_seconds), [result.latency for result in done], tail_rung
    )
    figures.update(
        ops=len(done),
        cycles=loop.cycles,
        elapsed_s=loop.elapsed,
        slowdown=sum(loop.cycle_seconds) / calibrated,
        tail={
            "percentile": tail_rung,
            "samples": len(done),
            "beyond": samples_beyond(len(done), tail_rung),
        },
    )
    by_kind: Dict[str, List[float]] = {}
    for result in done:
        by_kind.setdefault(_kind_label(result), []).append(result.latency / slowdown[result.cycle])
    figures["latency_by_kind"] = {
        label: {"count": len(values), "median_s": statistics.median(values)}
        for label, values in sorted(by_kind.items())
    }
    return figures


def _figures(
    done: Sequence[OpResult], seconds: float, latencies: Sequence[float], tail_rung: float
) -> Dict[str, float]:
    figures = {
        "ops_per_s": len(done) / seconds,
        "tasks_per_s": sum(result.tasks for result in done) / seconds,
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_tail_s": percentile(latencies, tail_rung),
    }
    for name, wanted in (("hit_latency_p50_s", True), ("miss_latency_p50_s", False)):
        values = [latency for latency, result in zip(latencies, done) if result.hit is wanted]
        if values:
            figures[name] = statistics.median(values)
    return figures


def _kind_label(result: OpResult) -> str:
    return f"{result.kind}/{result.tasks}" + {True: "/hit", False: "/miss", None: ""}[result.hit]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# tracing aggregation
# ----------------------------------------------------------------------


def aggregate_spans(spans: Sequence[obs.Span]) -> Dict[str, Dict[str, float]]:
    """Count, total time and self time per span name.

    Self time is a span's duration minus the part of it its children cover
    (children are clipped to the parent's interval and merged, so overlapping
    children running on other threads or processes are not counted twice).
    """
    children: Dict[str, List[obs.Span]] = {}
    for record in spans:
        if record.parent_id:
            children.setdefault(record.parent_id, []).append(record)
    table: Dict[str, Dict[str, float]] = {}
    for record in spans:
        if not record.name:
            continue
        begin, end = record.start, record.start + record.duration
        intervals = sorted(
            (max(child.start, begin), min(child.start + child.duration, end))
            for child in children.get(record.span_id, ())
        )
        covered, cursor = 0.0, begin
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        row = table.setdefault(record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += record.duration
        row["self_s"] += max(record.duration - covered, 0.0)
    return table


# ----------------------------------------------------------------------
# provenance and the exact-counter record
# ----------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's sources (git may be absent)."""
    hasher = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((root / "src").rglob("*.py")) + sorted(here.glob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit(root: Path) -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else "unknown"


def provenance(root: Path, seed: int) -> Dict[str, Any]:
    from repro.core.vector import numpy_available, resolve_backend

    numpy_version = "absent"
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc(),
        "seed": seed,
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "analysis_backend": resolve_backend(None),
        "platform": _platform.platform(),
    }


#: cores the process could use before :func:`pin_to_one_core` (None: not pinned)
_CORES: Optional[int] = None


def nproc() -> int:
    """Cores available to the benchmark (counted before it pinned itself)."""
    if _CORES is not None:
        return _CORES
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_to_one_core() -> None:
    """Run every thread of the process on one core; ``nproc()`` keeps the full count.

    Threads that hand work to each other on one core do not wait for a
    wake-up across cores, which on a shared machine varies run to run, and
    the calibration after each operation measures the core the operation
    ran on.
    """
    global _CORES
    cores = os.sched_getaffinity(0)
    _CORES = len(cores)
    os.sched_setaffinity(0, {max(cores)})


@dataclass
class CounterCheck:
    """Compares a run's exact counters with an earlier run of the same code and seed."""

    path: Path
    previous: Optional[Dict[str, Any]] = field(default=None)

    @classmethod
    def open(cls, state_dir: Path, workload: str, seed: int, source: str, size: str) -> "CounterCheck":
        path = state_dir / "counters" / f"{workload}-{size}-seed{seed}-{source[:16]}.json"
        previous = json.loads(path.read_text()) if path.exists() else None
        return cls(path, previous)

    def compare(self, record: Dict[str, Any]) -> List[str]:
        """Differences from the earlier run (empty on the first run); stores ``record``."""
        if self.previous is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(record, indent=1, sort_keys=True))
            return []
        differences = []
        for name in sorted(set(self.previous) | set(record)):
            if self.previous.get(name) != record.get(name):
                differences.append(
                    f"{name}: earlier run {self.previous.get(name)!r}, this run {record.get(name)!r}"
                )
        return differences


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

#: the paper's two evaluation families, plus small ones for the smoke test
FAMILIES = {"LS64": ("ls", 64), "NL32": ("nl", 32), "LS8": ("ls", 8), "NL4": ("nl", 4)}


def paper_problem(family: str, tasks: int, seed: int) -> Any:
    """One layer-by-layer DAG of ``family`` on the default 16-core platform."""
    from repro.generators import fixed_ls_workload, fixed_nl_workload

    mode, parameter = FAMILIES[family]
    maker = fixed_ls_workload if mode == "ls" else fixed_nl_workload
    return maker(tasks, parameter, seed=derive_seed(seed, family, tasks)).to_problem()


def accepted_edits(problem: Any, count: int, rng: random.Random) -> List[Any]:
    """``count`` seeded remap and edge edits of ``problem`` that ``patch_problem`` accepts."""
    from repro.analysis import edge_grid, remap_grid
    from repro.core import compile_problem, patch_problem
    from repro.errors import ReproError

    kernel = compile_problem(problem)
    candidates = remap_grid(kernel) + edge_grid(kernel, limit=4 * count)
    rng.shuffle(candidates)
    edits: List[Any] = []
    for delta in candidates:
        try:
            patch_problem(kernel, delta)
        except ReproError:
            continue
        edits.append(delta)
        if len(edits) == count:
            break
    return edits


def check_structural_sample(
    gate: "Gate",
    rng: random.Random,
    parent: Any,
    probes: Sequence[Tuple[str, Any, Any]],
    count: int,
    matches: Callable[[Any, Any], bool],
) -> None:
    """A seeded sample of structural probes matches cold analysis of the edited problem.

    ``probes`` holds ``(name, delta, outcome)``; ``matches(outcome, cold)``
    compares an outcome with the schedule of ``delta`` applied to ``parent``
    and analysed from scratch.
    """
    from repro import analyze

    for name, delta, outcome in rng.sample(list(probes), min(count, len(probes))):
        cold = analyze(delta.apply(parent, name=name))
        gate.check(f"structural probe {name} matches cold analysis of the edited problem",
                   matches(outcome, cold))


class Validated:
    """Runs ``validate_schedule`` once per distinct (structure, schedule) pair.

    Inputs that differ only in their horizon yield the same schedule; for
    those only the horizon condition is checked again.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        self.validated = 0

    def check(self, structure_key: Any, problem: Any, schedule: Any) -> None:
        from repro import validate_schedule
        from repro.errors import ValidationError

        entries = json.dumps([entry.to_dict() for entry in schedule], sort_keys=True)
        key = (structure_key, schedule.schedulable, digest_bytes(entries.encode("utf-8")))
        if key not in self._seen:
            validate_schedule(problem, schedule)
            self._seen.add(key)
            self.validated += 1
        elif (
            problem.horizon is not None
            and schedule.schedulable
            and schedule.makespan > problem.horizon
        ):
            raise ValidationError(
                f"{problem.name}: makespan {schedule.makespan} exceeds horizon {problem.horizon}"
            )


def probe_layers(problems: Sequence[Any], schedules: Sequence[Any]) -> None:
    """Time the model and io layers on a workload's own inputs and outputs.

    Used by the traced run only: each input is validated, encoded to its
    wire document and decoded back (``problem_from_dict`` validates again),
    and each output schedule is encoded, all under the benchmark's spans.
    """
    from repro.io.json_io import problem_from_dict, problem_to_dict

    for problem in problems:
        with obs.span("model.validate", tasks=problem.task_count):
            problem.validate()
        with obs.span("io.encode", tasks=problem.task_count):
            text = json.dumps(problem_to_dict(problem))
        with obs.span("io.decode", tasks=problem.task_count):
            problem_from_dict(json.loads(text))
    for schedule in schedules:
        with obs.span("io.encode", tasks=len(schedule)):
            json.dumps(schedule.to_dict())


class Gate:
    """The correctness gate: every check is one attempted unit of the run."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def run(self, what: str, function: Callable[..., Any], *args: Any) -> bool:
        try:
            function(*args)
        except Exception as exc:  # noqa: BLE001 - a failed check is reported, not fatal
            return self.check(f"{what}: {type(exc).__name__}: {exc}", False)
        return self.check(what, True)
