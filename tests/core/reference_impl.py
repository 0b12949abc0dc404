"""Frozen pre-kernel reference implementations of both analyzers.

These are verbatim copies of the dict-based ``IncrementalAnalyzer.run`` and
``FixedPointAnalyzer.run`` as they existed before the compiled-kernel
refactor (PR 5): string-keyed dictionaries, per-run derivation of the
effective predecessor map and topological order, and the all-pairs O(n²)
overlap scan in the fixed-point inner sweep.  The property tests assert the
kernel-based production analyzers produce bit-identical schedules, verdicts
and counters against them.

The interference accounting they run on is frozen here too: verbatim copies
of ``InterferenceTracker``, ``interference_from_overlaps``, ``check_request``
and ``RoundRobinArbiter.interference`` from before the constant-time
``BusArbiter.charge`` step, so every IBUS call re-evaluates the arbiter on
the full competitor set exactly as it used to.  A live round-robin arbiter is
swapped for the frozen copy; any other policy runs as given.

Do not "improve" this module — its value is that it does not change.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.arbiter import BusArbiter
from repro.arbiter import RoundRobinArbiter as _LiveRoundRobinArbiter
from repro.core.problem import AnalysisProblem
from repro.core.schedule import Schedule, ScheduledTask, ScheduleStats
from repro.errors import ArbiterError, ConvergenceError
from repro.model import MemoryDemand
from repro.platform import MemoryBank, Platform

_INFINITY = float("inf")


# ---------------------------------------------------------------------------
# Frozen interference accounting: verbatim copies of the per-call IBUS path
# (``repro.core.interference`` and ``RoundRobinArbiter.interference``) as it
# stood before the constant-time ``BusArbiter.charge`` step.  The reference
# analyzers below run on these copies only.
# ---------------------------------------------------------------------------


def check_request(dest_core: int, dest_accesses: int, competitors: Mapping[int, int]) -> None:
    """Validate an IBUS request; raises :class:`ArbiterError` on nonsense inputs."""
    if dest_accesses < 0:
        raise ArbiterError(f"destination access count must be non-negative, got {dest_accesses}")
    if dest_core in competitors:
        raise ArbiterError(
            f"core {dest_core} appears in its own competitor set; "
            "tasks on the destination core never run concurrently with it"
        )
    for core, demand in competitors.items():
        if demand < 0:
            raise ArbiterError(f"competitor core {core} has negative demand {demand}")


class RoundRobinArbiter:
    """Fair one-access-per-grant round-robin (the MPPA-256 SMEM bus model of [6])."""

    name = "round-robin"

    def interference(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
    ) -> int:
        check_request(dest_core, dest_accesses, competitors)
        if dest_accesses == 0:
            return 0
        delayed = 0
        for demand in competitors.values():
            if demand > 0:
                delayed += min(dest_accesses, demand)
        return delayed * bank.access_latency


class IbusCallCounter:
    """Counts calls to the arbiter (reported in :class:`~repro.core.schedule.ScheduleStats`)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class InterferenceTracker:
    """Incremental per-bank interference state of one destination task.

    The tracker is created when the destination becomes *alive*.  Each time a
    new task becomes alive on another core, :meth:`add_source` is called; the
    tracker accumulates the source's demand into the per-core competitor table
    of every shared bank both tasks access and re-evaluates the arbiter on the
    complete competitor set (interference may be non-additive, so no shortcut
    is taken).
    """

    __slots__ = (
        "name",
        "core",
        "_demand",
        "_arbiter",
        "_platform",
        "_accounted",
        "_competitors",
        "_per_bank",
        "_total",
        "_counter",
    )

    def __init__(
        self,
        name: str,
        core: int,
        demand: MemoryDemand,
        arbiter: BusArbiter,
        platform: Platform,
        counter: Optional[IbusCallCounter] = None,
    ) -> None:
        self.name = name
        self.core = core
        self._demand = demand
        self._arbiter = arbiter
        self._platform = platform
        #: per bank: set of source task names already charged
        self._accounted: Dict[int, Set[str]] = {}
        #: per bank: accumulated competitor demand per core
        self._competitors: Dict[int, Dict[int, int]] = {}
        #: per bank: interference in cycles
        self._per_bank: Dict[int, int] = {}
        self._total = 0
        self._counter = counter

    # ------------------------------------------------------------------

    @property
    def interference(self) -> int:
        """Current total interference (cycles) over all banks."""
        return self._total

    @property
    def interference_by_bank(self) -> Dict[int, int]:
        """Copy of the per-bank interference values (non-zero entries only)."""
        return {bank: value for bank, value in self._per_bank.items() if value}

    def add_source(self, source_name: str, source_core: int, source_demand: MemoryDemand) -> int:
        """Account for a newly alive task; returns the interference increase (cycles).

        Sources on the destination's own core are ignored (they never run
        concurrently with it).  Adding the same source twice for the same bank
        is a no-op, mirroring the ``interfers_with`` check of Algorithm 1.
        """
        if source_core == self.core:
            return 0
        increase = 0
        for bank_id, dest_accesses in self._demand.items():
            if dest_accesses <= 0:
                continue
            source_accesses = source_demand[bank_id]
            if source_accesses <= 0:
                continue
            bank = self._platform.bank(bank_id)
            if bank.reserved_for is not None:
                # a reserved bank carries traffic from a single core only
                continue
            accounted = self._accounted.setdefault(bank_id, set())
            if source_name in accounted:
                continue
            accounted.add(source_name)
            competitors = self._competitors.setdefault(bank_id, {})
            competitors[source_core] = competitors.get(source_core, 0) + source_accesses
            old = self._per_bank.get(bank_id, 0)
            new = self._arbiter.interference(self.core, dest_accesses, competitors, bank)
            if self._counter is not None:
                self._counter.bump()
            # Monotonicity of the arbiter guarantees new >= old; clamp defensively
            # so a misbehaving third-party arbiter cannot make finish dates move
            # backwards and break the incremental algorithm's invariant.
            if new < old:
                new = old
            self._per_bank[bank_id] = new
            increase += new - old
        self._total += increase
        return increase


def _group_by_core_and_bank(
    sources: Iterable[Tuple[str, int, MemoryDemand]],
    dest_core: int,
    dest_demand: MemoryDemand,
    platform: Platform,
) -> Dict[int, Dict[int, int]]:
    """Competitor table ``{bank: {core: demand}}`` from a set of overlapping sources."""
    table: Dict[int, Dict[int, int]] = {}
    dest_banks = {bank for bank in dest_demand.banks() if dest_demand[bank] > 0}
    for _name, core, demand in sources:
        if core == dest_core:
            continue
        for bank_id in dest_banks:
            accesses = demand[bank_id]
            if accesses <= 0:
                continue
            if platform.bank(bank_id).reserved_for is not None:
                continue
            per_core = table.setdefault(bank_id, {})
            per_core[core] = per_core.get(core, 0) + accesses
    return table


def interference_from_overlaps(
    dest_core: int,
    dest_demand: MemoryDemand,
    sources: Iterable[Tuple[str, int, MemoryDemand]],
    arbiter: BusArbiter,
    platform: Platform,
    counter: Optional[IbusCallCounter] = None,
) -> Dict[int, int]:
    """One-shot per-bank interference given the complete set of overlapping sources.

    ``sources`` yields ``(task name, core, demand)`` triples for every task
    whose execution window overlaps the destination's.  Returns the per-bank
    interference (cycles); sum the values for the total.
    """
    table = _group_by_core_and_bank(sources, dest_core, dest_demand, platform)
    result: Dict[int, int] = {}
    for bank_id, competitors in table.items():
        dest_accesses = dest_demand[bank_id]
        bank = platform.bank(bank_id)
        value = arbiter.interference(dest_core, dest_accesses, competitors, bank)
        if counter is not None:
            counter.bump()
        if value:
            result[bank_id] = value
    return result


def _frozen_arbiter(arbiter):
    """The frozen round-robin copy in place of the live one; other policies as given."""
    if type(arbiter) is _LiveRoundRobinArbiter:
        return RoundRobinArbiter()
    return arbiter


class _AliveTask:
    __slots__ = ("name", "core", "release", "wcet", "demand", "tracker")

    def __init__(self, name, core, release, wcet, demand, tracker) -> None:
        self.name = name
        self.core = core
        self.release = release
        self.wcet = wcet
        self.demand = demand
        self.tracker = tracker

    @property
    def finish(self) -> int:
        return self.release + self.wcet + self.tracker.interference

    def to_entry(self) -> ScheduledTask:
        return ScheduledTask(
            name=self.name,
            core=self.core,
            release=self.release,
            wcet=self.wcet,
            interference_by_bank=self.tracker.interference_by_bank,
        )


def reference_incremental(problem: AnalysisProblem) -> Schedule:
    """The pre-kernel incremental algorithm (cursor starting at t = 0)."""
    graph = problem.graph
    mapping = problem.mapping
    platform = problem.platform
    arbiter = _frozen_arbiter(problem.arbiter)
    horizon = problem.horizon
    counter = IbusCallCounter()

    task_count = graph.task_count
    if task_count == 0:
        stats = ScheduleStats(algorithm="incremental")
        return Schedule([], algorithm="incremental", stats=stats, problem_name=problem.name)

    wcet: Dict[str, int] = {}
    demand: Dict[str, MemoryDemand] = {}
    min_release: Dict[str, int] = {}
    for task in graph:
        wcet[task.name] = task.wcet
        demand[task.name] = task.demand
        min_release[task.name] = task.min_release

    pending: Dict[str, Set[str]] = {
        name: set(preds) for name, preds in problem.effective_predecessor_map().items()
    }
    dependents: Dict[str, List[str]] = {name: [] for name in pending}
    for consumer, preds in pending.items():
        for producer in preds:
            dependents[producer].append(consumer)

    core_queues: Dict[int, deque] = {core: deque(order) for core, order in mapping.items()}
    core_ids = sorted(core_queues)

    future_heap: List[Tuple[int, str]] = [(min_release[name], name) for name in pending]
    heapq.heapify(future_heap)

    alive: Dict[str, _AliveTask] = {}
    closed: Dict[str, ScheduledTask] = {}
    opened: Set[str] = set()
    cursor_steps = 0
    unschedulable = False

    t: float = 0.0
    while t < _INFINITY:
        cursor_steps += 1
        now = int(t)

        closing = [item for item in alive.values() if item.finish == now]
        for item in closing:
            entry = item.to_entry()
            closed[item.name] = entry
            del alive[item.name]
            for consumer in dependents[item.name]:
                pending[consumer].discard(item.name)

        opening: List[_AliveTask] = []
        for core in core_ids:
            queue = core_queues[core]
            if not queue:
                continue
            head = queue[0]
            if pending[head]:
                continue
            if min_release[head] > now:
                continue
            queue.popleft()
            tracker = InterferenceTracker(
                name=head,
                core=core,
                demand=demand[head],
                arbiter=arbiter,
                platform=platform,
                counter=counter,
            )
            item = _AliveTask(
                name=head,
                core=core,
                release=now,
                wcet=wcet[head],
                demand=demand[head],
                tracker=tracker,
            )
            opening.append(item)
            opened.add(head)

        for item in opening:
            for other in alive.values():
                if other.core == item.core:
                    continue
                other.tracker.add_source(item.name, item.core, item.demand)
                item.tracker.add_source(other.name, other.core, other.demand)
            alive[item.name] = item

        t_next: float = _INFINITY
        for item in alive.values():
            finish = item.finish
            if finish < t_next:
                t_next = finish
        while future_heap and (future_heap[0][0] <= now or future_heap[0][1] in opened):
            heapq.heappop(future_heap)
        if future_heap and future_heap[0][0] < t_next:
            t_next = future_heap[0][0]

        if horizon is not None and t_next != _INFINITY and t_next > horizon:
            unschedulable = True
            break
        t = t_next

    entries = list(closed.values())
    entries.extend(item.to_entry() for item in alive.values())
    never_opened = [name for name in pending if name not in opened]
    if never_opened:
        unschedulable = True

    makespan = max((entry.finish for entry in entries), default=0)
    if horizon is not None and makespan > horizon:
        unschedulable = True

    stats = ScheduleStats(
        algorithm="incremental", cursor_steps=cursor_steps, ibus_calls=counter.count
    )
    return Schedule(
        entries,
        algorithm="incremental",
        schedulable=not unschedulable,
        unscheduled=never_opened,
        stats=stats,
        problem_name=problem.name,
    )


def _effective_topological_order(problem: AnalysisProblem) -> List[str]:
    predecessors = problem.effective_predecessor_map()
    in_degree = {name: len(preds) for name, preds in predecessors.items()}
    dependents: Dict[str, List[str]] = {name: [] for name in predecessors}
    for consumer, preds in predecessors.items():
        for producer in preds:
            dependents[producer].append(consumer)
    ready = [name for name, degree in in_degree.items() if degree == 0]
    order: List[str] = []
    head = 0
    while head < len(ready):
        name = ready[head]
        head += 1
        order.append(name)
        for consumer in dependents[name]:
            in_degree[consumer] -= 1
            if in_degree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(predecessors):
        from repro.errors import MappingError

        remaining = sorted(set(predecessors) - set(order))
        raise MappingError(
            "per-core execution order contradicts the task dependencies; "
            "involved tasks: " + ", ".join(remaining[:8])
        )
    return order


def _propagate_releases(
    names: List[str],
    predecessors: Dict[str, Set[str]],
    min_release: Dict[str, int],
    response: Dict[str, int],
) -> Dict[str, int]:
    release: Dict[str, int] = {}
    for name in names:
        value = min_release[name]
        for pred in predecessors[name]:
            finish = release[pred] + response[pred]
            if finish > value:
                value = finish
        release[name] = value
    return release


def reference_fixedpoint(
    problem: AnalysisProblem,
    *,
    max_outer_iterations: Optional[int] = None,
    max_inner_iterations: Optional[int] = None,
) -> Schedule:
    """The pre-kernel fixed-point baseline (all-pairs O(n²) inner sweep)."""
    n = max(problem.task_count, 1)
    max_outer = max_outer_iterations or (4 * n + 16)
    max_inner = max_inner_iterations or (4 * n + 16)

    graph = problem.graph
    mapping = problem.mapping
    platform = problem.platform
    arbiter = _frozen_arbiter(problem.arbiter)
    horizon = problem.horizon
    counter = IbusCallCounter()

    if graph.task_count == 0:
        stats = ScheduleStats(algorithm="fixedpoint")
        return Schedule([], algorithm="fixedpoint", stats=stats, problem_name=problem.name)

    names = _effective_topological_order(problem)
    wcet: Dict[str, int] = {}
    demand: Dict[str, MemoryDemand] = {}
    min_release: Dict[str, int] = {}
    core_of: Dict[str, int] = {}
    for task in graph:
        wcet[task.name] = task.wcet
        demand[task.name] = task.demand
        min_release[task.name] = task.min_release
        core_of[task.name] = mapping.core_of(task.name)
    predecessors = problem.effective_predecessor_map()

    response: Dict[str, int] = {name: wcet[name] for name in names}
    per_bank: Dict[str, Dict[int, int]] = {name: {} for name in names}
    release = _propagate_releases(names, predecessors, min_release, response)

    outer_iterations = 0
    inner_iterations = 0
    unschedulable = False

    while True:
        outer_iterations += 1
        if outer_iterations > max_outer:
            raise ConvergenceError(
                f"release-date fixed point did not converge within {max_outer} iterations"
            )

        while True:
            inner_iterations += 1
            if inner_iterations > max_inner * max_outer:
                raise ConvergenceError(
                    "response-time fixed point did not converge "
                    f"(iteration budget exhausted at outer iteration {outer_iterations})"
                )
            changed = False
            new_response: Dict[str, int] = {}
            new_per_bank: Dict[str, Dict[int, int]] = {}
            for dest in names:
                dest_release = release[dest]
                dest_finish = dest_release + response[dest]
                sources: List[Tuple[str, int, MemoryDemand]] = []
                for src in names:
                    if src == dest or core_of[src] == core_of[dest]:
                        continue
                    src_release = release[src]
                    src_finish = src_release + response[src]
                    if dest_release < src_finish and src_release < dest_finish:
                        sources.append((src, core_of[src], demand[src]))
                banks = interference_from_overlaps(
                    core_of[dest], demand[dest], sources, arbiter, platform, counter
                )
                new_per_bank[dest] = banks
                new_response[dest] = wcet[dest] + sum(banks.values())
                if new_response[dest] != response[dest]:
                    changed = True
            response = new_response
            per_bank = new_per_bank
            if not changed:
                break

        new_release = _propagate_releases(names, predecessors, min_release, response)

        makespan = max(new_release[name] + response[name] for name in names)
        if horizon is not None and makespan > horizon:
            unschedulable = True
            release = new_release
            break

        if new_release == release:
            break
        release = new_release

    entries = [
        ScheduledTask(
            name=name,
            core=core_of[name],
            release=release[name],
            wcet=wcet[name],
            interference_by_bank=per_bank[name],
        )
        for name in names
    ]
    stats = ScheduleStats(
        algorithm="fixedpoint",
        outer_iterations=outer_iterations,
        inner_iterations=inner_iterations,
        ibus_calls=counter.count,
    )
    return Schedule(
        entries,
        algorithm="fixedpoint",
        schedulable=not unschedulable,
        unscheduled=[],
        stats=stats,
        problem_name=problem.name,
    )
