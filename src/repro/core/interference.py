"""Interference accounting shared by the analysis algorithms.

This module implements step 5 of Algorithm 1 — and the equivalent computation
inside the fixed-point baseline — in one place so both algorithms charge
interference in exactly the same way:

* interference is computed **per memory bank** and summed over banks;
* interfering tasks that run on the same core as each other are merged into a
  single virtual initiator whose demand is the sum of their demands (the
  "conservative hypothesis" of Section II-C);
* tasks mapped to the destination's own core never interfere with it (they
  cannot execute concurrently);
* banks statically reserved for a core never carry interference;
* a given source task is charged at most once per (destination, bank) pair —
  the ``interfers_with`` bookkeeping of the paper.

Two entry points are provided:

* :class:`InterferenceTracker` — incremental accounting for one destination
  task, used by the incremental algorithm while the task is *alive*.  Each
  charge goes through :meth:`BusArbiter.charge
  <repro.arbiter.BusArbiter.charge>`, whose contract is that it returns
  exactly what re-evaluating the arbiter on the bank's full competitor table
  would (clamped to never decrease).  The default does that re-evaluation;
  round-robin, the paper's policy, answers in O(1) from the one per-core
  term the charge changes;
* :func:`interference_from_overlaps` — one-shot computation from a complete
  set of overlapping tasks, used by the fixed-point baseline and by the
  schedule validator.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..arbiter import BusArbiter
from ..model import MemoryDemand
from ..platform import MemoryBank, Platform

__all__ = ["InterferenceTracker", "interference_from_overlaps", "IbusCallCounter"]


class IbusCallCounter:
    """Counts calls to the arbiter (reported in :class:`~repro.core.schedule.ScheduleStats`)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class InterferenceTracker:
    """Incremental per-bank interference state of one destination task.

    The tracker is created when the destination becomes *alive*, and builds
    the destination's shared-bank row once: one
    ``(bank id, destination accesses, bank, competitor table, charged sources)``
    record per non-reserved bank the destination accesses.  Each time a new
    task becomes alive on another core, :meth:`add_source` adds the source's
    accesses to the per-core competitor table of every row bank the source
    also touches and asks the arbiter for the bank's new interference through
    :meth:`BusArbiter.charge <repro.arbiter.BusArbiter.charge>`, whose
    answer equals re-evaluating :meth:`BusArbiter.interference
    <repro.arbiter.BusArbiter.interference>` on the complete competitor table
    (interference may be non-additive), clamped so it never decreases.  Each
    charge counts as one IBUS call.

    :attr:`shared_demand` is the destination's demand restricted to the row
    banks; pass it as the ``source_demand`` of other trackers (it is what this
    task contributes as a source, and a plain dict is the cheapest lookup).
    """

    __slots__ = (
        "name",
        "core",
        "shared_demand",
        "_charge",
        "_row",
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
        #: ``{bank: accesses}`` over the non-reserved banks the task accesses
        self.shared_demand: Dict[int, int] = {}
        row: List[Tuple[int, int, MemoryBank, Dict[int, int], Set[str]]] = []
        for bank_id, accesses in demand.items():
            if accesses <= 0:
                continue
            bank = platform.bank(bank_id)
            if bank.reserved_for is not None:
                # a reserved bank carries traffic from a single core only
                continue
            self.shared_demand[bank_id] = accesses
            row.append((bank_id, accesses, bank, {}, set()))
        self._row = row
        self._charge = arbiter.charge
        #: per bank: interference in cycles (insertion order = first charge)
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

    def add_source(
        self, source_name: str, source_core: int, source_demand: Mapping[int, int]
    ) -> int:
        """Account for a newly alive task; returns the interference increase (cycles).

        ``source_demand`` maps banks to the source's access counts (a
        :class:`~repro.model.MemoryDemand` or another tracker's
        :attr:`shared_demand`).  Sources on the destination's own core are
        ignored (they never run concurrently with it).  Adding the same source
        twice for the same bank is a no-op, mirroring the ``interfers_with``
        check of Algorithm 1.
        """
        if source_core == self.core:
            return 0
        charge = self._charge
        per_bank = self._per_bank
        increase = 0
        calls = 0
        for bank_id, dest_accesses, bank, competitors, charged in self._row:
            added = source_demand.get(bank_id)
            if not added or source_name in charged:
                continue
            charged.add(source_name)
            competitors[source_core] = competitors.get(source_core, 0) + added
            old = per_bank.get(bank_id, 0)
            new = charge(self.core, dest_accesses, competitors, bank, source_core, added, old)
            per_bank[bank_id] = new
            increase += new - old
            calls += 1
        if calls and self._counter is not None:
            self._counter.count += calls
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
