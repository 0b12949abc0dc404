"""Round-Robin bus arbiters (the policy used in the paper's evaluation).

Under Round-Robin arbitration every requesting core is granted one access in
circular order; a core that does not request is skipped.  In the worst case,
each access of the destination waits for **one** access of every other
requesting core, and a competitor can obviously not delay the destination by
more accesses than it performs in total.  Hence, for a destination performing
``d`` accesses and a competitor core performing ``c_k`` accesses on the same
bank::

    interference = latency * sum_k  min(d, c_k)

This matches the paper's illustrative example (Section II-A): three cores each
writing 8 words with a 1-cycle word access receive ``min(8,8) + min(8,8) = 16``
cycles of interference each.

The sum is separable per core, so when the incremental analysis adds
``added`` accesses of one core to a bank's competitor table,
:meth:`RoundRobinArbiter.charge` moves only that core's term and answers in
O(1) — equal, by construction, to re-evaluating the sum on the whole table.

:class:`WeightedRoundRobinArbiter` generalizes the policy: competitor ``k`` may
be granted up to ``weight_k`` consecutive accesses per grant cycle (deficit /
weighted round-robin), so each destination access can be delayed by up to
``weight_k`` competitor accesses.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import ArbiterError
from ..platform import MemoryBank
from .base import BusArbiter, check_request

__all__ = ["RoundRobinArbiter", "WeightedRoundRobinArbiter"]


class RoundRobinArbiter(BusArbiter):
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

    def charge(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
        source_core: int,
        added: int,
        old: int,
    ) -> int:
        # only the source core's term of the sum moves:
        # old + latency * (min(d, before + added) - min(d, before))
        before = competitors[source_core] - added
        if before >= dest_accesses:
            return old
        after = before + added
        gained = (after if after < dest_accesses else dest_accesses) - before
        return old + gained * bank.access_latency

    def describe(self) -> str:
        return "round-robin: each access waits for at most one access of every other requesting core"


class WeightedRoundRobinArbiter(BusArbiter):
    """Weighted round-robin: core ``k`` gets up to ``weights[k]`` grants per cycle.

    ``default_weight`` applies to cores absent from ``weights``.  With all
    weights equal to 1 this degenerates to :class:`RoundRobinArbiter`.
    """

    name = "weighted-round-robin"

    def __init__(
        self, weights: Optional[Mapping[int, int]] = None, *, default_weight: int = 1
    ) -> None:
        if default_weight < 1:
            raise ArbiterError("default_weight must be at least 1")
        self._weights = {}
        for core, weight in (weights or {}).items():
            if weight < 1:
                raise ArbiterError(f"weight of core {core} must be at least 1, got {weight}")
            self._weights[int(core)] = int(weight)
        self._default_weight = int(default_weight)

    def weight_of(self, core: int) -> int:
        return self._weights.get(core, self._default_weight)

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
        for core, demand in competitors.items():
            if demand > 0:
                delayed += min(dest_accesses * self.weight_of(core), demand)
        return delayed * bank.access_latency

    def describe(self) -> str:
        return (
            "weighted round-robin: core k may issue up to weight(k) accesses "
            "between two grants of the destination"
        )

    def __repr__(self) -> str:
        return (
            f"WeightedRoundRobinArbiter(weights={self._weights!r}, "
            f"default_weight={self._default_weight})"
        )
