"""Bus arbiter interface: the IBUS function of the paper.

The analysis algorithms are parameterized by an *arbiter*, i.e. an object able
to answer the question (Algorithm 1, step 5 of the paper):

    Given a destination task that performs ``dest_accesses`` accesses on bank
    ``b`` from core ``dest_core``, and a set of competing initiators — one per
    *other* core, each with its own access count on ``b`` — how many cycles of
    interference does the destination suffer on ``b`` in the worst case?

Competing demands are given **per core** (not per task).  The grouping of
alive tasks into one virtual initiator per core is the "conservative
hypothesis" of Section II-C of the paper; it is performed by
:mod:`repro.core.interference`, not by the arbiters, so each arbiter only has
to reason about core-level contention.

Soundness contract
------------------
All arbiters must satisfy two properties relied upon by the incremental
algorithm (and checked by the property-based tests in
``tests/arbiter/test_properties.py``):

* **Monotonicity**: increasing any competitor's demand, or adding a new
  competitor, never decreases the returned interference.  This is the paper's
  assumption that "adding a new task to the program can only increase the
  interference received by other tasks".
* **No self-interference / no phantom interference**: with an empty competitor
  set the interference is 0.

Interference may be *non-additive*: the value for a set of competitors is not
required to equal the sum of pairwise values (Section II-C).  The incremental
analysis therefore charges each new competitor access through
:meth:`BusArbiter.charge`, whose contract is stated against the full set:

* **Charge equivalence**: ``charge(dest_core, d, table, bank, core, added,
  old)`` — called after ``added`` accesses of ``core`` were added to
  ``table``, with ``old`` the value the previous charge returned (0 for an
  empty table) — returns ``max(old, interference(dest_core, d, table,
  bank))``.  The default evaluates exactly that, so a plug-in arbiter that
  only implements :meth:`~BusArbiter.interference` is analysed as it always
  was, including the monotone clamp that keeps a misbehaving policy from
  moving finish dates backwards.  A policy may override ``charge`` with a
  cheaper closed form of the same value; :class:`RoundRobinArbiter
  <repro.arbiter.RoundRobinArbiter>` does, in O(1).  A subclass that
  redefines ``interference`` without ``charge`` gets the default back rather
  than inheriting a closed form of its parent's policy.  An override receives
  inputs the tracker has already checked (non-negative counts, the
  destination core absent from the table), so it skips
  :func:`check_request`; :meth:`~BusArbiter.interference` keeps it for every
  direct caller.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping

from ..errors import ArbiterError
from ..platform import MemoryBank

__all__ = ["BusArbiter", "check_request"]


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


class BusArbiter(ABC):
    """Abstract bus arbitration policy (the IBUS function)."""

    #: short machine-readable policy name, overridden by subclasses
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a charge() closed form answers for the interference() it was derived
        # from: a subclass redefining interference() alone falls back to the
        # default re-evaluation instead of inheriting a stale shortcut
        if "interference" in vars(cls) and "charge" not in vars(cls):
            cls.charge = BusArbiter.charge

    @abstractmethod
    def interference(
        self,
        dest_core: int,
        dest_accesses: int,
        competitors: Mapping[int, int],
        bank: MemoryBank,
    ) -> int:
        """Worst-case interference (cycles) suffered by the destination on ``bank``.

        Parameters
        ----------
        dest_core:
            Core running the destination task.
        dest_accesses:
            Number of accesses the destination performs on ``bank``.
        competitors:
            ``{core identifier: access count}`` for every *other* core with at
            least one task alive and accessing ``bank``.  Never contains
            ``dest_core``.
        bank:
            The contended memory bank (its ``access_latency`` converts access
            counts into cycles).
        """

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
        """Interference on ``bank`` after ``added`` accesses of ``source_core`` joined.

        ``competitors`` is the bank's competitor table *including* the new
        accesses; ``old`` is the interference before them.  Returns
        ``max(old, interference(dest_core, dest_accesses, competitors, bank))``
        — overrides must return the same value (see the module docstring).
        """
        new = self.interference(dest_core, dest_accesses, competitors, bank)
        return new if new > old else old

    # ------------------------------------------------------------------

    def interference_on_private_bank(self, dest_accesses: int, bank: MemoryBank) -> int:
        """Interference on a bank reserved for the destination core: always zero."""
        return 0

    def describe(self) -> str:
        """One-line human readable description (used by reports and the CLI)."""
        return f"{self.name} arbiter"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _DemandTable:
    """Small helper shared by arbiters that need per-core bookkeeping."""

    @staticmethod
    def total(competitors: Mapping[int, int]) -> int:
        return sum(competitors.values())

    @staticmethod
    def nonzero(competitors: Mapping[int, int]) -> Dict[int, int]:
        return {core: demand for core, demand in competitors.items() if demand > 0}
