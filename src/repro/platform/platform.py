"""Hardware platform model: cores, memory banks and their parameters.

Only the features that matter for the memory-interference analysis are
modelled:

* the set of processing cores (``Core``), optionally grouped in clusters;
* the set of shared memory banks (``MemoryBank``), each with a per-access
  latency in cycles — the time the bus is busy serving one word;
* an optional static bank partitioning (``reserved_for``) used to express the
  paper's remark that banks may be "reserved for each core to minimize
  interference".

The bus *arbitration policy* itself lives in :mod:`repro.arbiter` so that the
same physical platform can be analysed under several policies (ablation A2 in
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import MappingError, PlatformError

__all__ = ["Core", "MemoryBank", "Platform"]


@dataclass(frozen=True)
class Core:
    """One processing element.

    Attributes
    ----------
    identifier:
        Small non-negative integer; this is the value used by
        :class:`repro.model.Mapping`.
    name:
        Human-readable name (``"PE3"`` by default).
    cluster:
        Identifier of the compute cluster the core belongs to (0 when the
        platform is flat).
    priority:
        Arbitration priority used by the fixed-priority arbiter (lower value =
        higher priority).  Ignored by the other arbiters.
    """

    identifier: int
    name: str = ""
    cluster: int = 0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.identifier < 0:
            raise PlatformError(f"core identifier must be non-negative, got {self.identifier}")
        if not self.name:
            object.__setattr__(self, "name", f"PE{self.identifier}")


@dataclass(frozen=True)
class MemoryBank:
    """One shared-memory bank behind the arbitrated bus.

    ``access_latency`` is the number of cycles the bus is occupied by a single
    word access; it is the unit in which interference is counted (the paper's
    example uses 1 cycle per word).  ``reserved_for`` optionally restricts the
    bank to a single core: accesses from other cores are a modelling error and
    interference on a reserved bank is always zero.
    """

    identifier: int
    name: str = ""
    access_latency: int = 1
    reserved_for: Optional[int] = None

    def __post_init__(self) -> None:
        if self.identifier < 0:
            raise PlatformError(f"bank identifier must be non-negative, got {self.identifier}")
        if self.access_latency <= 0:
            raise PlatformError(
                f"bank {self.identifier}: access latency must be positive, got {self.access_latency}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"bank{self.identifier}")

    @property
    def is_private(self) -> bool:
        """True when the bank is statically reserved for a single core."""
        return self.reserved_for is not None


class Platform:
    """A many-core platform: cores + shared memory banks.

    The class is deliberately independent from the arbiter so a single
    platform instance can be analysed under several arbitration policies.
    """

    def __init__(
        self,
        name: str,
        cores: Sequence[Core],
        banks: Sequence[MemoryBank],
        *,
        description: str = "",
    ) -> None:
        if not cores:
            raise PlatformError("a platform needs at least one core")
        if not banks:
            raise PlatformError("a platform needs at least one memory bank")
        self.name = name
        self.description = description
        self._cores: Dict[int, Core] = {}
        self._banks: Dict[int, MemoryBank] = {}
        for core in cores:
            if core.identifier in self._cores:
                raise PlatformError(f"duplicate core identifier {core.identifier}")
            self._cores[core.identifier] = core
        for bank in banks:
            if bank.identifier in self._banks:
                raise PlatformError(f"duplicate bank identifier {bank.identifier}")
            if bank.reserved_for is not None and bank.reserved_for not in self._cores:
                raise PlatformError(
                    f"bank {bank.identifier} reserved for unknown core {bank.reserved_for}"
                )
            self._banks[bank.identifier] = bank

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def symmetric(
        cls,
        core_count: int,
        bank_count: int = 1,
        *,
        name: str = "generic",
        access_latency: int = 1,
        cluster_size: Optional[int] = None,
    ) -> "Platform":
        """A flat symmetric platform with ``core_count`` cores and ``bank_count`` banks."""
        if core_count <= 0:
            raise PlatformError("core_count must be positive")
        if bank_count <= 0:
            raise PlatformError("bank_count must be positive")
        cluster_size = cluster_size or core_count
        cores = [
            Core(identifier=i, cluster=i // cluster_size, priority=i) for i in range(core_count)
        ]
        banks = [MemoryBank(identifier=b, access_latency=access_latency) for b in range(bank_count)]
        return cls(name=name, cores=cores, banks=banks)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def core_count(self) -> int:
        return len(self._cores)

    @property
    def bank_count(self) -> int:
        return len(self._banks)

    def cores(self) -> List[Core]:
        return [self._cores[i] for i in sorted(self._cores)]

    def banks(self) -> List[MemoryBank]:
        return [self._banks[i] for i in sorted(self._banks)]

    def core_ids(self) -> List[int]:
        return sorted(self._cores)

    def bank_ids(self) -> List[int]:
        return sorted(self._banks)

    def core(self, identifier: int) -> Core:
        try:
            return self._cores[identifier]
        except KeyError:
            raise PlatformError(f"unknown core {identifier}") from None

    def bank(self, identifier: int) -> MemoryBank:
        try:
            return self._banks[identifier]
        except KeyError:
            raise PlatformError(f"unknown memory bank {identifier}") from None

    def has_core(self, identifier: int) -> bool:
        return identifier in self._cores

    def has_bank(self, identifier: int) -> bool:
        return identifier in self._banks

    def check_placement(self, task: str, core: int, banks: Iterable[int]) -> None:
        """Check that ``task`` may run on ``core`` and access ``banks``.

        :raises PlatformError: the core or a bank does not exist.
        :raises MappingError: a bank is reserved for another core.
        """
        if core not in self._cores:
            raise PlatformError(
                f"task {task!r} is mapped to core {core} which does not exist "
                f"on platform {self.name!r}"
            )
        for bank in banks:
            record = self._banks.get(bank)
            if record is None:
                raise PlatformError(
                    f"task {task!r} accesses bank {bank} which does not exist "
                    f"on platform {self.name!r}"
                )
            if record.reserved_for is not None and record.reserved_for != core:
                raise MappingError(
                    f"task {task!r} (core {core}) accesses bank {bank} "
                    f"reserved for core {record.reserved_for}"
                )

    def clusters(self) -> Dict[int, List[Core]]:
        """Cores grouped by cluster identifier."""
        result: Dict[int, List[Core]] = {}
        for core in self.cores():
            result.setdefault(core.cluster, []).append(core)
        return result

    def private_banks(self) -> List[MemoryBank]:
        return [bank for bank in self.banks() if bank.is_private]

    def shared_banks(self) -> List[MemoryBank]:
        return [bank for bank in self.banks() if not bank.is_private]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "cores": [
                {
                    "identifier": core.identifier,
                    "name": core.name,
                    "cluster": core.cluster,
                    "priority": core.priority,
                }
                for core in self.cores()
            ],
            "banks": [
                {
                    "identifier": bank.identifier,
                    "name": bank.name,
                    "access_latency": bank.access_latency,
                    "reserved_for": bank.reserved_for,
                }
                for bank in self.banks()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Platform":
        cores = [
            Core(
                identifier=int(record["identifier"]),
                name=str(record.get("name", "")),
                cluster=int(record.get("cluster", 0)),
                priority=int(record.get("priority", 0)),
            )
            for record in data.get("cores", [])  # type: ignore[union-attr]
        ]
        banks = [
            MemoryBank(
                identifier=int(record["identifier"]),
                name=str(record.get("name", "")),
                access_latency=int(record.get("access_latency", 1)),
                reserved_for=(
                    None if record.get("reserved_for") is None else int(record["reserved_for"])
                ),
            )
            for record in data.get("banks", [])  # type: ignore[union-attr]
        ]
        return cls(
            name=str(data.get("name", "platform")),
            cores=cores,
            banks=banks,
            description=str(data.get("description", "")),
        )

    def __repr__(self) -> str:
        return f"Platform({self.name!r}, cores={self.core_count}, banks={self.bank_count})"
