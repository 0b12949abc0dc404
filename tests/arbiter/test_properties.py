"""Property-based tests of the arbiter soundness contract.

Every registered arbitration policy must satisfy the two properties the
incremental algorithm relies on (see ``repro/arbiter/base.py``):

* zero interference with an empty competitor set;
* monotonicity — growing a competitor's demand, or adding a competitor, never
  decreases the interference.

Every policy — and a plug-in that only implements ``interference`` — must
also honour the ``charge`` contract the incremental tracker runs on: each
charge equals re-evaluating ``interference`` on the table so far, clamped so
it never decreases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryBank, Platform, RoundRobinArbiter
from repro.arbiter import BusArbiter, available_arbiters, create_arbiter, check_request

BANK = MemoryBank(identifier=0, access_latency=1)
PLATFORM = Platform.symmetric(8, 1)

#: drop aliases so each policy is exercised once
_POLICIES = sorted({name for name in available_arbiters() if name not in ("rr", "mppa", "none")})

competitor_sets = st.dictionaries(
    st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=500), max_size=6
)


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_empty_competitor_set_gives_zero(policy, demand):
    arbiter = create_arbiter(policy, PLATFORM)
    assert arbiter.interference(0, demand, {}, BANK) == 0


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=300), competitors=competitor_sets)
@settings(max_examples=50, deadline=None)
def test_interference_is_non_negative(policy, demand, competitors):
    arbiter = create_arbiter(policy, PLATFORM)
    assert arbiter.interference(0, demand, competitors, BANK) >= 0


@pytest.mark.parametrize("policy", _POLICIES)
@given(
    demand=st.integers(min_value=0, max_value=300),
    competitors=competitor_sets,
    extra_core=st.integers(min_value=1, max_value=7),
    extra_demand=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_adding_or_growing_a_competitor_never_decreases_interference(
    policy, demand, competitors, extra_core, extra_demand
):
    arbiter = create_arbiter(policy, PLATFORM)
    before = arbiter.interference(0, demand, competitors, BANK)
    grown = dict(competitors)
    grown[extra_core] = grown.get(extra_core, 0) + extra_demand
    after = arbiter.interference(0, demand, grown, BANK)
    assert after >= before


@pytest.mark.parametrize("policy", _POLICIES)
@given(demand=st.integers(min_value=0, max_value=300), competitors=competitor_sets)
@settings(max_examples=40, deadline=None)
def test_latency_scales_interference_linearly(policy, demand, competitors):
    """Doubling the bank latency at least doubles nothing *less*: interference scales with latency."""
    arbiter = create_arbiter(policy, PLATFORM)
    slow_bank = MemoryBank(identifier=0, access_latency=2)
    fast = arbiter.interference(0, demand, competitors, BANK)
    slow = arbiter.interference(0, demand, competitors, slow_bank)
    assert slow == 2 * fast


@pytest.mark.parametrize("policy", _POLICIES)
def test_describe_is_a_non_empty_string(policy):
    arbiter = create_arbiter(policy, PLATFORM)
    assert isinstance(arbiter.describe(), str)
    assert arbiter.describe()


class _PeakArbiter(BusArbiter):
    """Test plug-in: non-additive, every access waits for the busiest competitor."""

    name = "test-peak"

    def interference(self, dest_core, dest_accesses, competitors, bank):
        check_request(dest_core, dest_accesses, competitors)
        busy = [demand for demand in competitors.values() if demand > 0]
        if not busy:
            return 0
        return min(dest_accesses, max(busy)) * len(busy) * bank.access_latency


class _ErraticArbiter(BusArbiter):
    """Test plug-in that breaks monotonicity, so the clamp in ``charge`` shows."""

    name = "test-erratic"

    def interference(self, dest_core, dest_accesses, competitors, bank):
        return (sum(competitors.values()) % 7) * min(dest_accesses, 3) * bank.access_latency


class _DoubledRoundRobinArbiter(RoundRobinArbiter):
    """Test plug-in redefining ``interference`` only: must not inherit the
    round-robin ``charge`` closed form."""

    name = "test-doubled-round-robin"

    def interference(self, dest_core, dest_accesses, competitors, bank):
        return 2 * super().interference(dest_core, dest_accesses, competitors, bank)


_PLUGINS = {
    "test-peak": _PeakArbiter,
    "test-erratic": _ErraticArbiter,
    "test-doubled-round-robin": _DoubledRoundRobinArbiter,
}

charge_sequences = st.lists(
    st.tuples(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=500)),
    max_size=12,
)


@pytest.mark.parametrize("policy", _POLICIES + sorted(_PLUGINS))
@given(
    demand=st.integers(min_value=0, max_value=300),
    latency=st.integers(min_value=1, max_value=4),
    charges=charge_sequences,
)
@settings(max_examples=60, deadline=None)
def test_charge_equals_clamped_full_reevaluation(policy, demand, latency, charges):
    arbiter = _PLUGINS[policy]() if policy in _PLUGINS else create_arbiter(policy, PLATFORM)
    bank = MemoryBank(identifier=0, access_latency=latency)
    table = {}
    value = 0
    for core, added in charges:
        table[core] = table.get(core, 0) + added
        expected = max(value, arbiter.interference(0, demand, table, bank))
        value = arbiter.charge(0, demand, table, bank, core, added, value)
        assert value == expected
