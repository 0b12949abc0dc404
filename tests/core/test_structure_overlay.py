"""Structural overlays: patched kernels, dirty sets, and warm-start bit-identity.

The contract under test (PR 7 tentpole):

* ``patch_problem`` produces a child kernel sharing every untouched CSR row
  and index table with its parent by identity, and a noop delta returns the
  parent kernel itself.
* warm-started **incremental** analysis is bit-identical to cold analysis of
  the patched problem — entries, verdict, makespan, IBUS calls and cursor
  steps — for *every* single-edit delta, across the generator zoo.
* warm-started **fixed-point** analysis is bit-identical whenever the seed is
  at or below the child's least fixed point.  A noop seed always is; for
  arbitrary edits the sweep may legitimately land on a different (still
  valid) fixed point, so the randomized sweep asserts soundness invariants
  and the bit-identity claim is pinned on a deterministic corpus.
"""

import random

import pytest

from repro.core import (
    PatchedProblem,
    StructureOverlay,
    analyze,
    analyze_fixedpoint,
    analyze_incremental,
    compile_problem,
    compute_warm_start,
    patch_problem,
    schedule_violations,
    structural_dirty_names,
)
from repro import AnalysisProblem, TaskGraphBuilder
from repro.errors import MappingError, PlatformError, ReproError
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    LayerByLayerConfig,
    SeriesParallelConfig,
    generate_chains,
    generate_fork_join,
    generate_layer_by_layer,
    generate_series_parallel,
)
from repro.platform import partitioned_banks


def zoo(seed):
    """One workload per generator family, all driven by the same seed."""
    return [
        generate_chains(
            ChainsConfig(chains=4, length=5, core_count=4, bank_count=2, seed=seed)
        ),
        generate_fork_join(
            ForkJoinConfig(sections=3, width=4, core_count=4, bank_count=2, seed=seed)
        ),
        generate_layer_by_layer(
            LayerByLayerConfig(
                task_count=20, layer_count=4, core_count=4, bank_count=2, seed=seed
            )
        ),
        generate_series_parallel(
            SeriesParallelConfig(target_tasks=18, core_count=4, bank_count=2, seed=seed)
        ),
    ]


def random_delta(rng, kernel):
    """One random single-edit delta, drawn uniformly over the six kinds."""
    names = list(kernel.names)
    kind = rng.choice(
        ["noop", "add_task", "remove_task", "add_edge", "remove_edge", "remap_task"]
    )
    if kind == "noop":
        return StructureOverlay.noop()
    if kind == "add_task":
        return StructureOverlay.add_task(
            f"extra-{rng.randrange(10**6)}",
            wcet=rng.randint(1, 40),
            core=rng.randrange(len(kernel.core_ids)),
            demand={bank: rng.randint(0, 9) for bank in kernel.bank_ids},
        )
    if kind == "remove_task":
        return StructureOverlay.remove_task(rng.choice(names))
    if kind == "remap_task":
        return StructureOverlay.remap_task(
            rng.choice(names), rng.randrange(len(kernel.core_ids))
        )
    producer, consumer = rng.sample(names, 2)
    if kind == "add_edge":
        return StructureOverlay.add_edge(producer, consumer, volume=rng.randint(0, 4))
    return StructureOverlay.remove_edge(producer, consumer)


def fingerprint(schedule):
    """Everything the bit-identity contract covers, in one comparable value."""
    return (
        [entry.to_dict() for entry in schedule.entries()],
        schedule.schedulable,
        sorted(schedule.unscheduled),
        schedule.makespan,
        schedule.stats.cursor_steps,
        schedule.stats.ibus_calls,
    )


def warm_cold_pair(kernel, delta, parent_schedule):
    """A warm-started probe and its cold twin for one delta."""
    warm = PatchedProblem(kernel, delta, parent_schedule=parent_schedule)
    cold = PatchedProblem(kernel, delta)
    return warm, cold


def valid_remap(kernel, name):
    """A remap of ``name`` that patches cleanly, or None.

    Moving a task can conflict with the target core's execution order and
    introduce an ordering cycle, so candidate cores are probed until one
    yields a valid patched kernel.
    """
    current = kernel.core_of[kernel.index_of[name]]
    for core in kernel.core_ids:
        if core == current:
            continue
        delta = StructureOverlay.remap_task(name, core=core)
        try:
            patch_problem(kernel, delta)
        except ReproError:
            continue
        return delta
    return None


class TestPlacementChecks:
    """Structural edits pass the platform's placement check, like validation."""

    @staticmethod
    def kernel():
        builder = TaskGraphBuilder("private")
        builder.task("a", wcet=10, accesses={0: 4}, core=0)
        builder.task("b", wcet=10, accesses={2: 4}, core=1)
        graph, mapping = builder.build_both()
        # banks 0 and 1 are reserved for cores 0 and 1, bank 2 is shared
        return compile_problem(AnalysisProblem(graph, mapping, partitioned_banks(2)))

    @pytest.mark.parametrize(
        "delta, error, message",
        [
            (StructureOverlay.add_task("c", wcet=5, core=7), PlatformError, "core 7"),
            (
                StructureOverlay.add_task("c", wcet=5, core=0, demand={9: 1}),
                PlatformError,
                "bank 9",
            ),
            (
                StructureOverlay.add_task("c", wcet=5, core=0, demand={1: 1}),
                MappingError,
                "reserved for core 1",
            ),
            (StructureOverlay.remap_task("a", core=1), MappingError, "reserved for core 0"),
        ],
    )
    def test_misplaced_edit_rejected(self, delta, error, message):
        with pytest.raises(error, match=message):
            patch_problem(self.kernel(), delta)

    def test_edit_on_shared_bank_applies(self):
        child = patch_problem(self.kernel(), StructureOverlay.remap_task("b", core=0))
        assert child.core_of == (0, 0)


class TestPatchedKernelSharing:
    def test_noop_patch_returns_parent_kernel(self):
        kernel = compile_problem(zoo(3)[0].to_problem(horizon=None))
        assert patch_problem(kernel, StructureOverlay.noop()) is kernel

    def test_untouched_rows_shared_by_identity(self):
        kernel = compile_problem(zoo(3)[0].to_problem(horizon=None))
        delta = next(
            delta
            for index in kernel.topo_order
            if (delta := valid_remap(kernel, kernel.names[index])) is not None
        )
        child = patch_problem(kernel, delta)
        # a remap rewrites the core map but must not copy the per-task tables
        assert child.wcet is kernel.wcet
        assert child.demand is kernel.demand
        assert child.min_release is kernel.min_release
        assert child.names is kernel.names
        assert child.core_of is not kernel.core_of

    def test_edge_patch_shares_parameter_rows_but_not_dep_csr(self):
        kernel = compile_problem(zoo(3)[2].to_problem(horizon=None))
        order = kernel.topo_order
        producer = kernel.names[order[0]]
        consumer = kernel.names[order[-1]]
        delta = StructureOverlay.add_edge(producer, consumer)
        child = patch_problem(kernel, delta)
        assert child.wcet is kernel.wcet
        assert child.demand is kernel.demand
        assert child.dep_list is not kernel.dep_list

    def test_patch_counted_separately_from_compilation(self):
        from repro.core.kernel import compilation_count, patch_count

        kernel = compile_problem(zoo(5)[0].to_problem(horizon=None))
        compiled_before = compilation_count()
        patched_before = patch_count()
        name = kernel.names[kernel.topo_order[0]]
        current = kernel.core_of[kernel.index_of[name]]
        target = next(c for c in kernel.core_ids if c != current)
        patch_problem(kernel, StructureOverlay.remap_task(name, core=target))
        assert compilation_count() == compiled_before
        assert patch_count() == patched_before + 1


class TestDirtySetAndWarmStart:
    def test_noop_warm_start_has_empty_dirty_set(self):
        kernel = compile_problem(zoo(9)[0].to_problem(horizon=None))
        schedule = analyze_incremental(kernel.problem)
        warm = compute_warm_start(kernel, kernel, StructureOverlay.noop(), schedule)
        assert warm.dirty == frozenset()
        assert warm.first_affected_time is None

    def test_dirty_names_include_edit_target_and_downstream(self):
        kernel = compile_problem(zoo(9)[3].to_problem(horizon=None))
        name, delta = next(
            (kernel.names[index], delta)
            for index in kernel.topo_order
            if (delta := valid_remap(kernel, kernel.names[index])) is not None
        )
        child = patch_problem(kernel, delta)
        dirty = structural_dirty_names(kernel, child, delta)
        assert name in dirty
        for successor in child.dependents_of(child.index_of[name]):
            assert child.names[successor] in dirty

    def test_removed_task_never_in_dirty_set(self):
        kernel = compile_problem(zoo(9)[1].to_problem(horizon=None))
        victim = kernel.names[kernel.topo_order[1]]
        delta = StructureOverlay.remove_task(victim)
        child = patch_problem(kernel, delta)
        dirty = structural_dirty_names(kernel, child, delta)
        assert victim not in dirty
        assert dirty <= set(child.names)


class TestIncrementalWarmBitIdentity:
    """Universal contract: warm incremental == cold incremental, bit for bit."""

    @pytest.mark.parametrize("generator_seed", [0, 1, 2])
    def test_random_single_edits_across_zoo(self, generator_seed):
        rng = random.Random(100 + generator_seed)
        checked = warm_hits = 0
        for workload in zoo(generator_seed):
            base = workload.to_problem(horizon=None)
            kernel = compile_problem(base)
            parent_schedule = analyze_incremental(base)
            for _ in range(6):
                delta = random_delta(rng, kernel)
                try:
                    warm, cold = warm_cold_pair(kernel, delta, parent_schedule)
                except ReproError:
                    continue  # e.g. removing an edge that does not exist
                warm_schedule = analyze(warm, "incremental")
                cold_schedule = analyze(cold, "incremental")
                assert fingerprint(warm_schedule) == fingerprint(cold_schedule)
                checked += 1
                warm_hits += warm_schedule.stats.warm_start_hits
        assert checked >= 12
        assert warm_hits > 0  # the warm path genuinely engaged

    def test_noop_delta_is_bit_identical_and_warm(self):
        for workload in zoo(7):
            base = workload.to_problem(horizon=None)
            kernel = compile_problem(base)
            parent_schedule = analyze_incremental(base)
            warm, cold = warm_cold_pair(kernel, StructureOverlay.noop(), parent_schedule)
            warm_schedule = analyze(warm, "incremental")
            assert fingerprint(warm_schedule) == fingerprint(analyze(cold, "incremental"))
            assert warm_schedule.stats.warm_start_hits == 1

    def test_edit_at_topological_index_zero(self):
        """Dirtying the very first task leaves no clean prefix to replay."""
        for workload in zoo(11):
            base = workload.to_problem(horizon=None)
            kernel = compile_problem(base)
            parent_schedule = analyze_incremental(base)
            first_index = kernel.topo_order[0]
            first = kernel.names[first_index]
            delta = valid_remap(kernel, first)
            if delta is None:
                # fall back to a new edge out of the first task
                direct = set(kernel.dependents_of(first_index))
                consumer = next(
                    kernel.names[index]
                    for index in kernel.topo_order[1:]
                    if index not in direct
                )
                delta = StructureOverlay.add_edge(first, consumer)
            warm, cold = warm_cold_pair(kernel, delta, parent_schedule)
            assert fingerprint(analyze(warm, "incremental")) == fingerprint(
                analyze(cold, "incremental")
            )


class TestFixedpointWarmStart:
    def test_noop_seed_is_fully_bit_identical(self):
        """Seeding from the child's own fixed point must converge immediately."""
        for workload in zoo(13):
            base = workload.to_problem(horizon=None)
            kernel = compile_problem(base)
            parent_schedule = analyze_fixedpoint(base)
            warm, cold = warm_cold_pair(kernel, StructureOverlay.noop(), parent_schedule)
            warm_schedule = analyze_fixedpoint(warm)
            cold_schedule = analyze_fixedpoint(cold)
            assert fingerprint(warm_schedule)[:4] == fingerprint(cold_schedule)[:4]
            assert warm_schedule.stats.ibus_calls == cold_schedule.stats.ibus_calls
            assert (
                warm_schedule.stats.outer_iterations
                == cold_schedule.stats.outer_iterations
            )
            assert warm_schedule.stats.warm_start_hits == 1

    @pytest.mark.parametrize("corpus_seed", [7, 11])
    def test_deterministic_corpus_is_bit_identical(self, corpus_seed):
        """Entries/verdict/makespan equality over a pinned random corpus.

        Seeding a Jacobi sweep above the child's least fixed point can land
        on a *different* valid fixed point, so universal bit-identity under
        arbitrary seeds is unsatisfiable.  These corpus seeds are pinned to
        edits whose warm seeds stay at or below the child's least fixed
        point, where the contract is exact.
        """
        rng = random.Random(corpus_seed)
        checked = warm_hits = 0
        for generator_seed in (0, 1):
            for workload in zoo(generator_seed):
                base = workload.to_problem(horizon=None)
                kernel = compile_problem(base)
                parent_schedule = analyze_fixedpoint(base)
                for _ in range(5):
                    delta = random_delta(rng, kernel)
                    try:
                        warm, cold = warm_cold_pair(kernel, delta, parent_schedule)
                    except ReproError:
                        continue
                    warm_schedule = analyze_fixedpoint(warm)
                    cold_schedule = analyze_fixedpoint(cold)
                    assert [e.to_dict() for e in warm_schedule.entries()] == [
                        e.to_dict() for e in cold_schedule.entries()
                    ]
                    assert warm_schedule.schedulable == cold_schedule.schedulable
                    assert warm_schedule.makespan == cold_schedule.makespan
                    checked += 1
                    warm_hits += warm_schedule.stats.warm_start_hits
        assert checked >= 15
        assert warm_hits > 0

    def test_random_edits_always_yield_valid_schedules(self):
        """Soundness under arbitrary seeds: any fixed point reached is valid."""
        rng = random.Random(2026)
        checked = 0
        for workload in zoo(4):
            base = workload.to_problem(horizon=None)
            kernel = compile_problem(base)
            parent_schedule = analyze_fixedpoint(base)
            for _ in range(4):
                delta = random_delta(rng, kernel)
                try:
                    warm = PatchedProblem(kernel, delta, parent_schedule=parent_schedule)
                except ReproError:
                    continue
                schedule = analyze_fixedpoint(warm)
                if schedule.schedulable:
                    assert schedule_violations(warm.kernel.problem, schedule) == []
                checked += 1
        assert checked >= 8
