"""``serve-requests``: HTTP round trips to an in-process analysis server.

An :class:`~repro.service.AnalysisServer` on an ephemeral port sits in front
of an :class:`~repro.service.EngineRuntime` with ``nproc`` worker threads and
a fresh SQLite result cache.  One :class:`~repro.service.ServiceClient` caller
thread runs a closed loop.  With ``nproc`` caller threads the clients and the
in-process server contended for one interpreter lock and a large decode
stalled every other request for seconds.  Each cycle sends one request of
each kind:

* ``POST /analyze`` with full Fixed-LS and Fixed-NL problems at 256 and 1024
  tasks;
* ``POST /batch`` in its overlay form (``analyze_many_overlays``);
* ``POST /batch`` in its structural form (``analyze_many_structures``), with
  edits that ``patch_problem`` accepted in set-up.

Every request carries new content (a new horizon on every input), so it
misses the cache and is stored; later in the same cycle the same request is
sent again and served from the cache.  Half the requests are hits by design.
The mix (one request per kind, batches of ``BATCH_WIDTH`` probes, each
request sent twice) is synthetic: no recorded traffic backs it.  The repeats
find their results in the cache's memory tier; the SQLite read path is
measured by ``explore-deltas``.

2048 tasks is left out: one such request took 7 to 12 s on a 2-core box,
and that single sample swung the throughput of a whole run by more than the
benchmark's bounds.  ``analyze-paper`` analyses the 2048-task input
in-process.
"""

from __future__ import annotations

import json
import random
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import analyze
from repro.core import PatchedProblem, compile_problem
from repro.core.kernel import compilation_count, patch_count
from repro.service import AnalysisServer, EngineRuntime, ServiceClient

import harness
from harness import Op

NAME = "serve-requests"
WHY = (
    "At 1024 tasks decode and validation (io, model) are most of a request, so wire-path "
    "work shows here; a synthetic mix sends each request twice (miss and store write, then "
    "memory-tier hit) and runs both POST /batch delta forms."
)

#: horizons of generated content sit far above every makespan, so a new
#: horizon changes the content (and the cache key) but never the schedule
HORIZON_BASE = 10**9

SIZES = {
    "full": {
        "analyze": [("LS64", 256), ("LS64", 1024), ("NL32", 256), ("NL32", 1024)],
        "overlay_base": ("LS64", 256),
        "structural_base": ("NL32", 256),
        "batch_width": harness.BATCH_WIDTH,
        "min_cycles": 3,
    },
    "tiny": {
        "analyze": [("LS8", 32), ("LS8", 64), ("NL4", 32), ("NL4", 64)],
        "overlay_base": ("LS8", 32),
        "structural_base": ("NL4", 32),
        "batch_width": 3,
        "min_cycles": 2,
    },
}


class CountingClient(ServiceClient):
    """A ``ServiceClient`` that keeps each thread's last request and response body."""

    def __init__(self, base_url: str, **kwargs: Any) -> None:
        super().__init__(base_url, **kwargs)
        self._local = threading.local()

    def _transport(self, method: str, path: str, document: Optional[Dict[str, Any]] = None) -> bytes:
        body = super()._transport(method, path, document)
        self._local.exchange = (document, body)
        return body

    def take_exchange(self) -> Tuple[Optional[Dict[str, Any]], bytes]:
        exchange = getattr(self._local, "exchange", (None, b""))
        self._local.exchange = (None, b"")
        return exchange


def _digest(schedule: Any) -> str:
    return harness.digest_bytes(harness.canonical_schedule(schedule))


def _response_bytes(body: bytes) -> int:
    """Response size without the measured parts (wall times, trace spans)."""
    document = json.loads(body.decode("utf-8"))
    document.pop("trace", None)
    for record in [document.get("schedule")] + list(document.get("schedules") or []):
        if isinstance(record, dict):
            record.get("stats", {}).pop("wall_time_seconds", None)
    return len(json.dumps(document).encode("utf-8"))


class Workload:
    name = NAME
    why = WHY

    def __init__(self, seed: int, size: str, state_dir: Any) -> None:
        self.seed = seed
        self.spec = SIZES[size]
        self.state_dir = state_dir
        self.min_cycles = self.spec["min_cycles"]
        self.server: Optional[AnalysisServer] = None
        self.runtime: Optional[EngineRuntime] = None
        self.client: Optional[CountingClient] = None
        self._setups = 0
        self._first_cycle: Optional[int] = None
        self._cycle_start: Dict[str, Any] = {}
        self.cycle0: Dict[str, Any] = {}
        #: content key -> (kind, request content) for the correctness gate
        self.sent: Dict[Any, Tuple[str, Any]] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> Iterator[None]:
        """Builds inputs, edits and the server, yielding between steps (the caller times them)."""
        spec = self.spec
        wanted = set(spec["analyze"]) | {spec["overlay_base"], spec["structural_base"]}
        inputs = {}
        for key in sorted(wanted):
            inputs[key] = harness.paper_problem(*key, self.seed)
            yield
        self.analyze_inputs = [inputs[key] for key in spec["analyze"]]
        self.overlay_base = inputs[spec["overlay_base"]]
        self.structural_base = inputs[spec["structural_base"]]
        rng = random.Random(harness.derive_seed(self.seed, NAME, "edits"))
        self.edits = harness.accepted_edits(self.structural_base, spec["batch_width"], rng)
        self.factors = [round(1.0 + 0.25 * rng.random(), 4) for _ in range(spec["batch_width"])]
        yield
        self._setups += 1
        cache = self.state_dir / f"cache-{self._setups}.sqlite"
        self.runtime = EngineRuntime(backend="thread", max_workers=harness.nproc(), cache=cache)
        self.server = AnalysisServer(self.runtime).start()
        self.client = CountingClient(self.server.url, timeout=300.0)
        # boot: one tiny job per worker starts the pool
        boot = harness.paper_problem("LS8", 16, self.seed)
        self.client.analyze_many(
            [boot.with_horizon(HORIZON_BASE - 1 - worker) for worker in range(harness.nproc())]
        )
        self.client.take_exchange()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None

    @property
    def ops_per_cycle(self) -> int:
        return 2 * (len(self.spec["analyze"]) + 2)

    # -- timed loop -----------------------------------------------------
    def make_cycle(self, cycle: int) -> List[Op]:
        if self._first_cycle is None:
            self._first_cycle = cycle
            self._cycle_start = self._snapshot()
        client = self.client
        horizon = HORIZON_BASE + 1000 * cycle
        new: List[Op] = []
        for slot, base in enumerate(self.analyze_inputs):
            problem = base.with_horizon(horizon + slot)
            new.append(self._analyze_op(client, ("analyze", cycle, slot), problem))
        kernel = compile_problem(self.overlay_base.with_horizon(horizon + 500))
        probes = [
            kernel.with_overlay(kernel.scaled_demand_overlay(factor), name=f"{self.overlay_base.name}-x{factor}")
            for factor in self.factors
        ]
        new.append(self._batch_op(client, ("overlays", cycle, 0), "overlays", probes))
        parent = compile_problem(self.structural_base.with_horizon(horizon + 900))
        probes = [
            PatchedProblem(parent, delta, name=f"{self.structural_base.name}~{index}")
            for index, delta in enumerate(self.edits)
        ]
        new.append(self._batch_op(client, ("structures", cycle, 0), "structures", probes))

        # the seed fixes the order once, so every cycle runs the same sequence:
        # all new content, then every request again
        rng = random.Random(harness.derive_seed(self.seed, NAME, "plan"))
        repeats = [Op(op.kind, op.run, tasks=op.tasks, hit=True, key=op.key) for op in new]
        rng.shuffle(new)
        rng.shuffle(repeats)
        return new + repeats

    def _analyze_op(self, client: CountingClient, key: Any, problem: Any) -> Op:
        self.sent[key] = ("analyze", problem)

        def run() -> Any:
            schedule = client.analyze(problem)
            return {"schedules": [schedule], "exchange": client.take_exchange()}

        return Op("analyze", run, tasks=problem.task_count, hit=False, key=key)

    def _batch_op(self, client: CountingClient, key: Any, form: str, probes: List[Any]) -> Op:
        self.sent[key] = (form, probes)
        send = client.analyze_many_overlays if form == "overlays" else client.analyze_many_structures

        def run() -> Any:
            schedules = send(probes)
            return {"schedules": schedules, "exchange": client.take_exchange()}

        tasks = sum(probe.task_count for probe in probes)
        return Op(form, run, tasks=tasks, hit=False, key=key)

    def _snapshot(self) -> Dict[str, Any]:
        stats = self.client.stats()
        return {
            "runtime": stats["runtime"],
            "queue": stats["queue"],
            "compilations": compilation_count(),
            "patches": patch_count(),
        }

    def on_cycle_end(self, cycle: int, results: List[harness.OpResult]) -> None:
        if cycle != self._first_cycle:
            # keep digests only, so memory does not grow with the cycle count
            for result in results:
                if result.ok:
                    result.output = {"digests": [_digest(s) for s in result.output["schedules"]]}
            return
        before, after = self._cycle_start, self._snapshot()
        cache_before, cache_after = before["runtime"]["cache"], after["runtime"]["cache"]
        lookups = cache_after["lookups"] - cache_before["lookups"]
        self.cycle0 = {
            "service.queue_batches": after["queue"]["batches"] - before["queue"]["batches"],
            "service.coalesced": after["queue"]["coalesced"] - before["queue"]["coalesced"],
            "engine.cache_hit_share": (cache_after["hits"] - cache_before["hits"]) / max(lookups, 1),
            "engine.store_transactions": cache_after["transactions"] - cache_before["transactions"],
            "engine.pools_created": after["runtime"]["pools_created"],
            "engine.jobs_computed": after["runtime"]["jobs_completed"] - before["runtime"]["jobs_completed"],
            "core.kernel.compilations": after["compilations"] - before["compilations"],
            "core.kernel.patches": after["patches"] - before["patches"],
        }

    # -- after the loop -------------------------------------------------
    def _reference(self, form: str, content: Any) -> List[Any]:
        if form == "analyze":
            return [analyze(content)]
        return [analyze(probe) for probe in content]

    def finish(self, loops: List[harness.Loop], gate: harness.Gate) -> Dict[str, Any]:
        results = [result for loop in loops for result in loop.results if result.ok]
        by_key: Dict[Any, List[harness.OpResult]] = {}
        for result in results:
            by_key.setdefault(result.key, []).append(result)
        validated = harness.Validated()
        first_cycle_schedules: List[Any] = []
        digest_parts: List[bytes] = []
        for key in sorted(by_key, key=repr):
            form, content = self.sent[key]
            references = self._reference(form, content)
            problems = [content] if form == "analyze" else [probe.materialize() for probe in content]
            for problem, reference in zip(problems, references):
                # the cycles' variants of one input share a name and, far below
                # their horizons, a schedule
                gate.run(f"validate_schedule({problem.name})", validated.check,
                         (form, problem.name), problem, reference)
            expected = [_digest(schedule) for schedule in references]
            for result in by_key[key]:
                got = result.output.get("digests") or [_digest(s) for s in result.output["schedules"]]
                gate.check(f"response for {key} is bit-identical to in-process analyze", got == expected)
            if key[1] == self._first_cycle:
                digest_parts.extend(digest.encode("ascii") for digest in expected)
                first_cycle_schedules.extend(references)
        # served structural probes match cold analysis of the edited problem
        key = ("structures", self._first_cycle, 0)
        probes = self.sent[key][1]
        served = by_key[key][0].output["schedules"]
        harness.check_structural_sample(
            gate,
            random.Random(harness.derive_seed(self.seed, NAME, "structural-sample")),
            probes[0].parent.problem,
            [(probe.name, probe.delta, schedule) for probe, schedule in zip(probes, served)],
            2,
            lambda schedule, cold: _digest(schedule) == _digest(cold),
        )

        # exact counters over the first cycle
        first = [result for result in results if result.cycle == self._first_cycle]
        first.sort(key=lambda result: (repr(result.key), result.hit))
        schedules = [schedule for result in first for schedule in result.output["schedules"]]
        request_bytes = sum(
            len(json.dumps(result.output["exchange"][0]).encode("utf-8")) for result in first
        )
        response_bytes = sum(_response_bytes(result.output["exchange"][1]) for result in first)
        counters = {
            "io.request_bytes": request_bytes,
            "io.response_bytes": response_bytes,
            "core.incremental.cursor_steps": sum(s.stats.cursor_steps for s in schedules),
            "core.incremental.ibus_calls": sum(s.stats.ibus_calls for s in schedules),
            "core.incremental.warm_start_hits": sum(s.stats.warm_start_hits for s in schedules),
            "core.kernel.compilations": self.cycle0.get("core.kernel.compilations", 0),
            "core.kernel.patches": self.cycle0.get("core.kernel.patches", 0),
        }
        layer = dict(self.cycle0)
        layer["engine.store_transactions_per_op"] = layer.pop("engine.store_transactions", 0) / max(len(first), 1)
        hits = [result for result in results if result.hit]
        return {
            "digest": harness.digest_bytes(b"".join(digest_parts)),
            "counters": counters,
            "layer": layer,
            "provenance": {
                "hit_share": self.cycle0.get("engine.cache_hit_share", 0.0),
                "designed_hit_share": len(hits) / max(len(results), 1),
                "analysis_backend_served": ",".join(sorted({s.stats.backend for s in schedules})),
                "inputs": sorted({problem.name for problem in self.analyze_inputs}),
                "store": "sqlite",
            },
            "probe_inputs": list({id(p): p for p in self.analyze_inputs}.values()),
            "probe_outputs": first_cycle_schedules[:3],
        }
