#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 e2ebench/run.py --workload analyze-paper --seed 1 --seconds 10 --trace 0

Every workload, untraced then traced, with the per-layer breakdown printed
beside the end-to-end metrics::

    python3 e2ebench/run.py --seed 1 --seconds 10

The smoke self-test runs every workload at tiny size twice, through the
correctness gate and the exact-counter comparison::

    python3 e2ebench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness gate fails prints ``"correct": false`` and exits 1.  Reports,
Chrome traces and the exact-counter records go under ``.bench_state/`` at
the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("analyze-paper", "serve-requests", "explore-deltas")

#: set-ups per untraced run; setup_s is their median
SETUP_REPS = 3

#: end-to-end metrics every workload reports (the JSON result line)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("tasks_per_s", "tasks/s"),
    ("peak_rss_mb", "MB"),
)
#: end-to-end metrics printed and reported but not in the result line: the
#: hit and miss latencies and the fixed-point baseline apply to some
#: workloads only, failed_share is 0 whenever the run is correct, and the
#: latencies carry no bound of their own.  Times are reference seconds (see
#: ``harness``); the raw wall-clock figures are printed beside them.
REPORTED_END_TO_END = (
    ("op_latency_p50_s", "s"),
    ("op_latency_tail_s", "s"),
    ("hit_latency_p50_s", "s"),
    ("miss_latency_p50_s", "s"),
    ("fixedpoint_tasks_per_s", "tasks/s"),
    ("failed_share", "ratio"),
)

#: per-layer timings: metric -> the span names it covers.  Each is the mean
#: seconds per span (self time for the metrics in SELF_TIME).  Those in
#: PER_LAYER_TIMES are measured on every workload; the rest only where the
#: layer runs, so they are printed and reported but not in the result line.
PER_LAYER_TIMES = {
    "model.validate_s": ("model.validate",),
    "io.decode_s": ("io.decode",),
    "io.encode_s": ("io.encode",),
    "core.kernel.compile_s": ("kernel.compile",),
    "core.incremental.analyze_s": ("analyze.incremental",),
    "core.incremental.event_loop_s": ("incremental.event_loop",),
}
WORKLOAD_LAYER_TIMES = {
    "service.http_self_s": ("http.request",),
    "service.queue_wait_s": ("queue.wait",),
    "service.runtime_batch_s": ("runtime.batch",),
    "engine.cache_lookup_s": ("cache.lookup", "cache.lookup_many"),
    "engine.job_run_s": ("job.run",),
    "core.fixedpoint.analyze_s": ("analyze.fixedpoint",),
}
SELF_TIME = {"service.http_self_s"}

#: per-layer counts: metric -> unit
PER_LAYER_COUNTS = {
    "io.request_bytes": "bytes",
    "io.response_bytes": "bytes",
    "service.queue_batches": "count",
    "service.coalesced": "count",
    "engine.cache_hit_share": "ratio",
    "engine.store_transactions_per_op": "count/op",
    "engine.pools_created": "count",
    "engine.jobs_computed": "count",
    "core.kernel.compilations": "count",
    "core.kernel.patches": "count",
    "core.incremental.cursor_steps": "count",
    "core.incremental.ibus_calls": "count",
    "core.incremental.warm_start_hits": "count",
    "core.fixedpoint.inner_iterations": "count",
    "core.vector.sweeps": "count",
    "core.vector.generation_passes": "count",
    "analysis.probes_computed": "count",
    "analysis.probes_cached": "count",
    "analysis.generations": "count",
    "analysis.useful_probe_share": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

#: layer of each span name, for the breakdown table
LAYER_OF_SPAN = {
    "model.validate": "model",
    "io.decode": "io",
    "io.encode": "io",
    "client.request": "service",
    "http.request": "service",
    "queue.wait": "service",
    "runtime.batch": "service",
    "batch.run": "engine",
    "cache.lookup": "engine",
    "cache.lookup_many": "engine",
    "engine.dispatch": "engine",
    "engine.chunk": "engine",
    "job.run": "engine",
    "kernel.compile": "core.kernel",
    "kernel.patch": "core.kernel",
    "analyze.incremental": "core.incremental",
    "incremental.event_loop": "core.incremental",
    "analyze.fixedpoint": "core.fixedpoint",
    "fixedpoint.outer": "core.fixedpoint",
    "analyze.generation": "core.vector",
    "search.generation": "analysis",
}
LAYER_ORDER = (
    "benchmark", "model", "io", "service", "engine",
    "core.kernel", "core.incremental", "core.fixedpoint", "core.vector", "analysis", "other",
)


def _layer_of(span_name: str) -> str:
    if span_name.startswith("bench."):
        return "benchmark"
    return LAYER_OF_SPAN.get(span_name, "other")


# ----------------------------------------------------------------------
# one workload, one run
# ----------------------------------------------------------------------


def _load(name: str) -> Any:
    """The workload's module: ``analyze-paper`` lives in ``analyze_paper.py``."""
    return importlib.import_module(name.replace("-", "_"))


def _mean_time(tables: List[Dict[str, Dict[str, float]]], spans: Tuple[str, ...], field: str) -> Tuple[float, int]:
    """Mean seconds per span, from the first table that saw any of ``spans``."""
    for table in tables:
        count = sum(int(table.get(name, {}).get("count", 0)) for name in spans)
        if count:
            total = sum(table.get(name, {}).get(field, 0.0) for name in spans)
            return total / count, count
    return 0.0, 0


def run_workload(args: argparse.Namespace) -> int:
    import harness
    from repro import obs

    # the benchmark's server runs threads; worker pools must not fork them
    os.environ.setdefault("REPRO_MP_START_METHOD", "spawn")
    # a terminated run still closes its server and worker pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    state_dir = Path(args.state_dir).resolve()
    run_dir = state_dir / "tmp" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    module = _load(args.workload)
    workload = module.Workload(args.seed, args.size, run_dir)
    harness.pin_to_one_core()
    gate = harness.Gate()
    traced = bool(args.trace)
    setup_times: List[float] = []
    setup_wall: List[float] = []
    loops: List[harness.Loop] = []
    tables: List[Dict[str, Dict[str, float]]] = []
    trace_path = None
    # peak memory through set-up and the first cycle: later cycles only add
    # result-cache entries, whose number depends on how fast the machine ran
    first_cycle_rss: List[float] = []

    def on_cycle_end(cycle: int, results: List[Any]) -> None:
        workload.on_cycle_end(cycle, results)
        if not first_cycle_rss:
            first_cycle_rss.append(harness.peak_rss_mb())

    try:
        for _ in range(1 if traced else SETUP_REPS):
            workload.close()
            # the previous set-up's garbage goes before the next one is built,
            # so the peak memory does not depend on when a collection runs
            gc.collect()
            wall, reference = harness.timed_steps(workload.setup())
            setup_wall.append(wall)
            setup_times.append(reference)
        if not traced:
            loops.append(
                harness.closed_loop(
                    workload.make_cycle,
                    seconds=args.seconds,
                    min_cycles=workload.min_cycles,
                    on_cycle_end=on_cycle_end,
                )
            )
            extra = workload.finish(loops, gate)
        else:
            # half the time untraced, half traced: their ratio is the tracing overhead
            half = args.seconds / 2.0
            loops.append(
                harness.closed_loop(
                    workload.make_cycle, seconds=half, min_cycles=1, on_cycle_end=on_cycle_end
                )
            )
            loop_tracer = obs.Tracer(service="bench")
            with loop_tracer.activate():
                loops.append(
                    harness.closed_loop(
                        workload.make_cycle,
                        seconds=half,
                        min_cycles=1,
                        first_cycle=loops[0].cycles,
                        on_cycle_end=on_cycle_end,
                    )
                )
            probe_tracer = obs.Tracer(service="bench-probes")
            with probe_tracer.activate():
                extra = workload.finish(loops, gate)
                harness.probe_layers(extra["probe_inputs"], extra["probe_outputs"])
            tables = [
                harness.aggregate_spans(loop_tracer.spans),
                harness.aggregate_spans(probe_tracer.spans),
            ]
            trace_path = state_dir / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            obs.write_chrome_trace(loop_tracer.spans + probe_tracer.spans, trace_path)
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    results = [result for loop in loops for result in loop.results]
    failed_ops = [result for result in results if not result.ok]
    for result in failed_ops[:5]:
        gate.failures.append(f"{result.kind} failed: {result.error}")

    source = harness.source_digest(ROOT)
    record = {"digest": extra["digest"], **extra["counters"]}
    counter_check = harness.CounterCheck.open(state_dir, args.workload, args.seed, source, args.size)
    for difference in counter_check.compare(record):
        gate.check(f"exact counter differs from an earlier run: {difference}", False)

    attempted = len(results) + gate.checks
    failed = len(failed_ops) + len(gate.failures)
    tail_rung = harness.tail_percentile(workload.min_cycles * workload.ops_per_cycle)
    figures = harness.loop_metrics(loops[0], tail_rung)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": figures["ops_per_s"],
        "tasks_per_s": figures["tasks_per_s"],
        "op_latency_p50_s": figures["op_latency_p50_s"],
        "op_latency_tail_s": figures["op_latency_tail_s"],
        "peak_rss_mb": first_cycle_rss[0],
        "failed_share": failed / attempted,
    }
    wall = {"setup_s": statistics.median(setup_wall), **figures["wall"]}
    for name in ("hit_latency_p50_s", "miss_latency_p50_s"):
        if name in figures:
            end_to_end[name] = figures[name]
    end_to_end.update(extra.get("end_to_end", {}))
    wall.update(extra.get("wall", {}))

    per_layer: Dict[str, float] = {}
    layer_counts: Dict[str, int] = {}
    if traced:
        for name, spans in {**PER_LAYER_TIMES, **WORKLOAD_LAYER_TIMES}.items():
            field = "self_s" if name in SELF_TIME else "total_s"
            per_layer[name], layer_counts[name] = _mean_time(tables, spans, field)
        for name in PER_LAYER_COUNTS:
            per_layer[name] = extra.get("layer", {}).get(name, extra["counters"].get(name, 0))
        traced_figures = harness.loop_metrics(loops[1], tail_rung)
        per_layer["obs.trace_overhead_ratio"] = traced_figures["ops_per_s"] / figures["ops_per_s"]

    correct = failed == 0
    report = {
        "workload": args.workload,
        "why": workload.why,
        "trace": int(traced),
        "size": args.size,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": gate.failures[:20],
        "end_to_end": end_to_end,
        "wall": wall,
        "loop": {
            key: value for key, value in figures.items() if key not in end_to_end and key != "wall"
        },
        "cycle_seconds": [loop.cycle_seconds for loop in loops],
        "cycle_slowdown": [loop.cycle_slowdown for loop in loops],
        "setup_s_all": setup_times,
        "setup_wall_s": setup_wall,
        "peak_rss_mb_at_exit": harness.peak_rss_mb(),
        "per_layer": per_layer,
        "per_layer_span_counts": layer_counts,
        "spans": tables[0] if tables else {},
        "probe_spans": tables[1] if tables else {},
        "exact_counters": record,
        "counter_record": str(counter_check.path),
        "trace_file": None if trace_path is None else str(trace_path),
        "provenance": {
            **harness.provenance(ROOT, args.seed),
            "pinned_to_one_core": True,
            "clock": (
                f"reference seconds: wall seconds over the slowdown of a calibration loop run "
                f"for {harness.CALIBRATION_SHARE:g} of each measured interval, against "
                f"{harness.REFERENCE_UNIT_SECONDS * 1000:g} ms per unit; raw wall clock under 'wall'"
            ),
            **extra.get("provenance", {}),
            "tail_latency": figures["tail"],
            "caller_threads": 1,
            "cycles": [loop.cycles for loop in loops],
        },
    }
    report_dir = state_dir / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str)
    )

    print_report(report)
    if traced:
        metrics = {
            name: {"value": per_layer[name], "unit": _layer_unit(name)}
            for name in list(PER_LAYER_TIMES) + list(PER_LAYER_COUNTS)
        }
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name in PER_LAYER_COUNTS:
        return PER_LAYER_COUNTS[name]
    return "s"


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def print_report(report: Dict[str, Any]) -> None:
    provenance = report["provenance"]
    tail = provenance["tail_latency"]
    print(f"== {report['workload']} (seed {provenance['seed']}, {'traced' if report['trace'] else 'untraced'}, "
          f"size {report['size']})")
    if report["trace"]:
        print("   end-to-end figures below come from the untraced half of this run")
    print(f"   why: {report['why']}")
    print(f"   python {provenance['python']}, numpy {provenance['numpy']}, nproc {provenance['nproc']}, "
          f"commit {provenance['commit'][:12]}, source {provenance['source_digest'][:12]}")
    backends = {key: value for key, value in provenance.items() if key.endswith("_backend")}
    print("   backends: " + ", ".join(f"{key}={value}" for key, value in sorted(backends.items())))
    units = dict(END_TO_END + REPORTED_END_TO_END)
    print(f"   {'':<28} {'reference':>14} {'':<8} {'raw wall':>14}")
    for name, value in report["end_to_end"].items():
        note = ""
        if name == "op_latency_tail_s":
            note = f"  (p{tail['percentile']:g} of {tail['samples']} samples, {tail['beyond']} beyond)"
        if name == "setup_s":
            note = f"  (median of {len(report['setup_s_all'])} set-ups)"
        wall = report["wall"].get(name)
        wall_text = f"{wall:>14.6g}" if wall is not None else f"{'':>14}"
        print(f"   {name:<28} {value:>14.6g} {units.get(name, ''):<8} {wall_text}{note}")
    if "hit_share" in provenance:
        print(f"   measured cache hit share {provenance['hit_share']:.3f}")
    if report["trace"]:
        print_breakdown(report)
    print(f"   correct: {report['correct']} ({report['failed']} failed of {report['attempted']} attempted)")
    for failure in report["failures"]:
        print(f"   FAIL {failure}")


def print_breakdown(report: Dict[str, Any]) -> None:
    """Traced aggregation grouped by layer, then the per-layer metrics."""
    print("   traced spans by layer (timed loop):   count     total_s      self_s")
    for source, table in (("loop", report["spans"]), ("probes", report["probe_spans"])):
        rows = sorted(table.items(), key=lambda item: (LAYER_ORDER.index(_layer_of(item[0])), item[0]))
        if source == "probes" and rows:
            print("   traced spans after the loop (gate, fixed-point pass, layer probes):")
        for name, row in rows:
            print(f"     {_layer_of(name):<16} {name:<22} {int(row['count']):>7} {row['total_s']:>11.4f} {row['self_s']:>11.4f}")
    print("   per-layer metrics:")
    for name, value in report["per_layer"].items():
        unit = _layer_unit(name)
        count = report["per_layer_span_counts"].get(name)
        note = f"  (mean of {count} spans)" if count is not None else ""
        print(f"     {name:<36} {value:>14.6g} {unit:<8}{note}")


# ----------------------------------------------------------------------
# every workload / smoke test
# ----------------------------------------------------------------------


def _child(arguments: List[str], timeout: float) -> Tuple[int, str]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    return completed.returncode, completed.stdout + completed.stderr


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, output = _child(
                ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size, "--state-dir", args.state_dir],
                timeout=900,
            )
            # the result line is for machines; the table above it is for people
            print("\n".join(output.rstrip().splitlines()[:-1]) if code in (0, 1) else output)
            status = status or code
    print(json.dumps({"correct": status == 0}))
    return status


def run_smoke(args: argparse.Namespace) -> int:
    """Every workload at tiny size, twice, through the gate and the counter check."""
    state = Path(args.state_dir) / f"smoke-{os.getpid()}"
    status = 0
    try:
        for workload in WORKLOADS:
            digests = []
            for trace in (0, 0, 1):
                code, output = _child(
                    ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny", "--state-dir", str(state)],
                    timeout=300,
                )
                try:
                    result = json.loads(output.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    result = {}
                ok = code == 0 and result.get("correct") is True
                report = state / "reports" / f"{workload}-tiny-seed7-trace{trace}.json"
                if ok:
                    digests.append(json.loads(report.read_text())["exact_counters"])
                print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}")
                if not ok:
                    print(output)
                    status = 1
            if len(digests) == 3 and not (digests[0] == digests[1] == digests[2]):
                print(f"smoke {workload}: exact counters differ between runs")
                status = 1
    finally:
        shutil.rmtree(state, ignore_errors=True)
    print(json.dumps({"correct": status == 0}))
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--state-dir", default=str(ROOT / ".bench_state"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.smoke:
        return run_smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
