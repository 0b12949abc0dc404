#!/usr/bin/env python3
"""Same-run A/B of the incremental event loop between two source trees.

Times ``analyze_incremental`` on a warm kernel (compiled once, analysed
through an identity overlay, so no compile is timed) for one Fixed-LS DAG,
alternating child processes of the base tree and of this tree.  The schedules
of both sides must be bit-identical (entries, verdict, cursor steps and IBUS
calls) before any ratio is printed.

Usage::

    python scripts/ab_event_loop.py --base /path/to/other/checkout \\
        [--tasks 8192] [--layer 64] [--rounds 5] [--repeats 3]

``--base`` is a checkout (or ``git archive`` export) of the revision to
compare against.  Prints one line per side and the ratio of the medians
(base / this tree); exits 1 when the schedules differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def child(tasks: int, layer: int, seed: int, repeats: int) -> None:
    """Build, compile once, time ``repeats`` warm runs; print one JSON line."""
    from repro.core import ParamOverlay, analyze_incremental, compile_problem
    from repro.generators import fixed_ls_workload

    kernel = compile_problem(fixed_ls_workload(tasks, layer, seed=seed).to_problem())
    times = []
    for _ in range(repeats):
        probe = kernel.with_overlay(ParamOverlay())
        started = time.perf_counter()
        schedule = analyze_incremental(probe)
        times.append(time.perf_counter() - started)
    record = {
        "entries": schedule.to_dict()["entries"],
        "schedulable": schedule.schedulable,
        "cursor_steps": schedule.stats.cursor_steps,
        "ibus_calls": schedule.stats.ibus_calls,
    }
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"seconds": min(times), "digest": digest,
                      "ibus_calls": schedule.stats.ibus_calls}))


def run_side(root: Path, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(root / "src"),
        "--tasks", str(args.tasks), "--layer", str(args.layer),
        "--seed", str(args.seed), "--repeats", str(args.repeats),
    ]
    output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--tasks", type=int, default=8192)
    parser.add_argument("--layer", type=int, default=64)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        sys.path.insert(0, args.child)
        child(args.tasks, args.layer, args.seed, args.repeats)
        return 0
    if args.base is None:
        parser.error("--base is required")

    sides = {"base": args.base.resolve(), "this": REPO_ROOT}
    samples = {name: [] for name in sides}
    digests = {}
    for _ in range(args.rounds):
        for name, root in sides.items():
            result = run_side(root, args)
            samples[name].append(result["seconds"])
            digests.setdefault(name, set()).add((result["digest"], result["ibus_calls"]))
    if len(digests["base"] | digests["this"]) != 1:
        print(f"FAIL: schedules differ between the two trees: {digests}")
        return 1
    medians = {name: statistics.median(values) for name, values in samples.items()}
    for name, values in samples.items():
        print(f"{name}: {sides[name]}  median {medians[name]:.4f} s  "
              f"(runs {', '.join(f'{v:.4f}' for v in values)})")
    print(f"bit-identical schedules ({args.tasks} tasks, LS{args.layer}, seed {args.seed}); "
          f"speedup base/this = {medians['base'] / medians['this']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
