#!/usr/bin/env python3
"""Boot ``repro-rta serve`` on an ephemeral port and smoke-test the JSON API.

Used by CI (and runnable by hand) to prove the service stack end to end
through a *real* subprocess and real HTTP: health check, single analysis,
batch round-trip against the in-process engine, a minimal-horizon search,
the telemetry endpoint, and two bad inputs (a core order contradicting the
dependencies, an overlay on a bank the platform lacks) that must each be a
400 naming the offending field.  Last, the server is stopped with SIGTERM: it
must exit 0 and leave none of its child processes (the ``process`` backend's
pool workers) running; children are read from ``/proc/<pid>/task/*/children``.

Usage::

    python scripts/serve_smoke.py [--backend process|thread|inline] [--workers N]

Exits 0 on success, 1 on any mismatch or timeout.
"""

from __future__ import annotations

import argparse
import glob
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import analyze_many  # noqa: E402
from repro.analysis import minimal_horizon  # noqa: E402
from repro.core import ParamOverlay, compile_problem  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.generators import fixed_ls_workload  # noqa: E402
from repro.io import delta_to_dict, problem_to_dict  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


def expect_400(client: ServiceClient, path: str, document: dict, field: str) -> str:
    """POST ``document``; the server must answer 400 naming ``field``."""
    try:
        client._request("POST", path, document)
    except ServiceError as exc:
        assert exc.status == 400, f"{path}: expected 400, got {exc.status}: {exc}"
        assert field in str(exc), f"{path}: error does not name {field!r}: {exc}"
        return str(exc)
    raise AssertionError(f"{path}: bad input was accepted")


def descendants(pid: int) -> set:
    """Pids of every descendant of ``pid``, read from ``/proc/<pid>/task/*/children``."""
    found: set = set()
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for path in glob.glob(f"/proc/{current}/task/*/children"):
            try:
                children = Path(path).read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                if child not in found:
                    found.add(child)
                    frontier.append(child)
    return found


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="process")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro.cli.main",
        "serve",
        "--port",
        "0",
        "--backend",
        args.backend,
        "--workers",
        str(args.workers),
    ]
    print("+", " ".join(command), flush=True)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        # the first stdout line is machine-readable: "serving on http://host:port".
        # A reader thread feeds a queue so the deadline holds even when the
        # server wedges without printing anything (readline would block forever).
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(raw) for raw in process.stdout], daemon=True
        )
        reader.start()
        deadline = time.monotonic() + args.timeout
        url = None
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=0.2).strip()
            except queue.Empty:
                if process.poll() is not None:
                    print("FAIL: server exited early", flush=True)
                    return 1
                continue
            if line.startswith("serving on "):
                url = line.removeprefix("serving on ")
                break
        if url is None:
            print("FAIL: server never announced its URL within the timeout", flush=True)
            return 1
        print(f"server up at {url}", flush=True)
        client = ServiceClient(url, timeout=args.timeout)

        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz ok", flush=True)

        problems = [
            fixed_ls_workload(24, 4, core_count=4, seed=seed).to_problem()
            for seed in range(3)
        ]
        local = analyze_many(problems, max_workers=1)
        remote_one = client.analyze(problems[0])
        assert remote_one.to_dict()["entries"] == local[0].to_dict()["entries"]
        print(f"analyze ok (makespan {remote_one.makespan})", flush=True)

        remote = client.analyze_many(problems)
        assert [r.to_dict()["entries"] for r in remote] == [
            l.to_dict()["entries"] for l in local
        ], "batch round-trip diverged from the in-process engine"
        print(f"batch ok ({len(remote)} schedules, submission order preserved)", flush=True)

        search = client.search(problems[0], kind="horizon")
        assert search["minimal_horizon"] == minimal_horizon(problems[0]), search
        print(f"search ok (minimal horizon {search['minimal_horizon']})", flush=True)

        reversed_order = problem_to_dict(problems[0])
        reversed_order["mapping"] = {
            core: order[::-1] for core, order in reversed_order["mapping"].items()
        }
        message = expect_400(client, "/analyze", {"problem": reversed_order}, "problem")
        print(f"contradicting core order ok ({message})", flush=True)

        kernel = compile_problem(problems[0])
        record = delta_to_dict(kernel.with_overlay(ParamOverlay()))
        record["accesses"] = [{"999": 1}] * kernel.task_count
        document = {"problem": problem_to_dict(problems[0]), "deltas": [record]}
        message = expect_400(client, "/batch", document, "deltas[0]")
        print(f"overlay on unknown bank ok ({message})", flush=True)

        metrics = client.metrics()
        assert "# TYPE repro_runtime_jobs_completed_total counter" in metrics, metrics
        assert "repro_service_info{" in metrics, metrics
        completed = [
            line
            for line in metrics.splitlines()
            if line.startswith("repro_runtime_jobs_completed_total ")
        ]
        assert completed and int(completed[0].split()[1]) >= 1, metrics
        print(f"metrics ok ({len(metrics.splitlines())} lines, {completed[0]})", flush=True)

        stats = client.stats()
        assert stats["queue"]["submitted"] >= 4, stats
        assert stats["runtime"]["backend"] == args.backend, stats
        print(
            "stats ok "
            f"(jobs_run={stats['runtime']['jobs_run']}, "
            f"pools_created={stats['runtime']['pools_created']}, "
            f"cache={stats['runtime']['cache']})",
            flush=True,
        )
        children = descendants(process.pid)
        process.terminate()
        code = process.wait(timeout=args.timeout)
        assert code == 0, f"server exited with {code} on SIGTERM"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(running, children)):
            time.sleep(0.1)
        survivors = sorted(pid for pid in children if running(pid))
        assert not survivors, f"child processes survived SIGTERM: {survivors}"
        print(f"sigterm ok (exit 0, {len(children)} child process(es) stopped)", flush=True)
        print("SMOKE PASSED", flush=True)
        return 0
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
