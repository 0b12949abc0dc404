"""Smoke self-test of the benchmark.

Runs every workload at tiny size through the correctness gate, twice
untraced and once traced, and requires identical exact counters::

    python3 -m pytest e2ebench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_every_workload_passes_the_gate_with_identical_counters() -> None:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == '{"correct": true}'
