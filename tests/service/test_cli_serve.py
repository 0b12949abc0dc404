"""Tests for the ``repro serve`` CLI subcommand.

The full-stack path — a real subprocess bound to an ephemeral port, driven
over real HTTP by the :class:`ServiceClient` — runs through
``scripts/serve_smoke.py``, the same entry point the CI smoke job uses.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import _parse_endpoints, build_parser, main
from repro.generators import fixed_ls_workload
from repro.io import save_problem
from repro.service import AnalysisServer, EngineRuntime

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SMOKE = REPO_ROOT / "scripts" / "serve_smoke.py"


class TestArguments:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8517
        assert args.backend == "process"
        assert args.workers is None
        assert args.recycle_after is None
        assert args.max_pending == 1024

    def test_serve_custom_arguments(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--backend", "thread",
                "--workers", "4",
                "--cache-dir", "/tmp/cache",
                "--recycle-after", "100",
                "--algorithm", "fixedpoint",
                "--verbose",
            ]
        )
        assert args.port == 0
        assert args.backend == "thread"
        assert args.workers == 4
        assert args.recycle_after == 100
        assert args.algorithm == "fixedpoint"
        assert args.verbose

    def test_serve_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "quantum"])


class TestClusterArguments:
    def test_parse_endpoints_flattens_and_normalizes(self):
        assert _parse_endpoints(["hostA:1,hostB:2", "http://hostC:3/"]) == [
            "http://hostA:1",
            "http://hostB:2",
            "http://hostC:3",
        ]
        assert _parse_endpoints(None) == []

    def test_cluster_requires_endpoints(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_batch_and_search_accept_endpoints(self):
        args = build_parser().parse_args(
            ["batch", "p.json", "--endpoints", "a:1,b:2", "--endpoints", "c:3"]
        )
        assert args.endpoints == ["a:1,b:2", "c:3"]
        assert args.max_in_flight is None  # defaulted to 4 only on the remote path
        args = build_parser().parse_args(["search", "p.json", "--endpoints", "a:1"])
        assert args.endpoints == ["a:1"]

    def test_batch_endpoints_conflict_with_workers(self, tmp_path, capsys):
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        path = save_problem(problem, tmp_path / "p.json")
        rc = main(["batch", str(path), "--endpoints", "a:1", "--workers", "2"])
        assert rc == 1
        assert "--endpoints and --workers conflict" in capsys.readouterr().err

    def test_batch_remote_only_flags_need_endpoints(self, tmp_path, capsys):
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        path = save_problem(problem, tmp_path / "p.json")
        rc = main(["batch", str(path), "--max-in-flight", "8"])
        assert rc == 1
        assert "--max-in-flight" in capsys.readouterr().err
        rc = main(["batch", str(path), "--endpoints", "a:1", "--chunksize", "2"])
        assert rc == 1
        assert "--chunksize" in capsys.readouterr().err

    def test_search_endpoints_conflict_with_serial(self, tmp_path, capsys):
        problem = fixed_ls_workload(16, 4, core_count=4, seed=1).to_problem()
        path = save_problem(problem, tmp_path / "p.json")
        rc = main(["search", str(path), "--kind", "horizon", "--endpoints", "a:1", "--serial"])
        assert rc == 1
        assert "--endpoints conflicts" in capsys.readouterr().err


class TestClusterCommand:
    def test_probe_healthy_fleet_and_down_fleet(self, capsys):
        servers = [
            AnalysisServer(EngineRuntime(backend="inline"), port=0).start() for _ in range(2)
        ]
        endpoints = ",".join(f"127.0.0.1:{server.port}" for server in servers)
        try:
            assert main(["cluster", "--endpoints", endpoints]) == 0
            out = capsys.readouterr().out
            assert "all 2 endpoint(s) healthy" in out
            assert "inline" in out
        finally:
            for server in servers:
                server.close()
        assert main(["cluster", "--endpoints", endpoints, "--timeout", "2"]) == 1
        assert "DOWN" in capsys.readouterr().out

    def test_distributed_batch_cli_round_trip(self, tmp_path, capsys):
        problems = [
            fixed_ls_workload(16, 4, core_count=4, seed=seed).to_problem() for seed in range(3)
        ]
        paths = [
            str(save_problem(problem, tmp_path / f"p{index}.json"))
            for index, problem in enumerate(problems)
        ]
        servers = [
            AnalysisServer(EngineRuntime(backend="inline"), port=0).start() for _ in range(2)
        ]
        endpoints = ",".join(server.url for server in servers)
        try:
            rc = main(
                ["batch", *paths, "--endpoints", endpoints, "--quiet",
                 "--output", str(tmp_path / "batch.json")]
            )
        finally:
            for server in servers:
                server.close()
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 problem(s)" in out
        assert (tmp_path / "batch.json").exists()


class TestSmoke:
    def test_serve_smoke_script_passes(self):
        """Boot the real CLI in a subprocess and exercise the whole API."""
        result = subprocess.run(
            [sys.executable, str(SMOKE), "--backend", "inline"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "SMOKE PASSED" in result.stdout


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
class TestSigterm:
    def test_sigterm_stops_the_pool_workers_and_exits_zero(self):
        """``serve --backend process`` stopped with SIGTERM exits 0 and orphans no worker."""
        result = subprocess.run(
            [sys.executable, str(SMOKE), "--backend", "process", "--workers", "2"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        match = re.search(r"sigterm ok \(exit 0, (\d+) child", result.stdout)
        assert match and int(match.group(1)) >= 1, result.stdout
