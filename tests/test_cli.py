"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestDecompose:
    def test_human_output(self, capsys):
        code = main(
            [
                "decompose",
                "--graph",
                "grid:10x10",
                "--beta",
                "0.3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cut_fraction" in out and "num_pieces" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "decompose",
                "--graph",
                "path:50",
                "--beta",
                "0.2",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 50 and doc["m"] == 49
        assert doc["method"] == "bfs-fractional"

    def test_validate_flag(self, capsys):
        code = main(
            [
                "decompose",
                "--graph",
                "cycle:20",
                "--beta",
                "0.4",
                "--validate",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["invariants_ok"] is True

    def test_alternative_method(self, capsys):
        code = main(
            [
                "decompose",
                "--graph",
                "grid:8x8",
                "--beta",
                "0.3",
                "--method",
                "sequential",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "sequential-ball-growing"

    REPS = ["decompose", "--graph", "grid:12x12", "--beta", "0.2",
            "--reps", "3", "--json"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reps_on_the_pool_match_in_process(self, capsys):
        def runs(workers):
            assert main(self.REPS + ["--workers", workers]) == 0
            doc = json.loads(capsys.readouterr().out)
            for run in doc["runs"]:
                del run["wall_time_s"]
            return doc["runs"]

        assert runs("2") == runs("1")

    def test_bad_worker_count_is_cli_error(self, capsys):
        assert main(self.REPS + ["--workers", "0"]) == 2
        assert "max_workers must be >= 1" in capsys.readouterr().err

    def test_bad_worker_count_rejected_without_reps(self, capsys):
        argv = ["decompose", "--graph", "grid:5x5", "--beta", "0.3",
                "--workers", "0", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_workers must be >= 1, got 0" in captured.err

    def test_executor_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.REPS + ["--executor", "shared"])
        assert exc.value.code == 2


class TestRender:
    def test_writes_ppm(self, tmp_path, capsys):
        out_file = tmp_path / "fig.ppm"
        code = main(
            [
                "render",
                "--rows",
                "20",
                "--cols",
                "20",
                "--beta",
                "0.2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        assert out_file.read_bytes().startswith(b"P6")
        assert "pieces" in capsys.readouterr().out

    def test_ascii_flag(self, tmp_path, capsys):
        code = main(
            [
                "render",
                "--rows",
                "12",
                "--cols",
                "12",
                "--beta",
                "0.3",
                "--out",
                str(tmp_path / "a.ppm"),
                "--ascii",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 5


class TestSweep:
    def test_table_output(self, capsys):
        code = main(
            [
                "sweep",
                "--graph",
                "grid:15x15",
                "--betas",
                "0.1,0.3",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cut_frac" in out
        assert len(out.strip().splitlines()) == 4  # header x2 + two rows

    def test_bad_worker_count_rejected_before_output(self, capsys):
        argv = ["sweep", "--graph", "grid:5x5", "--betas", "0.1,0.3",
                "--workers", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_workers must be >= 1, got -1" in captured.err


class TestMethods:
    def test_lists_everything(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "blelloch" in out and "grid" in out

    def test_json_registry_dump(self, capsys):
        assert main(["methods", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in doc["methods"]}
        assert {"bfs", "dijkstra", "sequential"} <= names
        bfs = next(m for m in doc["methods"] if m["name"] == "bfs")
        option_names = {o["name"] for o in bfs["options"]}
        assert "tie_break" in option_names
        assert "grid" in doc["generators"]
        assert "uniform" in doc["weight_schemes"]

    def test_json_dump_matches_registry(self, capsys):
        from repro.core.registry import describe_methods

        assert main(["methods", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"] == describe_methods()


class TestServeAndRequest:
    """Drive the serve/request subcommands against an in-process server."""

    @pytest.fixture()
    def server(self):
        from repro.serve import serve_background

        with serve_background(max_workers=1) as server:
            yield server

    def _connect(self, server) -> str:
        host, port = server.address
        return f"{host}:{port}"

    def test_request_upload_and_decompose(self, server, capsys):
        connect = self._connect(server)
        argv = [
            "request", "--connect", connect, "--graph", "grid:10x10",
            "--beta", "0.3", "--seed", "2", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cached"] is False
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["result_digest"] == first["result_digest"]
        assert second["digest"] == first["digest"]

    def test_request_with_digest_and_options(self, server, capsys):
        connect = self._connect(server)
        assert main([
            "request", "--connect", connect, "--graph", "grid:8x8",
            "--beta", "0.3", "--json",
        ]) == 0
        digest = json.loads(capsys.readouterr().out)["digest"]
        assert main([
            "request", "--connect", connect, "--digest", digest,
            "--beta", "0.3", "--method", "bfs",
            "--option", "tie_break=permutation", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "bfs-permutation"

    def test_request_option_with_auto_digest_needs_method(
        self, server, capsys
    ):
        connect = self._connect(server)
        assert main([
            "request", "--connect", connect, "--graph", "grid:8x8",
            "--beta", "0.3", "--json",
        ]) == 0
        digest = json.loads(capsys.readouterr().out)["digest"]
        code = main([
            "request", "--connect", connect, "--digest", digest,
            "--beta", "0.3", "--option", "tie_break=quantile",
        ])
        assert code == 2
        assert "explicit --method" in capsys.readouterr().err

    def test_request_seed_sweep_reuses_one_graph(self, server, capsys):
        """--seed is the decomposition seed only: sweeping it over a
        random generator spec must hit one resident graph, not re-upload
        a differently-generated graph per seed."""
        connect = self._connect(server)
        digests = []
        for seed in (1, 2):
            assert main([
                "request", "--connect", connect, "--graph", "er:40,0.2",
                "--beta", "0.3", "--seed", str(seed), "--json",
            ]) == 0
            digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert digests[0] == digests[1]

    def test_request_graph_file(self, server, tmp_path, capsys):
        from repro.graphs.generators import erdos_renyi
        from repro.graphs.io import write_edge_list

        graph_path = tmp_path / "g.edges"
        write_edge_list(erdos_renyi(30, 0.2, seed=1), graph_path)
        assert main([
            "request", "--connect", self._connect(server),
            "--graph-file", str(graph_path), "--beta", "0.3", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "unweighted"

    def test_request_stats_and_hello(self, server, capsys):
        connect = self._connect(server)
        assert main(["request", "--connect", connect, "--stats",
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "cache" in stats and "pool" in stats
        assert main(["request", "--connect", connect, "--hello",
                     "--json"]) == 0
        hello = json.loads(capsys.readouterr().out)
        assert any(m["name"] == "bfs" for m in hello["methods"])
        assert "spanner" in hello["ops"]

    def test_request_stats_table_by_default(self, server, capsys):
        """Without --json, --stats renders the formatted counter table."""
        connect = self._connect(server)
        # Generate some traffic so the counters are non-trivial.
        assert main([
            "request", "--connect", connect, "--graph", "grid:6x6",
            "--beta", "0.3", "--json",
        ]) == 0
        capsys.readouterr()
        assert main(["request", "--connect", connect, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "server:" in out and "cache:" in out and "pool:" in out
        assert "hit_rate" in out
        assert "completion_rate" in out
        # It is a table, not a JSON dump.
        assert not out.lstrip().startswith("{")

    def test_spanner_subcommand_round_trip(self, server, capsys):
        connect = self._connect(server)
        argv = [
            "spanner", "--connect", connect, "--graph", "grid:10x10",
            "--beta", "0.3", "--seed", "2", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cached"] is False
        assert first["num_edges"] == (
            first["num_tree_edges"] + first["num_bridge_edges"]
        )
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["result_digest"] == first["result_digest"]

    def test_spanner_matches_local_pipeline(self, server, capsys):
        from repro.graphs.generators import grid_2d
        from repro.pipeline import EngineProvider
        from repro.spanners import ldd_spanner

        local = ldd_spanner(
            grid_2d(10, 10), 0.3, seed=2, provider=EngineProvider()
        )
        assert main([
            "spanner", "--connect", self._connect(server),
            "--graph", "grid:10x10", "--beta", "0.3", "--seed", "2",
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_edges"] == local.num_edges
        assert doc["stretch_bound"] == local.stretch_bound

    def test_tree_subcommand_round_trip(self, server, capsys):
        connect = self._connect(server)
        argv = [
            "tree", "--connect", connect, "--graph", "grid:10x10",
            "--beta", "0.4", "--seed", "3", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["num_levels"] >= 1
        assert len(first["level_betas"]) == first["num_levels"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True

    def test_hst_subcommand_round_trip(self, server, capsys):
        connect = self._connect(server)
        argv = [
            "hst", "--connect", connect, "--graph", "grid:10x10",
            "--seed", "4", "--json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_levels"] >= 2
        # Level 0 is singletons; the top level is one piece per component.
        assert doc["pieces_per_level"][0] == 100
        assert doc["pieces_per_level"][-1] == 1
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True

    def test_app_subcommand_with_method_and_options(self, server, capsys):
        assert main([
            "spanner", "--connect", self._connect(server),
            "--graph", "grid:8x8", "--beta", "0.3", "--method", "bfs",
            "--option", "tie_break=permutation", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "bfs"

    def test_app_subcommand_needs_target(self, server, capsys):
        code = main([
            "spanner", "--connect", self._connect(server), "--beta", "0.3",
        ])
        assert code == 2
        assert "--digest" in capsys.readouterr().err

    def test_request_without_beta_is_cli_error(self, server, capsys):
        code = main([
            "request", "--connect", self._connect(server),
            "--graph", "grid:5x5",
        ])
        assert code == 2
        assert "--beta" in capsys.readouterr().err

    def test_request_bad_connect_spec(self, capsys):
        assert main(["request", "--connect", "nohost", "--stats"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_request_connection_refused_is_cli_error(self, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        code = main([
            "request", "--connect", f"127.0.0.1:{port}", "--stats",
            "--timeout", "2",
        ])
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_serve_subcommand_end_to_end(self, tmp_path, capsys):
        """`repro serve` in a thread, driven by `repro request`, stopped
        by --shutdown — the CI smoke path, in-process."""
        import threading
        import time

        port_file = tmp_path / "port"
        exit_codes: list[int] = []

        def run_server() -> None:
            exit_codes.append(main([
                "serve", "--port", "0", "--port-file", str(port_file),
                "--graph", "grid:12x12", "--workers", "1", "--ttl", "60",
            ]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not port_file.exists():
            time.sleep(0.05)
        assert port_file.exists(), "server never wrote its port file"
        port = int(port_file.read_text().strip())
        connect = f"127.0.0.1:{port}"
        try:
            assert main([
                "request", "--connect", connect, "--graph", "grid:12x12",
                "--beta", "0.25", "--json",
            ]) == 0
        finally:
            assert main(["request", "--connect", connect,
                         "--shutdown"]) == 0
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "listening" in out
        assert '"cached": false' in out


class TestBenchThroughput:
    ARGS = [
        "bench-throughput", "--graph", "grid:8x8", "--beta", "0.3",
        "--requests", "2", "--executors", "serial,shared", "--workers", "1",
    ]

    def test_table_reports_identical_assignments(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "assignments identical across executors: yes" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical_assignments"] is True
        assert set(doc["executors"]) == {"serial", "shared"}
        assert doc["executors"]["serial"]["requests_per_sec"] > 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_divergent_digests_exit_nonzero(
        self, monkeypatch, capsys, json_flag
    ):
        """A determinism regression must fail the command in BOTH output
        modes — CI's conformance smoke uses --json."""
        import repro.runtime.throughput as throughput_mod
        from repro.runtime.throughput import ThroughputRecord

        def fake_measure(*args, **kwargs):
            return {
                name: ThroughputRecord(
                    executor=name, num_requests=2, seconds=1.0,
                    requests_per_sec=2.0, assignments_digest=digest,
                )
                for name, digest in (("serial", "aaa"), ("shared", "bbb"))
            }

        monkeypatch.setattr(
            throughput_mod, "measure_throughput", fake_measure
        )
        assert main(self.ARGS + json_flag) == 1

    def test_unknown_executor_is_cli_error(self, capsys):
        code = main(
            ["bench-throughput", "--graph", "grid:5x5", "--beta", "0.3",
             "--executors", "warp"]
        )
        assert code == 2
        assert "unknown throughput executor" in capsys.readouterr().err
