"""Command-line interface: ``repro <subcommand>`` (or ``python -m repro``).

Subcommands
-----------
``decompose``
    Decompose a generated graph (optionally lifted to weighted edges via
    ``--weights``) through the unified engine and print the summary.
    ``--option key=value`` forwards validated per-method options;
    ``--reps N`` fans N seeds out through ``decompose_many`` (on the worker
    pool when ``--workers`` allows more than one) and prints the per-run
    table plus the aggregate.
``render``
    Reproduce a Figure 1 panel: decompose a grid and write a PPM image.
``sweep``
    Run a β-sweep on one graph and print the cut-fraction/diameter table —
    the quantitative content of Figure 1.  ``--reps`` averages each row
    over several seeds.
``bench-throughput``
    Serve the same multi-seed request stream through the shared-memory
    batch runtime, a per-task pickling pool and the in-process loop,
    printing requests/sec, the speedup over the baseline, and whether
    every strategy produced bit-identical assignments.
``serve``
    Run the decomposition service (:mod:`repro.serve`): an asyncio
    JSON-over-TCP server with a content-addressed graph store, memoizing
    result cache, and request coalescing.  ``--port 0`` picks a free port
    (written to ``--port-file`` for scripts); ``--ttl`` arms the idle
    shutdown watchdog.
``cluster``
    Run a sharded cluster (:mod:`repro.cluster`): ``--shards N`` spawns N
    decomposition servers on ephemeral ports plus a consistent-hash
    router in front; clients connect to the router's address and every
    serve-protocol op — including ``request`` and the application
    subcommands below — works unchanged, routed to the shard owning each
    graph digest.
``request``
    Drive a running server: upload a generated graph or graph file (or
    reference an earlier upload by ``--digest``), request a decomposition,
    or hit the ``--stats`` / ``--hello`` / ``--shutdown`` operations
    (``--stats`` prints a formatted counter table; ``--json`` gives the
    raw document).
``spanner`` / ``tree`` / ``hst``
    Application ops served end-to-end: build a cluster spanner, an AKPW
    low-stretch spanning forest, or a laminar hierarchy *on the server*
    (op ``spanner`` / ``lowstretch_tree`` / ``hierarchy``), against an
    uploaded graph, through the server's result cache — warm repeats cost
    a frame round trip.
``methods``
    List registered decomposition methods (with their options), graph
    generators and weight schemes; ``--json`` emits the machine-readable
    registry dump the service's handshake advertises.
``trace``
    Pretty-print a JSON-lines trace file (written via ``repro request
    --trace FILE`` or :func:`repro.telemetry.enable_tracing`) as per-trace
    span trees — one line per span, children indented under parents.

Observability flags: ``repro request --metrics`` scrapes a server's (or
cluster's merged) metric registry as Prometheus text; ``--trace FILE``
on ``request`` records the request's distributed span tree; ``--verbose``
(repeatable) attaches a stderr log handler to the ``repro`` logger, which
otherwise stays silent (``NullHandler``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """Run-configuration arguments shared by every engine subcommand."""
    parser.add_argument(
        "--method",
        default="auto",
        help="registered method name ('auto' picks bfs / dijkstra by graph kind)",
    )
    parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="per-method option, validated against the method spec "
        "(repeatable), e.g. --option tie_break=permutation",
    )
    parser.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="lift the graph to weighted edges: unit[:w], uniform:lo,hi, "
        "exp:mean",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool width (default: CPU count; sweep runs in "
        "process unless given)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Config arguments plus the batch-engine repetition controls."""
    _add_config_args(parser)
    parser.add_argument(
        "--reps",
        type=int,
        default=1,
        help="repetitions over consecutive seeds via the batch engine",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel graph decompositions using random shifts "
            "(Miller-Peng-Xu, SPAA 2013) - reproduction CLI"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr (INFO; repeat for DEBUG) — the 'repro' logger "
        "is otherwise silent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="partition a graph")
    p_dec.add_argument(
        "--graph",
        required=True,
        help="generator spec, e.g. grid:100x100, er:500,0.02, path:1000",
    )
    p_dec.add_argument("--beta", type=float, required=True)
    p_dec.add_argument("--seed", type=int, default=0)
    _add_engine_args(p_dec)
    p_dec.add_argument(
        "--validate", action="store_true", help="run invariant checks"
    )
    p_dec.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    p_ren = sub.add_parser("render", help="render a grid decomposition (PPM)")
    p_ren.add_argument("--rows", type=int, default=250)
    p_ren.add_argument("--cols", type=int, default=250)
    p_ren.add_argument("--beta", type=float, required=True)
    p_ren.add_argument("--seed", type=int, default=0)
    p_ren.add_argument("--out", required=True, help="output .ppm path")
    p_ren.add_argument("--scale", type=int, default=1)
    p_ren.add_argument(
        "--ascii", action="store_true", help="also print an ASCII thumbnail"
    )

    p_swp = sub.add_parser("sweep", help="β sweep table on one graph")
    p_swp.add_argument("--graph", required=True)
    p_swp.add_argument(
        "--betas",
        default="0.002,0.005,0.01,0.02,0.05,0.1",
        help="comma-separated β values (default: the Figure 1 set)",
    )
    p_swp.add_argument("--seed", type=int, default=0)
    _add_engine_args(p_swp)

    p_bt = sub.add_parser(
        "bench-throughput",
        help="requests/sec of the shared-memory runtime vs pickling "
        "executors on one graph",
    )
    p_bt.add_argument("--graph", required=True)
    p_bt.add_argument("--beta", type=float, required=True)
    p_bt.add_argument("--seed", type=int, default=0)
    p_bt.add_argument(
        "--requests",
        type=int,
        default=32,
        help="requests per executor (consecutive seeds from --seed)",
    )
    p_bt.add_argument(
        "--executors",
        default="pickle,shared",
        help="comma-separated strategies: serial, pickle, shared "
        "(the first is the speedup baseline)",
    )
    p_bt.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="passes per executor; the fastest is reported",
    )
    _add_config_args(p_bt)
    p_bt.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the decomposition service (graph store + result cache)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    p_srv.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for scripts)",
    )
    p_srv.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="SPEC",
        help="generator spec to preload (repeatable), e.g. grid:100x100",
    )
    p_srv.add_argument(
        "--graph-file",
        action="append",
        default=[],
        metavar="PATH",
        help="graph file to preload (repeatable; format by extension)",
    )
    p_srv.add_argument("--seed", type=int, default=0,
                       help="seed for --graph generation")
    p_srv.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="lift preloaded --graph specs to weighted edges",
    )
    p_srv.add_argument("--workers", type=int, default=None,
                       help="decomposition pool width (default: CPU count)")
    p_srv.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="result-cache byte budget (default: 256 MiB)",
    )
    p_srv.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="shut down after this many idle seconds (CI guard rail)",
    )
    p_srv.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        help="WARNING-log requests slower than this (default 1000; "
        "0 logs everything; 'off' via --slow-request-ms=-1 disables)",
    )

    p_cl = sub.add_parser(
        "cluster",
        help="run a sharded cluster: N decomposition servers behind a "
        "consistent-hash router",
    )
    p_cl.add_argument(
        "--shards",
        type=int,
        default=2,
        help="number of shard servers to spawn (ephemeral ports)",
    )
    p_cl.add_argument("--host", default="127.0.0.1",
                      help="router bind address")
    p_cl.add_argument(
        "--port", type=int, default=0,
        help="router port; 0 picks a free port"
    )
    p_cl.add_argument(
        "--port-file",
        default=None,
        help="write the router's bound port here once listening",
    )
    p_cl.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="SPEC",
        help="generator spec to preload through the router (repeatable)",
    )
    p_cl.add_argument(
        "--graph-file",
        action="append",
        default=[],
        metavar="PATH",
        help="graph file to preload (repeatable; format by extension)",
    )
    p_cl.add_argument("--seed", type=int, default=0,
                      help="seed for --graph generation")
    p_cl.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="lift preloaded --graph specs to weighted edges",
    )
    p_cl.add_argument("--workers", type=int, default=None,
                      help="pool width per shard (default: CPU count)")
    p_cl.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="result-cache byte budget per shard (default: 256 MiB)",
    )
    p_cl.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="virtual nodes per shard on the hash ring (default: 64)",
    )
    p_cl.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="shut the cluster down after this many idle seconds",
    )
    p_cl.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        help="per-shard slow-request log threshold (default 1000; "
        "--slow-request-ms=-1 disables)",
    )

    p_req = sub.add_parser(
        "request", help="send one request to a running decomposition server"
    )
    p_req.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="server address, e.g. 127.0.0.1:7077",
    )
    p_req.add_argument("--timeout", type=float, default=60.0)
    action = p_req.add_mutually_exclusive_group()
    action.add_argument(
        "--stats", action="store_true", help="print server counters"
    )
    action.add_argument(
        "--hello", action="store_true", help="print the handshake"
    )
    action.add_argument(
        "--shutdown", action="store_true", help="stop the server"
    )
    action.add_argument(
        "--metrics",
        action="store_true",
        help="scrape the telemetry registry (Prometheus text; --json for "
        "the mergeable snapshot) — against a cluster router this is the "
        "merged union of every shard",
    )
    p_req.add_argument(
        "--digest", default=None, help="digest of an already-uploaded graph"
    )
    p_req.add_argument(
        "--graph", default=None, help="generator spec to upload and use"
    )
    p_req.add_argument(
        "--graph-file", default=None, help="graph file to upload and use"
    )
    p_req.add_argument("--beta", type=float, default=None)
    p_req.add_argument(
        "--seed", type=int, default=0, help="decomposition seed"
    )
    p_req.add_argument(
        "--graph-seed",
        type=int,
        default=0,
        help="seed for --graph generation (kept separate from --seed so "
        "a decomposition-seed sweep reuses one uploaded graph)",
    )
    p_req.add_argument("--method", default="auto")
    p_req.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="per-method option, validated against the server's registry "
        "dump (repeatable)",
    )
    p_req.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="lift the generated --graph to weighted edges before upload",
    )
    p_req.add_argument("--validate", action="store_true")
    p_req.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record this request's distributed span tree as JSON lines "
        "(pretty-print later with 'repro trace FILE')",
    )
    p_req.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    for name, help_text in (
        ("spanner", "build a cluster spanner on a running server"),
        ("tree", "build an AKPW low-stretch forest on a running server"),
        ("hst", "build a laminar hierarchy on a running server"),
    ):
        p_app = sub.add_parser(name, help=help_text)
        p_app.add_argument(
            "--connect",
            required=True,
            metavar="HOST:PORT",
            help="server address, e.g. 127.0.0.1:7077",
        )
        p_app.add_argument("--timeout", type=float, default=60.0)
        p_app.add_argument(
            "--digest",
            default=None,
            help="digest of an already-uploaded graph",
        )
        p_app.add_argument(
            "--graph", default=None, help="generator spec to upload and use"
        )
        p_app.add_argument(
            "--graph-file", default=None, help="graph file to upload and use"
        )
        p_app.add_argument(
            "--graph-seed",
            type=int,
            default=0,
            help="seed for --graph generation",
        )
        p_app.add_argument(
            "--seed", type=int, default=0, help="decomposition seed"
        )
        p_app.add_argument("--method", default="auto")
        p_app.add_argument(
            "--option",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="per-method option, validated against the server's "
            "registry dump (repeatable)",
        )
        p_app.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        if name == "spanner":
            p_app.add_argument("--beta", type=float, required=True)
        elif name == "tree":
            p_app.add_argument("--beta", type=float, default=0.5)
            p_app.add_argument("--max-levels", type=int, default=64)
        else:
            p_app.add_argument("--beta-max", type=float, default=0.9)
            p_app.add_argument(
                "--radius-constant", type=float, default=1.0
            )

    p_tr = sub.add_parser(
        "trace",
        help="pretty-print a JSON-lines trace file as span trees",
    )
    p_tr.add_argument(
        "file", help="trace file (from 'repro request --trace FILE')"
    )
    p_tr.add_argument(
        "--trace-id", default=None, help="print only this trace id"
    )
    p_tr.add_argument(
        "--json",
        action="store_true",
        help="emit the parsed span records as a JSON array",
    )

    p_met = sub.add_parser(
        "methods", help="list methods, generators, weight schemes"
    )
    p_met.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump (what the serve handshake "
        "advertises)",
    )
    return parser


def _setup_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger for ``--verbose``.

    Library code logs through module loggers under ``repro`` with a
    ``NullHandler`` on the root (see :mod:`repro`), so without this the
    CLI is silent — the slow-request WARNINGs included.
    """
    if verbosity <= 0:
        return
    import logging

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
    )
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bench-throughput":
            return _cmd_bench_throughput(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "request":
            return _cmd_request(args)
        if args.command in ("spanner", "tree", "hst"):
            return _cmd_application(args)
        if args.command == "methods":
            return _cmd_methods(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _build_graph(args: argparse.Namespace):
    """Generate the graph spec and optionally lift it to weighted edges."""
    from repro.graphs.generators import by_name
    from repro.graphs.weighted import weights_by_name

    graph = by_name(args.graph, seed=args.seed)
    if args.weights:
        graph = weights_by_name(graph, args.weights, seed=args.seed)
    return graph


def _parse_options(graph, method: str, pairs: list[str]) -> dict[str, object]:
    """Parse repeated ``--option key=value`` against the method's spec."""
    from repro.core.engine import DEFAULT_METHODS, graph_kind
    from repro.core.registry import get_method
    from repro.errors import ParameterError

    name = DEFAULT_METHODS[graph_kind(graph)] if method == "auto" else method
    spec = get_method(name)
    options: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ParameterError(
                f"--option expects KEY=VALUE, got {pair!r}"
            )
        options[key.strip()] = spec.option(key.strip()).parse(value)
    return options


def _check_workers(args: argparse.Namespace) -> None:
    """Reject ``--workers < 1`` before any work or output."""
    from repro.errors import ParameterError

    if args.workers is not None and args.workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {args.workers}")


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.core.engine import decompose, decompose_many

    from repro.errors import ParameterError

    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")
    _check_workers(args)
    graph = _build_graph(args)
    options = _parse_options(graph, args.method, args.option)
    if args.reps > 1:
        batch = decompose_many(
            graph,
            args.beta,
            method=args.method,
            seeds=range(args.seed, args.seed + args.reps),
            validate=args.validate,
            max_workers=args.workers,
            **options,
        )
        aggregate = batch.aggregate()
        aggregate["n"] = graph.num_vertices
        aggregate["m"] = graph.num_edges
        if args.validate:
            aggregate["invariants_ok"] = all(
                run.result.report.all_invariants_hold() for run in batch.runs
            )
        if args.json:
            print(
                json.dumps(
                    {"runs": batch.summaries(), "aggregate": aggregate}
                )
            )
        else:
            for key, value in aggregate.items():
                print(f"{key:>22}: {value}")
        return 0

    result = decompose(
        graph,
        args.beta,
        method=args.method,
        seed=args.seed,
        validate=args.validate,
        **options,
    )
    summary = result.summary()
    summary["n"] = graph.num_vertices
    summary["m"] = graph.num_edges
    if args.validate and result.report is not None:
        summary["invariants_ok"] = result.report.all_invariants_hold()
    if args.json:
        print(json.dumps(summary))
    else:
        for key, value in summary.items():
            print(f"{key:>18}: {value}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.core.engine import decompose
    from repro.graphs.generators import grid_2d
    from repro.viz.grid_render import render_grid_ascii, render_grid_ppm

    graph = grid_2d(args.rows, args.cols)
    result = decompose(graph, args.beta, seed=args.seed)
    labels = result.decomposition.labels
    path = render_grid_ppm(
        labels, args.rows, args.cols, args.out, scale=args.scale
    )
    print(
        f"wrote {path} ({result.decomposition.num_pieces} pieces, "
        f"cut fraction {result.decomposition.cut_fraction():.4f})"
    )
    if args.ascii:
        print(render_grid_ascii(labels, args.rows, args.cols))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.engine import decompose_many

    _check_workers(args)
    graph = _build_graph(args)
    options = _parse_options(graph, args.method, args.option)
    betas = [float(tok) for tok in args.betas.split(",") if tok.strip()]
    # One decompose_many per β row: a fresh worker pool per row would cost
    # more than the row's runs, so the sweep stays in process unless
    # --workers asks for a pool.
    workers = 1 if args.workers is None else args.workers
    header = (
        f"{'beta':>8} {'pieces':>8} {'max_rad':>8} {'cut_frac':>10} "
        f"{'cut/beta':>9} {'rounds':>7}"
    )
    reps = "" if args.reps == 1 else f" reps={args.reps} (per-row means)"
    print(
        f"graph {args.graph}: n={graph.num_vertices} m={graph.num_edges}{reps}"
    )
    print(header)
    for beta in betas:
        batch = decompose_many(
            graph,
            beta,
            method=args.method,
            seeds=range(args.seed, args.seed + args.reps),
            max_workers=workers,
            **options,
        )
        agg = batch.aggregate()
        cf = agg["cut_fraction_mean"]
        print(
            f"{beta:>8.4f} {agg['num_pieces_mean']:>8.1f} "
            f"{agg['max_radius_mean']:>8.1f} {cf:>10.4f} "
            f"{cf / beta:>9.3f} {agg['rounds_mean']:>7.1f}"
        )
    return 0


def _cmd_bench_throughput(args: argparse.Namespace) -> int:
    from repro.errors import ParameterError
    from repro.runtime.throughput import measure_throughput

    if args.requests < 1:
        raise ParameterError(f"--requests must be >= 1, got {args.requests}")
    executors = tuple(
        tok.strip() for tok in args.executors.split(",") if tok.strip()
    )
    if not executors:
        raise ParameterError("--executors must name at least one strategy")
    graph = _build_graph(args)
    options = _parse_options(graph, args.method, args.option)
    records = measure_throughput(
        graph,
        args.beta,
        num_requests=args.requests,
        executors=executors,
        max_workers=args.workers,
        method=args.method,
        base_seed=args.seed,
        options=options,
        repeats=args.repeats,
    )
    baseline = records[executors[0]]
    identical = len({r.assignments_digest for r in records.values()}) == 1
    if args.json:
        print(
            json.dumps(
                {
                    "graph": args.graph,
                    "n": graph.num_vertices,
                    "m": graph.num_edges,
                    "beta": args.beta,
                    "requests": args.requests,
                    "identical_assignments": identical,
                    "executors": {
                        name: {
                            "seconds": rec.seconds,
                            "requests_per_sec": rec.requests_per_sec,
                            "speedup": rec.speedup_over(baseline),
                            "digest": rec.assignments_digest,
                        }
                        for name, rec in records.items()
                    },
                }
            )
        )
        return 0 if identical else 1
    print(
        f"graph {args.graph}: n={graph.num_vertices} m={graph.num_edges} "
        f"beta={args.beta} requests={args.requests} repeats={args.repeats}"
    )
    print(
        f"{'executor':>10} {'seconds':>9} {'req/s':>9} "
        f"{'vs ' + executors[0]:>12}"
    )
    for name, rec in records.items():
        print(
            f"{name:>10} {rec.seconds:>9.3f} {rec.requests_per_sec:>9.2f} "
            f"{rec.speedup_over(baseline):>11.2f}x"
        )
    print(
        "assignments identical across executors: "
        + ("yes" if identical else "NO — DETERMINISM BUG")
    )
    return 0 if identical else 1


def _serve_inputs(args: argparse.Namespace) -> tuple[list, int]:
    """``--graph``/``--weights``/``--graph-file`` → the graphs to preload,
    and ``--cache-bytes`` → the result-cache budget (``repro serve`` and
    ``repro cluster``)."""
    from repro.graphs.generators import by_name
    from repro.graphs.io import load_graph
    from repro.graphs.weighted import weights_by_name
    from repro.serve.cache import DEFAULT_MAX_BYTES

    graphs = []
    for spec in args.graph:
        graph = by_name(spec, seed=args.seed)
        if args.weights:
            graph = weights_by_name(graph, args.weights, seed=args.seed)
        graphs.append(graph)
    for path in args.graph_file:
        graphs.append(load_graph(path))
    cache_bytes = (
        DEFAULT_MAX_BYTES if args.cache_bytes is None else args.cache_bytes
    )
    return graphs, cache_bytes


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve.server import DecompositionServer

    graphs, cache_bytes = _serve_inputs(args)
    server = DecompositionServer(
        graphs,
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        cache_bytes=cache_bytes,
        idle_ttl=args.ttl,
        **_slow_request_kwargs(args),
    )

    def _announce() -> None:
        host, port = server.address
        print(f"repro.serve listening on {host}:{port}", flush=True)
        for digest in server.preloaded:
            print(f"preloaded graph {digest}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{port}\n")

    try:
        asyncio.run(server.run_async(ready=_announce))
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("interrupted; server stopped", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import threading
    from contextlib import ExitStack
    from pathlib import Path

    from repro.cluster.router import ClusterRouter
    from repro.errors import ParameterError
    from repro.serve.client import ServeClient
    from repro.serve.server import serve_background

    if args.shards < 1:
        raise ParameterError(f"--shards must be >= 1, got {args.shards}")
    graphs, cache_bytes = _serve_inputs(args)
    router_kwargs = {}
    if args.replicas is not None:
        router_kwargs["replicas"] = args.replicas
    with ExitStack() as stack:
        shards = [
            stack.enter_context(
                serve_background(
                    max_workers=args.workers,
                    cache_bytes=cache_bytes,
                    **_slow_request_kwargs(args),
                )
            )
            for _ in range(args.shards)
        ]
        router = ClusterRouter(
            [shard.address for shard in shards],
            host=args.host,
            port=args.port,
            owns_shards=True,
            idle_ttl=args.ttl,
            **router_kwargs,
        )
        ready = threading.Event()

        def _announce() -> None:
            # Runs on its own thread: preloads go through the router over
            # a real client connection, which must not block the router's
            # event loop (the ready callback runs on it).
            ready.wait()
            if router.address is None:  # pragma: no cover - startup failure
                return
            host, port = router.address
            for graph in graphs:
                with ServeClient(host, port) as client:
                    response = client.upload_graph(graph)
                print(
                    f"preloaded graph {response['digest']} "
                    f"-> shard {response['shard']}",
                    flush=True,
                )
            print(
                f"repro.cluster routing {len(shards)} shard(s) "
                f"on {host}:{port}",
                flush=True,
            )
            for label in router.shard_labels:
                print(f"shard {label}", flush=True)
            if args.port_file:
                Path(args.port_file).write_text(f"{port}\n")

        announcer = threading.Thread(
            target=_announce, daemon=True, name="repro-cluster-announce"
        )
        announcer.start()
        try:
            asyncio.run(router.run_async(ready=ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            print("interrupted; cluster stopped", file=sys.stderr)
    return 0


def _slow_request_kwargs(args: argparse.Namespace) -> dict:
    """``--slow-request-ms`` → server ctor kwarg (negative disables)."""
    if args.slow_request_ms is None:
        return {}
    value = args.slow_request_ms
    return {"slow_request_ms": None if value < 0 else value}


def _parse_connect(connect: str) -> tuple[str, int]:
    from repro.errors import ParameterError

    host, sep, port = connect.rpartition(":")
    if not sep or not host:
        raise ParameterError(
            f"--connect expects HOST:PORT, got {connect!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ParameterError(
            f"--connect port must be an integer, got {port!r}"
        ) from None


def _remote_options(
    client, method: str, pairs: list[str], kind_hint: str | None
) -> tuple[str, dict[str, object]]:
    """Parse ``--option`` strings against the server's registry dump.

    Returns the (possibly resolved) method name and the typed options.
    This is the remote mirror of :func:`_parse_options`: the handshake's
    method manifest stands in for the local registry, so ``repro request``
    works against servers whose registry differs from the client's.
    """
    from repro.core.registry import OptionSpec
    from repro.errors import ParameterError

    if not pairs:
        return method, {}
    hello = client.hello()
    if method == "auto":
        if kind_hint is None:
            raise ParameterError(
                "--option with --method auto and --digest is ambiguous "
                "(the client cannot resolve 'auto' without the graph); "
                "pass an explicit --method"
            )
        method = hello["default_methods"][kind_hint]
    entry = next(
        (m for m in hello["methods"] if m["name"] == method), None
    )
    if entry is None:
        raise ParameterError(
            f"server does not advertise method {method!r}; available: "
            f"{sorted(m['name'] for m in hello['methods'])}"
        )
    specs = {
        o["name"]: OptionSpec(
            name=o["name"],
            type=o["type"],
            default=o["default"],
            description=o.get("description", ""),
            choices=tuple(o["choices"]) if o.get("choices") else None,
        )
        for o in entry["options"]
    }
    options: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ParameterError(f"--option expects KEY=VALUE, got {pair!r}")
        key = key.strip()
        if key not in specs:
            raise ParameterError(
                f"method {method!r} has no option {key!r}; accepted "
                f"options: {sorted(specs)}"
            )
        options[key] = specs[key].parse(value)
    return method, options


def _upload_target(
    client, args: argparse.Namespace, *, weights: str | None = None
) -> tuple[str, str | None]:
    """Resolve ``--digest``/``--graph``/``--graph-file`` into a digest.

    Returns ``(digest, kind_hint)`` — the hint is ``None`` when the graph
    was referenced by digest (the client cannot know its kind).
    """
    from repro.errors import ParameterError

    if args.digest is not None:
        return args.digest, None
    if args.graph_file:
        upload = client.upload_file(args.graph_file)
    elif args.graph:
        from repro.graphs.generators import by_name
        from repro.graphs.weighted import weights_by_name

        graph = by_name(args.graph, seed=args.graph_seed)
        if weights:
            graph = weights_by_name(graph, weights, seed=args.graph_seed)
        upload = client.upload_graph(graph)
    else:
        raise ParameterError(
            f"{args.command} needs --digest, --graph or --graph-file"
        )
    return (
        upload["digest"],
        "weighted" if upload["weighted"] else "unweighted",
    )


def _print_stats_table(doc: dict) -> None:
    """Render the stats document as aligned ``section.key`` rows.

    Derived ratios the counters exist for — cache hit-rate, store dedup
    rate, pool completion — are computed here so operators do not have to.
    """
    def rate(num: float, den: float) -> str:
        return f"{num / den:.1%}" if den else "n/a"

    cache = doc.get("cache") or {}
    store = doc.get("store") or {}
    pool = doc.get("pool") or {}
    derived = {
        "cache": {
            "hit_rate": rate(
                cache.get("hits", 0),
                cache.get("hits", 0) + cache.get("misses", 0),
            ),
            "fill": rate(cache.get("bytes", 0), cache.get("max_bytes", 0)),
        },
        "store": {
            "dedup_rate": rate(
                store.get("dedup_hits", 0), store.get("uploads", 0)
            ),
        },
        "pool": {
            "completion_rate": rate(
                pool.get("completed", 0), pool.get("submitted", 0)
            ),
        },
    }
    for section in ("router", "server", "cache", "store", "pool"):
        block = doc.get(section)
        if not isinstance(block, dict):
            continue
        # Scalar rows only: cluster documents nest per-shard blocks the
        # table cannot align (use --json for those).
        rows = {
            k: v for k, v in block.items() if not isinstance(v, (dict, list))
        }
        rows.update(derived.get(section, {}))
        if not rows:
            continue
        print(f"{section}:")
        width = max(len(k) for k in rows)
        for key, value in rows.items():
            if isinstance(value, float):
                value = f"{value:.3f}"
            print(f"  {key:<{width}}  {value}")


def _cmd_request(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    if args.trace:
        from repro.telemetry import trace as _trace

        # Installing the sink activates client-side tracing: every op this
        # command issues rides a span, and the remote spans coming back on
        # each response land in the same file.
        _trace.enable_tracing(args.trace)
    try:
        return _run_request(args, host, port)
    finally:
        if args.trace:
            _trace.disable_tracing()
            print(
                f"trace written to {args.trace} "
                f"(view with: repro trace {args.trace})",
                file=sys.stderr,
            )


def _run_request(args: argparse.Namespace, host: str, port: int) -> int:
    from repro.errors import ParameterError
    from repro.serve.client import ServeClient

    with ServeClient(host, port, timeout=args.timeout) as client:
        if args.shutdown:
            client.shutdown()
            print("server stopping")
            return 0
        if args.metrics:
            doc = client.metrics(text=not args.json)
            if args.json:
                doc.pop("ok", None)
                doc.pop("text", None)
                print(json.dumps(doc))
            else:
                print(doc.get("text", ""), end="")
            return 0
        if args.stats or args.hello:
            doc = client.stats() if args.stats else client.hello()
            doc.pop("ok", None)
            if args.json:
                print(json.dumps(doc))
            elif args.stats:
                _print_stats_table(doc)
            else:
                for key, value in doc.items():
                    print(f"{key}: {value}")
            return 0

        digest, kind_hint = _upload_target(
            client, args, weights=args.weights
        )
        if args.beta is None:
            raise ParameterError("a decompose request needs --beta")
        method, options = _remote_options(
            client, args.method, args.option, kind_hint
        )
        result = client.decompose(
            digest,
            args.beta,
            method=method,
            seed=args.seed,
            validate=args.validate,
            **options,
        )
        doc = {
            "digest": result.digest,
            "kind": result.kind,
            "cached": result.cached,
            "coalesced": result.coalesced,
            "result_digest": result.result_digest(),
            **result.summary,
        }
        if args.json:
            print(json.dumps(doc))
        else:
            for key, value in doc.items():
                print(f"{key:>16}: {value}")
    return 0


def _cmd_application(args: argparse.Namespace) -> int:
    """``repro spanner`` / ``repro tree`` / ``repro hst``."""
    from repro.serve.client import ServeClient

    host, port = _parse_connect(args.connect)
    with ServeClient(host, port, timeout=args.timeout) as client:
        digest, _ = _upload_target(client, args)
        # Application ops are unweighted by construction, so "auto" always
        # resolves against the unweighted default.
        method, options = _remote_options(
            client, args.method, args.option, "unweighted"
        )
        if args.command == "spanner":
            result = client.spanner(
                digest, args.beta, method=method, seed=args.seed, **options
            )
            doc = {
                "digest": result.digest,
                "cached": result.cached,
                "coalesced": result.coalesced,
                "result_digest": result.result_digest(),
                "num_edges": result.num_edges,
                "num_tree_edges": result.num_tree_edges,
                "num_bridge_edges": result.num_bridge_edges,
                "stretch_bound": result.stretch_bound,
                **result.summary,
            }
        elif args.command == "tree":
            result = client.lowstretch_tree(
                digest,
                beta=args.beta,
                method=method,
                seed=args.seed,
                max_levels=args.max_levels,
                **options,
            )
            doc = {
                "digest": result.digest,
                "cached": result.cached,
                "coalesced": result.coalesced,
                "result_digest": result.result_digest(),
                "num_levels": result.num_levels,
                "level_sizes": result.level_sizes,
                "level_betas": result.level_betas,
            }
        else:
            result = client.hierarchy(
                digest,
                seed=args.seed,
                method=method,
                beta_max=args.beta_max,
                radius_constant=args.radius_constant,
                **options,
            )
            doc = {
                "digest": result.digest,
                "cached": result.cached,
                "coalesced": result.coalesced,
                "result_digest": result.result_digest(),
                "num_levels": result.num_levels,
                "pieces_per_level": [
                    int(level.max()) + 1 for level in result.labels
                ],
            }
        if args.json:
            print(json.dumps(doc))
        else:
            for key, value in doc.items():
                print(f"{key:>16}: {value}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ParameterError
    from repro.telemetry import format_trace_tree, read_spans

    try:
        spans = read_spans(args.file)
    except OSError as exc:
        raise ParameterError(f"cannot read trace file: {exc}") from None
    if args.trace_id:
        spans = [
            s for s in spans if str(s.get("trace_id")) == args.trace_id
        ]
    if not spans:
        print(f"no spans found in {args.file}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(spans))
    else:
        print(format_trace_tree(spans))
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    from repro.core.registry import describe_methods, iter_methods
    from repro.graphs.generators import GENERATORS
    from repro.graphs.weighted import WEIGHT_SCHEMES

    if args.json:
        print(
            json.dumps(
                {
                    "methods": describe_methods(),
                    "generators": sorted(GENERATORS),
                    "weight_schemes": dict(sorted(WEIGHT_SCHEMES.items())),
                }
            )
        )
        return 0
    print("partition methods:")
    for spec in iter_methods():
        print(f"  {spec.name:>12} [{spec.kind}]: {spec.description}")
        for opt in spec.options:
            choices = (
                f" (choices: {', '.join(opt.choices)})" if opt.choices else ""
            )
            print(
                f"  {'':>12}  --option {opt.name}=<{opt.type}> "
                f"default={opt.default}{choices}"
            )
    print("graph generators:")
    print(" ", ", ".join(sorted(GENERATORS)))
    print("weight schemes (--weights):")
    for name, desc in sorted(WEIGHT_SCHEMES.items()):
        print(f"  {name:>12}: {desc}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
