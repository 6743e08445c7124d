"""Benchmark of the repro decomposition service, driven over the wire.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run spawns ``python -m repro serve``
(pool width = CPU count, 256 MiB result cache, ``REPRO_KERNEL=python``)
and drives one workload from a single client process.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` is a separate run that
prints the per-layer metrics (see ``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The line before it records the run's
configuration.  Spans and records are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Servers an end-to-end run spreads its operations over, one after
#: another (see workloads.py); setup_s is the median of their set-ups.
SERVERS = 5

#: A run that has not finished by then aborts (the limit is 180 s).
RUN_DEADLINE_S = 170

#: Share of the end-to-end op count each traced served sample runs.
TRACED_SHARE = 1 / 3

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "success_ratio": "ratio",
    "server_cpu_ms_per_op": "ms",
    "server_peak_rss_mb": "MiB",
    "setup_s": "s",
}


class RunFailed(Exception):
    """A run that cannot produce a result; the message names the phase."""


class Phases:
    """Remembers the current phase, so a failure can name it."""

    current = "start"

    def __call__(self, name: str) -> None:
        self.current = name


def _deadline(signum, frame):
    raise RunFailed(f"run exceeded {RUN_DEADLINE_S} s")


def _end_children() -> None:
    """Stop this process's resource tracker (the traced run's in-process
    pool starts one) and wait for every child, orphans included."""
    from procs import reap_children

    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    reap_children()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Pinned before repro is imported: the kernel choice and the telemetry
    # flag are read at import time, here and in the pool workers.
    os.environ["REPRO_KERNEL"] = "python"
    os.environ.pop("REPRO_TELEMETRY", None)
    if args.trace:
        os.environ["REPRO_TELEMETRY"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from procs import become_subreaper
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choices: "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of the servers stay in the
    # checkout.
    os.environ["TMPDIR"] = str(scratch)
    phases = Phases()
    become_subreaper()
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if args.trace:
            result, record = asyncio.run(
                traced_run(workload, args, scratch, phases)
            )
        else:
            result, record = asyncio.run(
                e2e_run(workload, args, scratch, phases)
            )
    except Exception as exc:  # the boundary: report, never hang
        print(
            f"perfbench: workload {workload.name} failed in phase "
            f"{phases.current}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        signal.alarm(0)
        _end_children()
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# served sessions
# ---------------------------------------------------------------------------
class Session:
    """A started server, its clients and the workload's set-up state."""

    def __init__(self, workload, inp, scratch, *, telemetry: bool) -> None:
        from procs import ServerProcess

        self.workload = workload
        self.inp = inp
        self.server = ServerProcess(ROOT, scratch, telemetry=telemetry)
        self.clients = []
        self.state = None
        self.hello = None

    async def open(self) -> float:
        """Spawn, wait for ``hello``, upload and fill; returns the seconds
        that took."""
        from repro.serve.aio_client import AsyncServeClient
        from workloads import OP_TIMEOUT_S

        t0 = time.perf_counter()
        port = await asyncio.to_thread(self.server.start)
        # One connection per client: an open loop's streams never share.
        self.clients = [
            AsyncServeClient(
                "127.0.0.1", port, timeout=OP_TIMEOUT_S, pool_size=1
            )
            for _ in range(2 if self.workload.loop == "open" else 1)
        ]
        for client in self.clients:
            self.hello = await client.hello()
        self.state = await self.workload.setup(self.clients[0], self.inp)
        elapsed = time.perf_counter() - t0
        stats = await self.clients[0].stats()
        self.pool_width = stats["pool"]["max_workers"]
        return elapsed

    async def close(self, *, graceful: bool = True) -> None:
        if graceful and self.server.proc is not None:
            await self.clients[0].shutdown()
        for client in self.clients:
            await client.aclose()
        await asyncio.to_thread(
            self.server.stop, 15.0 if graceful else 0.0
        )


async def _sessions_closed(sessions) -> None:
    for session in sessions:
        if session.server.proc is not None:
            try:
                await session.close(graceful=False)
            except Exception:
                session.server.stop(0.0)


def _run_record(workload, args, inp, n_ops, hello, extra) -> dict:
    import numpy as np
    from repro.bfs.kernels import resolve_kernel
    from layers import LAYERS

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": resolve_kernel("auto"),
        "native_kernel_on_server": hello.get("native_kernel"),
        "loop": workload.loop,
        "ops": n_ops,
        "beta": workload.beta,
        "graphs": inp.record(),
        "layer_map": {
            name: {"source": layer.source, "moves": layer.moves}
            for name, layer in LAYERS.items()
        },
        **extra,
    }


def _ladder(seconds) -> dict:
    from stats import percentile

    return {
        str(p): percentile(seconds, p) * 1e3 for p in (50, 75, 90, 95, 99)
    }


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------
async def e2e_run(workload, args, scratch, phases):
    from procs import cpu_seconds, peak_rss_mb
    from stats import (
        median, run_percentile, run_ratio, run_tail_percentile,
    )
    from workloads import Observed

    n_ops = workload.n_ops(args.seconds)
    phases("inputs")
    inp = workload.inputs(args.seed, n_ops)
    # One Observed, set-up time, peak RSS and CPU seconds per server.
    runs, setup_s, rss_mb, cpu_s = [], [], [], []
    sessions = []
    try:
        for k in range(SERVERS):
            ops = range(k * n_ops // SERVERS, (k + 1) * n_ops // SERVERS)
            out = Observed()
            phases("setup")
            session = Session(workload, inp, scratch, telemetry=False)
            sessions.append(session)
            setup_s.append(await session.open())
            tree = session.server.tree()
            phases("measure")
            cpu0 = cpu_seconds(tree)
            await workload.run(session.clients, session.state, inp, ops, out)
            cpu_s.append(cpu_seconds(tree) - cpu0)
            rss_mb.append(peak_rss_mb(tree))
            phases("shutdown")
            await session.close()
            phases("check")
            workload.reference_checks(session.state, inp, out)
            runs.append(out)
    finally:
        await _sessions_closed(sessions)
    phases("report")
    lags = [lag for out in runs for lag in out.lags]
    void = workload.void_reason(lags)
    if void:
        raise RunFailed(void)
    mismatches = sum(
        want != got for out in runs for want, got in out.checks
    )
    attempted = sum(out.attempted for out in runs)
    failed = sum(out.failed for out in runs)
    latencies = [out.latencies for out in runs]
    sizes = [len(group) for group in latencies]
    tail_p = run_tail_percentile(latencies, workload.tail_cap)
    ms = 1e3
    values = {
        "latency_p50_ms": run_percentile(latencies, 50.0) * ms,
        "latency_tail_ms": run_percentile(latencies, tail_p) * ms,
        "throughput_ops_s": run_ratio(
            [(out.ok, out.wall_s) for out in runs], sizes
        ),
        "success_ratio": max(0, attempted - failed - mismatches) / attempted,
        "server_cpu_ms_per_op": run_ratio(
            [(cpu * ms, out.attempted) for cpu, out in zip(cpu_s, runs)],
            sizes,
        ),
        "server_peak_rss_mb": median(rss_mb),
        "setup_s": median(setup_s),
    }
    pooled = [x for group in latencies for x in group]
    secondary = [x for out in runs for x in out.secondary]
    record = _run_record(workload, args, inp, n_ops, session.hello, {
        "pool_width": session.pool_width,
        "tail_percentile": tail_p,
        "samples_per_server": sizes,
        "latency_percentiles_ms": _ladder(pooled),
        "secondary_percentiles_ms": _ladder(secondary) if secondary else None,
        "setup_s_each": setup_s,
        "ingest_mb_s": (
            sum(out.upload_bytes for out in runs) / 1e6
            / sum(out.upload_s for out in runs)
            if runs[0].upload_s else None
        ),
        "checks": sum(len(out.checks) for out in runs),
        "mismatches": mismatches,
    })
    result = {
        "correct": mismatches == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed + mismatches,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        },
    }
    return result, record


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------
async def _served_sample(workload, inp, scratch, n, *, telemetry):
    """A short served loop; with telemetry, also the server's counters
    around it and one raw response frame."""
    from repro.telemetry import trace
    from workloads import Observed

    session = Session(workload, inp, scratch, telemetry=telemetry)
    try:
        await session.open()
        client = session.clients[0]
        before = (await client.stats(), await client.metrics(text=False))
        if telemetry:
            spans: list[dict] = []
            trace.enable_tracing(spans.append)
        out = Observed()
        try:
            await workload.run(
            session.clients, session.state, inp, range(n), out
        )
        finally:
            trace.disable_tracing()
        after = (await client.stats(), await client.metrics(text=False))
        body = await workload.raw_response(client, inp)
        await session.close()
    finally:
        await _sessions_closed([session])
    workload.reference_checks(session.state, inp, out)
    extra = {
        "before": before, "after": after, "body": body,
        "hello": session.hello,
    }
    if telemetry:
        extra["spans"] = spans
    return out, extra


def _server_counters(workload, before, after, ops: int) -> dict:
    from stats import histogram_delta_mean

    (stats0, metrics0), (stats1, metrics1) = before, after
    lookups = (
        stats1["cache"]["hits"] + stats1["cache"]["misses"]
        - stats0["cache"]["hits"] - stats0["cache"]["misses"]
    )
    series = (
        'repro_request_seconds{op="hierarchy"}'
        if workload.name == "app-hierarchy"
        else "repro_pool_execution_seconds"
    )
    return {
        "serve.server_exec_ms": 1e3 * histogram_delta_mean(
            metrics0["metrics"]["histograms"].get(series),
            metrics1["metrics"]["histograms"].get(series),
        ),
        "serve.pool_executions_per_op": (
            stats1["pool"]["submitted"] - stats0["pool"]["submitted"]
        ) / ops,
        "serve.cache_hit_ratio": (
            (stats1["cache"]["hits"] - stats0["cache"]["hits"]) / lookups
            if lookups else 0.0
        ),
    }


#: Layer metrics on each workload's blocking path, for the residual.
_BLOCKING = {
    "cold-decompose": (
        "serve.server_exec_ms", "core.summary_ms", "serve.encode_ms",
        "serve.decode_ms",
    ),
    # Hits: no pool execution and no summary on their path.
    "warm-under-cold": ("serve.encode_ms", "serve.decode_ms"),
    "ingest-then-decompose": (
        "graphs.parse_ms", "graphs.digest_ms", "runtime.register_ms",
        "serve.server_exec_ms", "core.summary_ms", "serve.encode_ms",
        "serve.decode_ms",
    ),
    "app-hierarchy": (
        "serve.server_exec_ms", "serve.encode_ms", "serve.decode_ms",
    ),
}


async def traced_run(workload, args, scratch, phases):
    from repro.runtime.pool import DecompositionPool
    from repro.telemetry import trace
    from layers import LAYERS, layer_metrics, replay
    from stats import median, percentile, unattributed

    n_ops = max(1, round(workload.n_ops(args.seconds) * TRACED_SHARE))
    phases("inputs")
    inp = workload.inputs(args.seed, workload.n_ops(args.seconds))
    phases("untraced sample")
    plain, _ = await _served_sample(
        workload, inp, scratch, n_ops, telemetry=False
    )
    phases("traced sample")
    traced, extra = await _served_sample(
        workload, inp, scratch, n_ops, telemetry=True
    )
    phases("replay")
    records: list[dict] = []
    trace.enable_tracing(records.append)
    try:
        with DecompositionPool() as pool:
            replay(workload, inp, pool, extra["body"])
            pool_width = pool.max_workers
    finally:
        trace.disable_tracing()
    phases("report")
    values = layer_metrics(records)
    values.update(_server_counters(
        workload, extra["before"], extra["after"], traced.attempted
    ))
    values["serve.response_bytes"] = float(len(extra["body"]))
    e2e_ms = median(traced.latencies) * 1e3
    values["serve.unattributed_ms"] = unattributed(
        e2e_ms, [values[name] for name in _BLOCKING[workload.name]]
    )
    values["client.send_lag_ms"] = percentile(
        plain.lags, 99.0
    ) * 1e3
    values["trace.overhead_ratio"] = e2e_ms / (median(plain.latencies) * 1e3)
    stem = f"{workload.name}-seed{args.seed}"
    with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
        for record in extra["spans"] + records:
            fh.write(json.dumps(record, default=str) + "\n")
    failed = sum(
        out.failed + sum(1 for want, got in out.checks if want != got)
        for out in (plain, traced)
    )
    record = _run_record(workload, args, inp, n_ops, extra["hello"], {
        "pool_width": pool_width,
        "traced_e2e_p50_ms": e2e_ms,
        "blocking_layers": list(_BLOCKING[workload.name]),
    })
    result = {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": layer.unit}
            for name, layer in LAYERS.items()
        },
    }
    return result, record


if __name__ == "__main__":
    sys.exit(main())
