"""Experiment ISO — warm hits beside a stream of application ops.

An application op (``hierarchy``, ``lowstretch_tree``, ``spanner``) is one
pool task: the application runs in a worker process, and the server's
event loop only looks the op up, submits it and encodes the result.  So a
cached ``decompose`` hit should cost the same beside a stream of cold
application ops as alone.

The probe starts one ``serve_background`` server and measures warm-hit
latency twice: alone, then while a second client, in a child process,
keeps one ``grid:70x70`` hierarchy op in flight at a time (closed loop, a
fresh seed per op, so every op runs).  It fails if the p99 beside the
stream is more than 2x the p99 alone.  The two phases alternate for a few
rounds and their medians are compared, so one scheduling hiccup cannot
decide it.

Run:  PYTHONPATH=src python benchmarks/bench_app_isolation.py [--smoke]
(``--smoke`` or ``REPRO_BENCH_SMOKE=1`` takes fewer samples; the 2x gate
holds in both modes.)
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np

import repro
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.serve import ServeClient, serve_background

from common import Table, emit_bench_json

#: warm-hit p99 beside the stream must stay within this factor of alone.
MAX_RATIO = 2.0
#: cached (beta, seed) configurations the warm hits cycle through.
WARM_SEEDS = 20
WARM_BETA = 0.1
#: pause between warm hits: the stream's ops land between them.
PACE_S = 0.002


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _hits_per_phase() -> int:
    return 300 if _smoke() else 600


def _rounds() -> int:
    return 5 if _smoke() else 7


def _warm_p99_ms(client: ServeClient, digest: str, count: int) -> float:
    latencies = []
    for i in range(count):
        start = time.perf_counter()
        result = client.decompose(digest, WARM_BETA, seed=i % WARM_SEEDS)
        latencies.append(time.perf_counter() - start)
        assert result.cached, "warm-hit probe missed the cache"
        time.sleep(PACE_S)
    return float(np.percentile(np.asarray(latencies) * 1e3, 99))


class _HierarchyStream:
    """A closed loop of cold hierarchy ops, run by a child process.

    The child is this script with ``--stream``: its own interpreter, so
    decoding the stream's responses never competes with the probe's
    client for a GIL.  It prints ``ready`` after its first op, stops after
    the op in flight once its stdin closes, and prints its op count.
    """

    def __init__(self, address, digest: str, first_seed: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(repro.__path__[0]),
                        env.get("PYTHONPATH")) if p
        )
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--stream", address[0],
             str(address[1]), digest, str(first_seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        if self._proc.stdout.readline().strip() != "ready":
            raise RuntimeError("hierarchy stream failed to start")

    def stop(self) -> int:
        """Stop the stream; the number of ops it ran after ``ready``."""
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.stdout.close()
        if self._proc.wait(timeout=120):
            raise RuntimeError(
                f"hierarchy stream exited {self._proc.returncode}"
            )
        return int(out.strip())


def _stream(host: str, port: str, digest: str, first_seed: str) -> None:
    stop = threading.Event()
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()
    seed = int(first_seed)
    done = 0
    with ServeClient(host, int(port)) as client:
        client.hierarchy(digest, seed=seed)
        print("ready", flush=True)
        while not stop.is_set():
            seed += 1
            assert not client.hierarchy(digest, seed=seed).cached
            done += 1
    print(done, flush=True)


def test_warm_hits_are_isolated_from_application_ops():
    warm_graph = erdos_renyi(2000, 0.004, seed=0)
    app_graph = grid_2d(70, 70)
    hits = _hits_per_phase()
    alone: list[float] = []
    beside: list[float] = []
    with serve_background(max_workers=2) as server:
        with ServeClient(*server.address) as client:
            warm_digest = client.upload(warm_graph)
            app_digest = client.upload(app_graph)
            for seed in range(WARM_SEEDS):  # fill the cache
                client.decompose(warm_digest, WARM_BETA, seed=seed)
            client.hierarchy(app_digest, seed=0)  # warm the worker
            ops = 0
            for round_no in range(_rounds()):
                alone.append(_warm_p99_ms(client, warm_digest, hits))
                stream = _HierarchyStream(
                    server.address, app_digest, 1_000_000 * (round_no + 1)
                )
                try:
                    beside.append(_warm_p99_ms(client, warm_digest, hits))
                finally:
                    done = stream.stop()
                assert done >= 1, "the stream ran no op beside the hits"
                ops += done
    alone_ms = float(np.median(alone))
    beside_ms = float(np.median(beside))
    ratio = beside_ms / alone_ms
    table = Table(
        "ISO: warm-hit p99 alone vs beside a grid:70x70 hierarchy stream",
        ["phase", "p99_ms (median of rounds)", "rounds_ms"],
    )
    table.add("alone", f"{alone_ms:.2f}", " ".join(f"{v:.2f}" for v in alone))
    table.add(
        "beside", f"{beside_ms:.2f}", " ".join(f"{v:.2f}" for v in beside)
    )
    table.show()
    print(f"ratio {ratio:.2f} (gate <= {MAX_RATIO}); {ops} hierarchy ops")
    emit_bench_json(
        "app_isolation",
        {
            "warm_hit_p99_alone_ms": alone_ms,
            "warm_hit_p99_beside_ms": beside_ms,
            "ratio": ratio,
            "gate": MAX_RATIO,
            "hits_per_phase": hits,
            "rounds": len(alone),
            "hierarchy_ops": ops,
            "smoke": _smoke(),
        },
    )
    assert ratio <= MAX_RATIO, (
        f"warm-hit p99 beside the hierarchy stream is {ratio:.2f}x the p99 "
        f"alone ({beside_ms:.2f} vs {alone_ms:.2f} ms); gate {MAX_RATIO}x"
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--stream"]:
        _stream(*sys.argv[2:6])
        sys.exit(0)
    if "--smoke" in sys.argv:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    test_warm_hits_are_isolated_from_application_ops()
