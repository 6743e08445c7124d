"""Experiments RT, OBS, NK — throughput, telemetry overhead, native kernel.

The serving claim behind `repro.runtime`: once the graph is resident in
shared memory and workers stay attached, a decomposition request costs its
compute plus a slim result, while a per-task pickling executor pays the full
graph through the pickle stream *twice* per request (task out, result back).
On a >= 100k-edge graph the runtime must sustain at least 2x the
requests/sec of the per-task pickling baseline while producing bit-identical
assignments (checked by digest here, and exhaustively by
tests/test_conformance.py).

The dense Erdos-Renyi workload is the serving-heavy regime on purpose: many
edges (graph transport scales with m), few vertices and a tiny diameter
(compute rounds and result arrays scale with n) — the shape where a batch
runtime earns its keep.  ``REPRO_BENCH_SMOKE=1`` shrinks the workload to a
seconds-fast path-exercise (used by CI) and skips the speedup floor, which
is only meaningful at full size.

Experiment OBS rides the same workload in process and flips
deep telemetry (:func:`repro.telemetry.set_enabled`) between passes: the
per-round BFS phase timers and histogram observations must cost <= 5% of
throughput when enabled and leave assignments bit-identical, and the
per-phase timing histograms they populate are emitted into
``BENCH_observability.json``.

Experiment NK measures the compiled frontier kernel
(:mod:`repro.bfs._kernel`) against the pure-numpy hot path: on a ~1M-edge
graph the native kernel must cut single-request latency by at least 5x,
while every registered unweighted method stays digest-identical across
``kernel="python"`` and ``kernel="native"``.  Skipped when the extension
is not built (a compiler-less install is a supported configuration).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import telemetry
from repro.bfs.kernels import native_available
from repro.core import decompose
from repro.core.registry import method_names
from repro.graphs.generators import erdos_renyi
from repro.runtime.throughput import _digest, measure_throughput
from repro.telemetry import metrics as _metrics

from common import Table, bench_scale, emit_bench_json

#: Strategies the RT table reports, baseline first.
RT_EXECUTORS = ("pickle", "shared")


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _workload():
    """(graph, beta, num_requests, repeats) for the current mode/scale."""
    if _smoke():
        return erdos_renyi(200, 0.2, seed=0), 0.3, 6, 1
    scale = bench_scale()
    # ~128k edges * scale; n grows with scale so density stays serving-shaped.
    n = 800 * scale
    p = 0.4 / scale
    return erdos_renyi(n, p, seed=0), 0.3, 128, 4


def test_runtime_throughput():
    graph, beta, num_requests, repeats = _workload()
    records = measure_throughput(
        graph,
        beta,
        num_requests=num_requests,
        executors=("serial",) + RT_EXECUTORS,
        max_workers=2,
        repeats=repeats,
    )
    baseline = records["pickle"]
    table = Table(
        f"RT: requests/sec, n={graph.num_vertices} m={graph.num_edges} "
        f"beta={beta} requests={num_requests}",
        ["executor", "seconds", "req_per_s", "vs_pickle"],
    )
    for name, rec in records.items():
        table.add(
            name, rec.seconds, rec.requests_per_sec,
            rec.speedup_over(baseline),
        )
    table.show()

    digests = {rec.assignments_digest for rec in records.values()}
    assert len(digests) == 1, (
        "executors disagree on assignments: determinism bug"
    )
    if not _smoke():
        speedup = records["shared"].speedup_over(baseline)
        assert graph.num_edges >= 100_000
        assert speedup >= 2.0, (
            f"shared runtime only {speedup:.2f}x over per-task pickling"
        )


def _obs_workload():
    """(graph, beta, num_requests) sized so the 5% budget is measurable.

    The RT smoke graph is so small (~0.4 ms per decomposition) that the
    instrumentation's fixed per-request cost (~20 us: three histogram
    observations, two no-op spans, per-round clock reads) and the timer
    noise are both comparable to the budget; ~40k edges puts one request
    above two milliseconds, where a 5% regression is real signal and the
    fixed cost sits where production graphs put it.
    """
    if _smoke():
        return erdos_renyi(2000, 0.02, seed=0), 0.3, 32
    graph, beta, num_requests, _ = _workload()
    return graph, beta, num_requests


def _measure_obs(graph, beta, num_requests, repeats):
    """(seconds with telemetry off, on, per-mode digest) for one measurement.

    Times every request individually and keeps each request's fastest time
    per mode across interleaved off/on passes.  Contention only ever *adds*
    time (timeit's best-of-N reasoning), and a millisecond-scale sample
    needs just one clean scheduling window over all the passes — whole-pass
    timings would need a clean window tens of ms long, which a busy CI box
    rarely grants.  Interleaving the modes spreads clock-speed drift evenly
    over both.
    """
    seeds = list(range(num_requests))
    best = {
        False: [float("inf")] * num_requests,
        True: [float("inf")] * num_requests,
    }
    digests: dict[bool, str] = {}
    was_enabled = telemetry.enabled()
    try:
        telemetry.set_enabled(False)
        # Discarded warmup so the first measured pass isn't paying cold
        # caches that later ones don't.
        for seed in seeds:
            decompose(graph, beta, seed=seed)
        for _ in range(repeats):
            for mode in (False, True):
                telemetry.set_enabled(mode)
                results = []
                times = best[mode]
                for i, seed in enumerate(seeds):
                    t0 = time.perf_counter()
                    results.append(decompose(graph, beta, seed=seed))
                    elapsed = time.perf_counter() - t0
                    if elapsed < times[i]:
                        times[i] = elapsed
                pass_digest = _digest(results)
                assert digests.setdefault(mode, pass_digest) == pass_digest, (
                    "assignments changed across repeat passes: determinism bug"
                )
    finally:
        telemetry.set_enabled(was_enabled)
    return sum(best[False]), sum(best[True]), digests


def test_observability_overhead():
    """Experiment OBS — deep telemetry costs <= 5% and changes nothing."""
    graph, beta, num_requests = _obs_workload()
    repeats = 7
    # Even per-request minima occasionally read high when the box never
    # goes quiet during a whole measurement, so an over-budget reading is
    # re-measured before it counts: a real regression is over budget on
    # every attempt, a contention spike is not.
    for attempt in range(3):
        off_s, on_s, digests = _measure_obs(graph, beta, num_requests, repeats)
        overhead = on_s / off_s - 1.0
        if overhead <= 0.05:
            break
        print(
            f"attempt {attempt + 1}: overhead {overhead * 100:+.2f}% "
            "over budget; re-measuring"
        )

    table = Table(
        f"OBS: telemetry overhead, n={graph.num_vertices} "
        f"m={graph.num_edges} beta={beta} requests={num_requests} "
        f"per-request best-of-{repeats} interleaved",
        ["telemetry", "seconds", "req_per_s"],
    )
    table.add("off", off_s, num_requests / off_s)
    table.add("on", on_s, num_requests / on_s)
    table.show()
    print(f"overhead with telemetry on: {overhead * 100:+.2f}%")

    # The serial runs executed in this process, so the phase histograms
    # they populated are in the global registry; ship them as the bench
    # artifact's per-phase timing section.
    snap = _metrics.snapshot()
    phases = {}
    for key, hist in (snap.get("histograms") or {}).items():
        base, label_body = _metrics.split_series_key(key)
        if base != "repro_bfs_phase_seconds":
            continue
        phase = label_body.split('"')[1] if '"' in label_body else "all"
        phases[phase] = {
            "observations": hist["count"],
            "total_s": hist["sum"],
            "mean_s": hist["sum"] / hist["count"] if hist["count"] else 0.0,
        }
    emit_bench_json(
        "observability",
        {
            "observability": {
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "beta": beta,
                "requests": num_requests,
                "telemetry_off_per_s": num_requests / off_s,
                "telemetry_on_per_s": num_requests / on_s,
                "overhead_pct": overhead * 100.0,
                "phases": phases,
            }
        },
    )

    assert digests[True] == digests[False], (
        "telemetry changed decomposition output: instrumentation bug"
    )
    assert phases, "telemetry-on pass produced no phase histograms"
    assert overhead <= 0.05, (
        f"deep telemetry costs {overhead * 100:.1f}% (> 5% budget)"
    )


def _nk_workload():
    """(graph, beta, repeats) for the kernel-latency comparison.

    Full mode uses a dense ~1M-edge Erdos-Renyi graph: big rounds are where
    the numpy path pays its per-arc multi-pass cost (repeat/cumsum gathers,
    ``ufunc.at`` priority writes) and where the single fused C sweep shows
    its constant-factor headroom.  Smoke mode only path-exercises.
    """
    if _smoke():
        return erdos_renyi(400, 0.05, seed=7), 0.3, 2
    return erdos_renyi(8000, 0.0329, seed=7), 0.3, 5


def _best_latency(graph, beta, kernel, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = decompose(graph, beta, seed=1, kernel=kernel)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_native_kernel_latency():
    """Experiment NK — the compiled kernel is >= 5x, and changes nothing."""
    if not native_available():
        pytest.skip("compiled kernel repro.bfs._kernel not built")

    # Digest sweep first: every registered unweighted method, two seeds,
    # both kernels — identical assignments before any speed claim counts.
    sweep_graph = erdos_renyi(300, 0.05, seed=2)
    sweep = {}
    for method in method_names("unweighted"):
        for seed in (0, 1):
            runs = {
                kernel: decompose(
                    sweep_graph, 0.3, method=method, seed=seed, kernel=kernel
                )
                for kernel in ("python", "native")
            }
            digest = {k: _digest([r]) for k, r in runs.items()}
            assert digest["python"] == digest["native"], (
                f"kernels disagree: method={method} seed={seed}"
            )
            sweep[f"{method}/seed{seed}"] = digest["python"]

    graph, beta, repeats = _nk_workload()
    python_s, python_res = _best_latency(graph, beta, "python", repeats)
    native_s, native_res = _best_latency(graph, beta, "native", repeats)
    assert _digest([python_res]) == _digest([native_res]), (
        "kernels disagree on the benchmark graph: determinism bug"
    )
    speedup = python_s / native_s

    table = Table(
        f"NK: single-request latency, n={graph.num_vertices} "
        f"m={graph.num_edges} beta={beta} best-of-{repeats}",
        ["kernel", "seconds", "req_per_s", "speedup"],
    )
    table.add("python", python_s, 1.0 / python_s, 1.0)
    table.add("native", native_s, 1.0 / native_s, speedup)
    table.show()

    emit_bench_json(
        "native_kernel",
        {
            "native_kernel": {
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "beta": beta,
                "python_latency_s": python_s,
                "native_latency_s": native_s,
                "speedup": speedup,
                "methods_digest_checked": len(sweep),
            }
        },
    )

    if not _smoke():
        assert graph.num_edges >= 1_000_000
        assert speedup >= 5.0, (
            f"native kernel only {speedup:.2f}x over the numpy path"
        )


if __name__ == "__main__":
    test_runtime_throughput()
    test_observability_overhead()
    test_native_kernel_latency()
