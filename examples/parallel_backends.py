#!/usr/bin/env python
"""Parallel execution backends: vectorised rounds, the kernel, the pool.

Demonstrates the reproduction's parallelism story (see DESIGN.md §2):

- the vectorised engine executes one PRAM round per NumPy pass, and the
  optional compiled kernel runs the same rounds' hot phases natively;
- batches of seeds run on the shared-memory worker pool
  (``decompose_many`` with more than one worker) and produce
  **bit-identical** output to the in-process loop;
- Brent's bound converts the measured (work, depth) into simulated time on
  p processors — the quantity Theorem 1.2 is actually about.

Run:  python examples/parallel_backends.py
"""

import time
import warnings

import numpy as np

from repro.bfs import delayed_multisource_bfs
from repro.bfs.kernels import native_available, use_kernel
from repro.core import decompose_many, sample_shifts
from repro.graphs import grid_2d
from repro.pram import brent_time


def main() -> None:
    graph = grid_2d(60, 60)
    beta = 0.1
    shifts = sample_shifts(graph.num_vertices, beta, seed=3)
    print(f"grid 60x60, beta={beta}\n")

    kernels = ["python"] + (["native"] if native_available() else [])
    runs = {}
    for kernel in kernels:
        with use_kernel(kernel):
            t0 = time.perf_counter()
            runs[kernel] = delayed_multisource_bfs(
                graph, shifts.start_time, tie_key=shifts.tie_key
            )
            elapsed = time.perf_counter() - t0
        print(f"{kernel:>6} kernel: {runs[kernel].num_rounds} rounds, "
              f"work={runs[kernel].work}, {elapsed * 1000:.1f} ms")
    serial = runs["python"]

    t0 = time.perf_counter()
    in_process = decompose_many(graph, beta, seeds=4, max_workers=1)
    t_serial = time.perf_counter() - t0
    with warnings.catch_warnings():
        # A pool that cannot start would silently compare serial to serial.
        warnings.simplefilter("error", RuntimeWarning)
        t0 = time.perf_counter()
        pooled = decompose_many(graph, beta, seeds=4, max_workers=2)
        t_pool = time.perf_counter() - t0
    identical = all(
        np.array_equal(a.decomposition.center, b.decomposition.center)
        and np.array_equal(a.decomposition.hops, b.decomposition.hops)
        for a, b in zip(in_process.results, pooled.results)
    )
    print(f"\n4 seeds in process: {t_serial * 1000:.1f} ms; on the pool "
          f"(2 workers): {t_pool * 1000:.1f} ms, identical={identical} "
          "(pool start-up dominates at this scale — expected)")

    print("\nBrent-simulated time (work/p + depth), the Theorem 1.2 view:")
    depth = serial.active_rounds * int(np.ceil(np.log2(graph.num_vertices)))
    print(f"{'p':>6} {'T_p':>12}")
    for p in (1, 4, 16, 64, 256):
        print(f"{p:>6} {brent_time(serial.work, depth, p):>12.0f}")
    print(
        "\nwork/p dominates until p ~ work/depth "
        f"(= {serial.work // max(depth, 1)}); past that the "
        "O(log^2 n / beta) depth is the floor."
    )


if __name__ == "__main__":
    main()
