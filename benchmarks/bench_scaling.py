"""Experiment SCALE — Brent-simulated processor scaling of Theorem 1.2.

The theorem's point is that the algorithm's (work, depth) profile lets a
PRAM with p processors run it in ``work/p + depth`` time.  This bench
measures the actual (work, modelled depth) of runs and prints the Brent
curves: speedup saturates at ``work/depth`` processors, which grows with m
at fixed β — the practical meaning of an O(m)-work, polylog·(1/β)-depth
algorithm.  The sequential baseline's curve is flat (its depth *is* its
work on adversarial inputs), making the contrast concrete.
"""

from __future__ import annotations

from repro.core.ldd_bfs import partition_bfs
from repro.core.ldd_sequential import partition_sequential
from repro.graphs.generators import grid_2d, path_graph
from repro.pram.cost_model import brent_time

from common import Table

PROCESSORS = (1, 4, 16, 64, 256, 1024)


def test_brent_scaling_curves():
    table = Table(
        "SCALE: Brent simulated time T_p = work/p + depth (beta=0.1)",
        ["graph", "method", "work", "depth"] + [f"T_{p}" for p in PROCESSORS],
    )
    speedup_floor = {}
    for name, graph in [
        ("grid 60x60", grid_2d(60, 60)),
        ("path 4000", path_graph(4000)),
    ]:
        d_mpx, t_mpx = partition_bfs(graph, 0.1, seed=0)
        d_seq, t_seq = partition_sequential(graph, 0.1, seed=0)
        for method, work, depth in [
            ("mpx", t_mpx.extra["bfs_work"], t_mpx.depth),
            ("sequential", t_seq.work, t_seq.sequential_chain * 1),
        ]:
            times = [brent_time(work, depth, p) for p in PROCESSORS]
            table.add(name, method, work, depth, *times)
            if method == "mpx":
                speedup_floor[name] = times[0] / times[-1]
    table.show()
    # MPX must exhibit real simulated speedup (depth << work).
    for name, speedup in speedup_floor.items():
        assert speedup > 3.0, name


def test_saturation_point_grows_with_m():
    """work/depth — the processor count where speedup saturates — must grow
    with problem size at fixed β (more parallelism available)."""
    table = Table(
        "SCALE-saturation: work/depth vs grid side (beta=0.2)",
        ["side", "work", "depth", "work/depth"],
    )
    saturations = []
    for side in (20, 40, 80, 160):
        graph = grid_2d(side, side)
        _, trace = partition_bfs(graph, 0.2, seed=1)
        work = trace.extra["bfs_work"]
        sat = work / max(trace.depth, 1)
        saturations.append(sat)
        table.add(side, work, trace.depth, sat)
    table.show()
    assert saturations[-1] > saturations[0] * 4


def test_brent_computation_throughput(benchmark):
    benchmark(lambda: [brent_time(10**6, 500, p) for p in PROCESSORS])
