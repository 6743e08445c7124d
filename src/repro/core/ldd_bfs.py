"""Algorithm 1 — the parallel partition via exponentially shifted BFS.

This is the paper's headline algorithm:

1. each vertex draws ``δ_u ~ Exp(β)`` *(parallel: work n, depth 1)*;
2. ``δ_max`` is a max-reduction *(work n, depth log n)*;
3. one delayed-start BFS assigns every vertex to the center minimising the
   shifted distance *(work O(m), depth ∆ rounds with ∆ ≤ δ_max + max hop)*;
4. the assignment is read off per vertex *(work n, depth 1)*.

The modelled PRAM depth charged per BFS round is ``O(log n)`` — the round's
claim resolution is a semisort/priority-write, which [18]'s randomized
parallel BFS performs in logarithmic depth.  Theorem 1.2's
``O(log² n / β)``-depth claim is exactly ``∆ · O(log n)`` with
``∆ = O(log n / β)`` w.h.p., and those are the numbers the trace records.
"""

from __future__ import annotations

import time

import repro.telemetry as telemetry
from repro.bfs.delayed import delayed_multisource_bfs
from repro.bfs.kernels import resolve_kernel
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.core.decomposition import Decomposition, PartitionTrace
from repro.core.registry import KERNEL_OPTION, OptionSpec, register_method
from repro.core.shifts import ShiftAssignment, sample_shifts
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.pram.cost_model import WorkDepthCounter
from repro.pram.primitives import log2_ceil
from repro.rng.seeding import SeedLike

__all__ = ["partition_bfs", "partition_bfs_with_shifts"]

_TIE_BREAKS = ("fractional", "permutation", "quantile")


@register_method(
    "bfs",
    kind="unweighted",
    description="Algorithm 1 - exponentially shifted BFS (the paper's algorithm)",
    options=(
        OptionSpec(
            "tie_break",
            "str",
            "fractional",
            "round tie resolution: shift fractions, an explicit random "
            "permutation, or permutation-position quantile shifts",
            choices=_TIE_BREAKS,
        ),
        KERNEL_OPTION,
    ),
)
def partition_bfs(
    graph: CSRGraph,
    beta: float,
    *,
    seed: SeedLike = None,
    tie_break: str = "fractional",
) -> tuple[Decomposition, PartitionTrace]:
    """Run Algorithm 1 on ``graph`` with parameter ``β``.

    ``tie_break`` selects the Section 5 variant: ``"fractional"`` (the shift
    fractions, default) or ``"permutation"`` (an explicit random permutation).

    Returns the decomposition together with a :class:`PartitionTrace`
    recording the work/depth/round counts Theorem 1.2 bounds.
    """
    if graph.num_vertices == 0:
        raise GraphError("cannot partition the empty graph")
    timed = telemetry.enabled()
    t0 = time.perf_counter() if timed else 0.0
    with _trace.span(
        "bfs.shifts", vertices=graph.num_vertices, beta=beta
    ):
        shifts = sample_shifts(
            graph.num_vertices, beta, seed=seed, mode=tie_break
        )
    shifts_s = (time.perf_counter() - t0) if timed else 0.0
    decomposition, trace = partition_bfs_with_shifts(graph, shifts)
    if timed:
        _metrics.observe(
            "repro_bfs_phase_seconds", shifts_s, phase="shifts"
        )
        phases = dict(trace.extra.get("phases", ()))
        phases["shifts"] = shifts_s
        trace.extra["phases"] = phases
    return decomposition, trace


def partition_bfs_with_shifts(
    graph: CSRGraph,
    shifts: ShiftAssignment,
) -> tuple[Decomposition, PartitionTrace]:
    """Run Algorithm 1 with externally supplied shifts.

    Separated from the sampling so that the exact (Dijkstra) implementation
    and this one can be run on *identical* randomness — the equivalence the
    test suite asserts — and so ablations can substitute other shift
    distributions.
    """
    if shifts.num_vertices != graph.num_vertices:
        raise GraphError("shift vector length must equal the vertex count")
    t0 = time.perf_counter()
    n = graph.num_vertices
    counter = WorkDepthCounter()
    # Steps 1-2 of Algorithm 1: per-vertex sampling and the max-reduction.
    counter.charge(n, 1, label="sample-shifts")
    counter.charge(n, log2_ceil(n), label="delta-max-reduction")

    with _trace.span("bfs.expand", vertices=n) as expand_span:
        result = delayed_multisource_bfs(
            graph,
            shifts.start_time,
            tie_key=shifts.tie_key,
        )
        expand_span.annotate(
            rounds=result.num_rounds,
            active_rounds=result.active_rounds,
            work=result.work,
        )
    # Step 3: each active BFS round is a gather + semisort resolution,
    # O(log n) modelled depth per round ([18]); idle rounds are free.
    counter.charge(result.work, result.active_rounds * log2_ceil(n), label="bfs")
    # Step 4: reading the assignment is one parallel map.
    counter.charge(n, 1, label="assign")

    decomposition = Decomposition(
        graph=graph, center=result.center, hops=result.hops
    )
    extra_phases = {}
    if result.phase_seconds:
        # Deep instrumentation was on: surface the measured per-phase
        # times as live histograms and carry them in the trace so the
        # serving layer can observe them in its own process too.  The
        # paper's quantities — rounds, work, depth — are NOT re-observed
        # here: they already live on every PartitionTrace, and the serve
        # layer folds them into per-method histograms from the trace
        # (DecompositionServer._observe_trace), keeping this hot path at
        # three histogram updates.
        extra_phases = {
            "phases": {
                phase: result.phase_seconds.get(phase, 0.0)
                for phase in ("setup", "gather", "resolve")
            }
        }
        for phase, seconds in extra_phases["phases"].items():
            _metrics.observe(
                "repro_bfs_phase_seconds", seconds, phase=phase
            )
    trace = PartitionTrace(
        method=f"bfs-{shifts.mode}",
        beta=shifts.beta,
        rounds=result.num_rounds,
        work=counter.work,
        depth=counter.depth,
        delta_max=shifts.delta_max,
        wall_time_s=time.perf_counter() - t0,
        frontier_sizes=tuple(result.frontier_sizes),
        extra={
            "active_rounds": result.active_rounds,
            "bfs_work": result.work,
            "kernel": resolve_kernel(None),
            "breakdown": {
                k: (v.work, v.depth) for k, v in counter.breakdown.items()
            },
            **extra_phases,
        },
    )
    return decomposition, trace


# Section 5 variants are Algorithm 1 with the tie-break pinned; they are
# published as standalone method names so sweeps can select them uniformly.
register_method(
    "permutation",
    kind="unweighted",
    description="Section 5 variant - random-permutation tie-breaks",
    options=(KERNEL_OPTION,),
    pinned={"tie_break": "permutation"},
    func=partition_bfs,
)
register_method(
    "quantile",
    kind="unweighted",
    description="Section 5 variant - shifts from permutation positions",
    options=(KERNEL_OPTION,),
    pinned={"tie_break": "quantile"},
    func=partition_bfs,
)
