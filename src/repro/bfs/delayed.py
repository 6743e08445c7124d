"""Delayed-start multi-source BFS with tie-break keys — Algorithm 1's engine.

This implements step 3 of the paper's Algorithm 1: *"Perform parallel BFS,
with vertex u starting when the vertex at the head of the queue has distance
more than δ_max − δ_u"*, together with the Section 5 observation that makes
it an integer BFS:

    In an unweighted graph every path length is an integer, so the shifted
    distance ``start_u + dist(u, v)`` (``start_u = δ_max − δ_u``) splits into
    an integer part ``⌊start_u⌋ + dist(u, v)`` and a fractional part
    ``frac(start_u)`` that only matters for comparing equal integer parts.

The engine therefore runs synchronous integer rounds.  In round ``t``:

1. every still-unowned vertex ``u`` with ``⌊start_u⌋ = t`` *wakes up* and bids
   for itself;
2. every vertex claimed in round ``t − 1`` bids for its unowned neighbours on
   behalf of its own center;
3. all bids on a vertex are resolved by the smallest ``(tie_key of center,
   center id)`` pair — the fractional-part comparison, with the paper's
   lexicographic rule covering exact key ties (a measure-zero event for
   exponential shifts, but routine for the §5 permutation variant).

Given the same shifts, the result provably equals the exact shifted-shortest-
path assignment computed by :mod:`repro.bfs.dijkstra` — a property the test
suite checks exhaustively.

Two interchangeable hot-path engines implement the per-round gather/resolve
phases: numpy and the compiled :mod:`repro.bfs._kernel` extension, selected
via ``kernel=`` (see :mod:`repro.bfs.kernels`).  They are bit-identical —
same winners in the same order every round — so the switch is purely a
performance knob; the differential conformance suite pins the equivalence.

The numpy engine turns step 3 into one integer sort per round.  Since only
the *order* of the tie keys matters (Section 5), each vertex gets one
priority once per BFS — its rank in ascending ``(tie_key, id)`` order — and
a bid of center ``c`` for vertex ``v`` is the packed key
``v · n + prio[c]``.  Sorting a round's bids puts each vertex's winner first
in its run, and ``by_prio`` (the inverse of ``prio``) maps the winning
priority back to a center id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.telemetry as telemetry
from repro.errors import ParameterError
from repro.graphs.build import check_packable
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph
from repro.bfs.frontier import frontier_arc_ids
from repro.bfs.kernels import KernelScratch, native_module, resolve_kernel

__all__ = ["DelayedBFSResult", "delayed_multisource_bfs", "resolve_claims"]


@dataclass(frozen=True, eq=False)
class DelayedBFSResult:
    """Complete trace of a delayed-start shifted BFS.

    Attributes
    ----------
    center:
        Owner of each vertex — the center whose shifted distance is minimal.
        Vertices the BFS never claimed hold ``-1``; that happens only when
        ``center_mask`` excludes their would-be center or ``max_round``
        cuts the growth short.  With neither restriction every vertex is
        owned on return (each vertex eventually wakes for itself).
    round_claimed:
        Integer round in which each vertex was claimed (``-1`` when
        unclaimed); equals ``⌊start(center)⌋ + hops``.
    hops:
        Hop distance from each vertex to its center, along a path contained
        in the piece (Lemma 4.1); ``-1`` for unclaimed vertices.
    num_rounds:
        Wall-clock parallel rounds: ``last claiming round − first waking
        round + 1``, or 0 when no round ran at all (``max_round`` below the
        first wake).  This is the BFS depth ∆ of Theorem 1.2.
    active_rounds:
        Rounds that processed at least one bid (jumped-over idle rounds are
        free in a real scheduler and excluded here).
    work:
        Total arcs scanned across all propagation rounds plus one unit per
        wake-up — the Theorem 1.2 work measure.
    frontier_sizes:
        Number of vertices claimed in each active round.
    phase_seconds:
        Measured wall time per phase (``setup`` — validation, the wake
        schedule and the priorities, once per BFS; ``gather`` — wake-up
        plus frontier arc expansion; ``resolve`` — claim resolution; the
        last two accumulated over all rounds).  Populated only when
        :func:`repro.telemetry.enabled` is true at call time; empty
        otherwise, so the disabled hot loop takes no clock readings.
    """

    center: np.ndarray
    round_claimed: np.ndarray
    hops: np.ndarray
    num_rounds: int
    active_rounds: int
    work: int
    frontier_sizes: list[int]
    phase_seconds: dict[str, float] = field(default_factory=dict)


def resolve_claims(
    cand_vertex: np.ndarray,
    cand_center: np.ndarray,
    tie_key: np.ndarray,
    *,
    num_vertices: int | None = None,
    kernel: str | None = None,
    scratch: KernelScratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve concurrent bids: per vertex, minimum ``(key, center)`` wins.

    Returns (winning vertices, their centers), each vertex appearing once in
    ascending order.  This is the CRCW priority-write step of the round.

    ``kernel`` picks the engine (``None`` reads the ambient
    :func:`repro.bfs.kernels.use_kernel` context, default ``"auto"``).  The
    ``"native"`` engine is a single fused C pass, with an optional reusable
    :class:`KernelScratch` (pristine on entry and on return).  The
    ``"python"`` engine applies the BFS's packed rule to the ``k`` distinct
    candidate centers: rank them by ``(tie_key, id)``, bid
    ``vertex · k + rank``, and sort once.

    Both engines raise :class:`~repro.errors.ParameterError` on unequal or
    non-integer candidate arrays, a vertex outside ``[0, num_vertices)``
    (capped by the scratch size; unbounded when both are absent), a center
    outside ``tie_key``, or a non-finite key.
    """
    cand_vertex = np.asarray(cand_vertex)
    cand_center = np.asarray(cand_center)
    tie_key = np.ascontiguousarray(tie_key, dtype=np.float64)
    if not (
        cand_vertex.ndim == 1
        and cand_vertex.shape == cand_center.shape
        and np.issubdtype(cand_vertex.dtype, np.integer)
        and np.issubdtype(cand_center.dtype, np.integer)
    ):
        raise ParameterError(
            "cand_vertex and cand_center must be integer arrays of one length"
        )
    if scratch is not None and (
        num_vertices is None or num_vertices > scratch.num_vertices
    ):
        num_vertices = scratch.num_vertices
    if cand_vertex.size:
        if cand_vertex.min() < 0 or (
            num_vertices is not None and cand_vertex.max() >= num_vertices
        ):
            raise ParameterError("candidate vertex id out of range")
        if cand_center.min() < 0 or cand_center.max() >= tie_key.shape[0]:
            raise ParameterError("candidate center id out of range")
    if not np.isfinite(tie_key).all():
        raise ParameterError("tie keys must be finite")
    if resolve_kernel(kernel) == "native":
        if scratch is None:
            if num_vertices is None:
                num_vertices = int(cand_vertex.max(initial=-1)) + 1
            scratch = KernelScratch(num_vertices)
        count = native_module().resolve_claims(
            np.ascontiguousarray(cand_vertex, dtype=np.int64),
            np.ascontiguousarray(cand_center, dtype=np.int64),
            tie_key,
            scratch.best_key,
            scratch.best_center,
            scratch.touched,
            scratch.winners,
            scratch.owners,
        )
        # astype copies, detaching the results from the reusable scratch.
        return (
            scratch.winners[:count].astype(cand_vertex.dtype),
            scratch.owners[:count].astype(cand_center.dtype),
        )
    centers, slot = np.unique(cand_center, return_inverse=True)
    k = int(centers.size)
    check_packable(max(int(cand_vertex.max(initial=-1)) + 1, k))
    by_rank, rank = _priorities(tie_key[centers])
    winners, win_rank = _first_per_vertex(
        cand_vertex.astype(np.int64) * k + rank[slot], k
    )
    return (
        winners.astype(cand_vertex.dtype),
        centers[by_rank[win_rank]].astype(cand_center.dtype),
    )


def _first_per_vertex(
    bids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort packed ``vertex · k + rank`` bids in place and keep each
    vertex's smallest: (ascending vertices, their winning ranks)."""
    bids.sort()
    vertex = bids // k
    first = np.empty(bids.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(vertex[1:], vertex[:-1], out=first[1:])
    winners = vertex[first]
    return winners, bids[first] - winners * k


def _priorities(tie_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(by_prio, prio)``: the vertices in ascending ``(tie_key, id)``
    order, and each vertex's position in it.

    An unstable sort by key is exact unless two keys are equal (``-0.0``
    and ``0.0``, shared ranks, copied draws); then the ids are ordered
    within ties by one sort of packed ``dense_rank · n + id`` keys.
    """
    n = tie_key.shape[0]
    by_prio = np.argsort(tie_key)
    ordered = tie_key[by_prio]
    new_key = ordered[1:] != ordered[:-1]
    if not new_key.all():
        dense_rank = np.concatenate(([0], np.cumsum(new_key)))
        by_prio = np.sort(dense_rank * n + by_prio) % n
    prio = np.empty(n, dtype=np.int64)
    prio[by_prio] = np.arange(n)
    return by_prio, prio


def delayed_multisource_bfs(
    graph: CSRGraph,
    start_time: np.ndarray,
    *,
    tie_key: np.ndarray | None = None,
    center_mask: np.ndarray | None = None,
    max_round: int | None = None,
    kernel: str | None = None,
) -> DelayedBFSResult:
    """Run the shifted BFS.

    Parameters
    ----------
    graph:
        Undirected unweighted CSR graph.
    start_time:
        Non-negative float per vertex: the time at which the vertex wakes and
        starts claiming (``δ_max − δ_u`` in the paper).  Integer parts
        schedule rounds, fractional parts break ties unless ``tie_key``
        overrides them.
    tie_key:
        Optional explicit per-vertex tie-break keys (the §5 permutation
        variant passes ranks here).  Lower key wins; exact ties fall back to
        the smaller center id, the paper's lexicographic rule.
    center_mask:
        Optional boolean mask restricting which vertices may wake as centers.
        The paper's algorithm lets every vertex be a potential center (all
        True, the default); the Blelloch-et-al baseline grows balls from a
        sampled batch only.  With a restricted mask some vertices may remain
        unowned (``center == −1``).
    max_round:
        Optional inclusive cap on the round counter; claims that would occur
        in later rounds are abandoned.  Used for radius-capped ball growing.
    kernel:
        Hot-path engine: ``"python"`` (numpy), ``"native"`` (compiled
        extension), ``"auto"`` (native when built, else numpy), or ``None``
        to read the ambient :func:`repro.bfs.kernels.use_kernel` context.
        Both engines are bit-identical; ``"native"`` raises
        :class:`~repro.errors.ParameterError` when the extension is absent.
    """
    # Phase timing is decided once per BFS, not per round: when telemetry
    # is off the loop takes zero clock readings.
    timed = telemetry.enabled()
    setup_t0 = time.perf_counter() if timed else 0.0
    mode = resolve_kernel(kernel)
    n = graph.num_vertices
    start_time = np.ascontiguousarray(start_time, dtype=np.float64)
    if start_time.shape[0] != n:
        raise ParameterError("start_time must have one entry per vertex")
    # NaN slips past a plain `min() < 0` check (NaN comparisons are False)
    # and would poison round scheduling and claim resolution downstream.
    if n and not (np.isfinite(start_time).all() and start_time.min() >= 0):
        raise ParameterError("start times must be finite and non-negative")
    floor_start = np.floor(start_time).astype(np.int64)
    if tie_key is None:
        tie_key = start_time - floor_start
    else:
        tie_key = np.ascontiguousarray(tie_key, dtype=np.float64)
        if tie_key.shape[0] != n:
            raise ParameterError("tie_key must have one entry per vertex")
        if n and not np.isfinite(tie_key).all():
            raise ParameterError("tie keys must be finite")
    if center_mask is not None:
        center_mask = np.asarray(center_mask, dtype=bool)
        if center_mask.shape[0] != n:
            raise ParameterError("center_mask must have one entry per vertex")
        if not center_mask.any():
            raise ParameterError("center_mask must allow at least one center")

    center = np.full(n, -1, dtype=np.int64)
    round_claimed = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return DelayedBFSResult(
            center=center,
            round_claimed=round_claimed,
            hops=np.zeros(0, dtype=np.int64),
            num_rounds=0,
            active_rounds=0,
            work=0,
            frontier_sizes=[],
        )

    # Wake schedule: the eligible vertices grouped by waking round; group
    # g is wake_order[bounds[g]:bounds[g + 1]] and wakes in round
    # group_round[g].  Order within a round cannot change the winners, so
    # any grouping sort will do: a stable argsort of the rounds relative
    # to the first, cast to the narrowest unsigned dtype holding their
    # span, is a radix sort for spans below 2**16.
    eligible = None if center_mask is None else np.flatnonzero(center_mask)
    wake = floor_start if eligible is None else floor_start[eligible]
    first_round = int(wake.min())
    span = int(wake.max()) - first_round
    narrow = next(
        dtype for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
        if span <= np.iinfo(dtype).max
    )
    wake = (wake - first_round).astype(narrow)
    wake_order = np.argsort(wake, kind="stable")
    wake = wake[wake_order]
    if eligible is not None:
        wake_order = eligible[wake_order]
    wake_order = wake_order.astype(VERTEX_DTYPE, copy=False)
    starts = np.concatenate(([0], np.flatnonzero(wake[1:] != wake[:-1]) + 1))
    group_round = first_round + wake[starts].astype(np.int64)
    bounds = np.append(starts, wake.shape[0])
    group = 0

    if mode == "native":
        native = native_module()
        scratch = KernelScratch(n)
    else:
        native = None
        check_packable(n)
        by_prio, prio = _priorities(tie_key)
        unowned = np.ones(n, dtype=bool)
        frontier_prio = np.zeros(0, dtype=np.int64)
    frontier = np.zeros(0, dtype=VERTEX_DTYPE)
    frontier_sizes: list[int] = []
    work = 0
    t = first_round
    last_round = t
    active = 0
    limit = np.inf if max_round is None else int(max_round)
    gather_s = resolve_s = 0.0
    if timed:
        setup_s = time.perf_counter() - setup_t0

    while t <= limit:
        if timed:
            phase_t0 = time.perf_counter()
        # ---- gather wake-up bids for round t --------------------------------
        if group < group_round.shape[0] and group_round[group] == t:
            waking = wake_order[bounds[group] : bounds[group + 1]]
            group += 1
        else:
            waking = wake_order[:0]

        if native is not None:
            # Fused gather + CRCW bid pass: wake-ups, frontier arc expansion,
            # and the priority write happen in one C sweep over the scratch.
            n_touched, arcs, wake_bids = native.scatter_bids(
                graph.indptr,
                graph.indices,
                frontier,
                waking,
                center,
                tie_key,
                scratch.best_key,
                scratch.best_center,
                scratch.touched,
            )
            work += int(wake_bids) + int(arcs)
            if timed:
                phase_t1 = time.perf_counter()
                gather_s += phase_t1 - phase_t0
            if n_touched:
                claimed_count = native.commit_winners(
                    scratch.touched,
                    n_touched,
                    scratch.best_key,
                    scratch.best_center,
                    center,
                    round_claimed,
                    t,
                    scratch.winners,
                )
                if timed:
                    resolve_s += time.perf_counter() - phase_t1
                # A view is safe: the next round reads it in scatter_bids
                # before commit_winners overwrites the buffer.
                frontier = scratch.winners[:claimed_count]
            else:
                claimed_count = 0
        else:
            waking = waking[unowned[waking]]
            work += int(waking.size)
            bids = waking * n + prio[waking]

            # ---- gather propagation bids from the previous winners ----------
            if frontier.size:
                # Each arc bids with its source's winning priority.
                arcs, counts = frontier_arc_ids(graph, frontier)
                work += int(arcs.size)
                dst = graph.indices[arcs]
                prop = dst * n
                prop += np.repeat(frontier_prio, counts)
                prop = prop[unowned[dst]]
                bids = np.concatenate([bids, prop]) if bids.size else prop
            if timed:
                phase_t1 = time.perf_counter()
                gather_s += phase_t1 - phase_t0

            frontier, frontier_prio = _first_per_vertex(bids, n)
            center[frontier] = by_prio[frontier_prio]
            round_claimed[frontier] = t
            unowned[frontier] = False
            claimed_count = int(frontier.size)
            if timed:
                resolve_s += time.perf_counter() - phase_t1

        if claimed_count:
            frontier_sizes.append(int(claimed_count))
            active += 1
            last_round = t
            t += 1
        else:
            frontier = np.zeros(0, dtype=VERTEX_DTYPE)
            # Fast-forward to the round of the next still-unclaimed waker,
            # found in one vectorised pass over the rest of the schedule.
            pending = np.flatnonzero(center[wake_order[bounds[group] :]] == -1)
            if pending.size == 0:
                break
            at = int(bounds[group] + pending[0])
            group = int(np.searchsorted(bounds, at, side="right")) - 1
            t = int(group_round[group])

    owned = center != -1
    hops = np.full(n, -1, dtype=np.int64)
    hops[owned] = round_claimed[owned] - floor_start[center[owned]]
    return DelayedBFSResult(
        center=center,
        round_claimed=round_claimed,
        hops=hops,
        num_rounds=(last_round - first_round + 1) if active else 0,
        active_rounds=active,
        work=work,
        frontier_sizes=frontier_sizes,
        phase_seconds=(
            {"setup": setup_s, "gather": gather_s, "resolve": resolve_s}
            if timed else {}
        ),
    )
