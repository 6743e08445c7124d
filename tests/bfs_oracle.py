"""Reference delayed-start BFS: the numpy round loop the engine replaced.

This is the library's former numpy engine for
:func:`repro.bfs.delayed.delayed_multisource_bfs`, kept verbatim as a test
oracle: a stable wake schedule, ``gather_frontier_arcs`` expansion with a
``center[arc_src]`` owner gather, and a ``lexsort`` semisort by
``(vertex, tie_key[center], center)`` that keeps the first bid per vertex.
``tests/test_bfs_delayed.py`` checks that the packed-key engine returns
the identical :class:`~repro.bfs.delayed.DelayedBFSResult` on both kernels.
Inputs are assumed valid (the engine's front door checks them).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.delayed import DelayedBFSResult
from repro.bfs.frontier import gather_frontier_arcs
from repro.graphs.csr import VERTEX_DTYPE


def lexsort_resolve(cand_vertex, cand_center, tie_key):
    """Per vertex keep the bid with the smallest ``(key, center)``."""
    order = np.lexsort((cand_center, tie_key[cand_center], cand_vertex))
    v_sorted = cand_vertex[order]
    c_sorted = cand_center[order]
    first = np.ones(v_sorted.shape[0], dtype=bool)
    first[1:] = v_sorted[1:] != v_sorted[:-1]
    return v_sorted[first], c_sorted[first]


def delayed_bfs_oracle(
    graph, start_time, *, tie_key=None, center_mask=None, max_round=None
):
    """The shifted BFS, one ``lexsort`` resolve per round."""
    n = graph.num_vertices
    start_time = np.ascontiguousarray(start_time, dtype=np.float64)
    floor_start = np.floor(start_time).astype(np.int64)
    if tie_key is None:
        tie_key = start_time - floor_start
    else:
        tie_key = np.ascontiguousarray(tie_key, dtype=np.float64)

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

    eligible = (
        np.arange(n, dtype=VERTEX_DTYPE)
        if center_mask is None
        else np.flatnonzero(center_mask).astype(VERTEX_DTYPE)
    )
    wake_order = eligible[np.argsort(floor_start[eligible], kind="stable")]
    wake_rounds_sorted = floor_start[wake_order]
    n_wake = int(wake_order.shape[0])
    ptr = 0

    frontier = np.zeros(0, dtype=VERTEX_DTYPE)
    frontier_sizes: list[int] = []
    work = 0
    t = int(wake_rounds_sorted[0])
    first_round = t
    last_round = t
    active = 0
    limit = np.inf if max_round is None else int(max_round)

    while t <= limit:
        wake_hi = int(np.searchsorted(wake_rounds_sorted, t, side="right"))
        waking = wake_order[ptr:wake_hi]
        ptr = wake_hi
        waking = waking[center[waking] == -1]
        work += int(waking.size)

        if frontier.size:
            arc_src, arc_dst = gather_frontier_arcs(graph, frontier)
            work += int(arc_src.size)
            open_mask = center[arc_dst] == -1
            prop_v = arc_dst[open_mask]
            prop_c = center[arc_src[open_mask]]
        else:
            prop_v = np.zeros(0, dtype=VERTEX_DTYPE)
            prop_c = np.zeros(0, dtype=np.int64)

        cand_v = np.concatenate([waking, prop_v])
        cand_c = np.concatenate([waking.astype(np.int64), prop_c])

        claimed_count = 0
        if cand_v.size:
            winners, owners = lexsort_resolve(cand_v, cand_c, tie_key)
            center[winners] = owners
            round_claimed[winners] = t
            frontier = winners.astype(VERTEX_DTYPE)
            claimed_count = int(winners.size)

        if claimed_count:
            frontier_sizes.append(int(claimed_count))
            active += 1
            last_round = t
            t += 1
        else:
            frontier = np.zeros(0, dtype=VERTEX_DTYPE)
            rest = wake_order[ptr:]
            rest = rest[center[rest] == -1]
            if rest.size == 0:
                break
            wake_order = rest
            wake_rounds_sorted = floor_start[rest]
            n_wake = int(rest.size)
            ptr = 0
            t = int(wake_rounds_sorted[0])

        if frontier.size == 0 and ptr >= n_wake:
            break

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
    )
