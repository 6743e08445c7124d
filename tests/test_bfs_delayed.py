"""Unit tests for the delayed-start shifted BFS — the paper's key primitive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.bfs.delayed import delayed_multisource_bfs, resolve_claims
from repro.bfs.kernels import KernelScratch, native_available
from repro.bfs.dijkstra import shifted_integer_dijkstra
from repro.graphs.build import from_edges
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
)

from tests.bfs_oracle import delayed_bfs_oracle
from tests.conftest import mixed_graphs

KERNELS = ["python"] + (["native"] if native_available() else [])


class TestResolveClaims:
    def test_min_key_wins(self):
        key = np.asarray([0.9, 0.1, 0.5])
        cand_v = np.asarray([7, 7, 7])
        cand_c = np.asarray([0, 1, 2])
        winners, owners = resolve_claims(cand_v, cand_c, key)
        np.testing.assert_array_equal(winners, [7])
        np.testing.assert_array_equal(owners, [1])

    def test_exact_tie_falls_back_to_center_id(self):
        key = np.asarray([0.5, 0.5])
        winners, owners = resolve_claims(
            np.asarray([3, 3]), np.asarray([1, 0]), key
        )
        np.testing.assert_array_equal(owners, [0])

    def test_multiple_vertices(self):
        key = np.asarray([0.3, 0.2])
        cand_v = np.asarray([0, 1, 1])
        cand_c = np.asarray([0, 0, 1])
        winners, owners = resolve_claims(cand_v, cand_c, key)
        np.testing.assert_array_equal(winners, [0, 1])
        np.testing.assert_array_equal(owners, [0, 1])

    def test_non_finite_inputs_rejected(self):
        """NaN start times / tie keys must fail fast: NaN slips past
        ordinary `< 0` guards and would diverge the two resolve paths."""
        g = path_graph(4)
        bad_start = np.asarray([0.0, np.nan, 0.5, 1.0])
        with pytest.raises(ParameterError, match="finite"):
            delayed_multisource_bfs(g, bad_start)
        with pytest.raises(ParameterError, match="finite"):
            delayed_multisource_bfs(g, np.full(4, np.inf))
        ok_start = np.asarray([0.0, 0.25, 0.5, 1.0])
        with pytest.raises(ParameterError, match="finite"):
            delayed_multisource_bfs(
                g, ok_start, tie_key=np.asarray([0.1, np.nan, 0.2, 0.3])
            )


@pytest.mark.parametrize("kernel", KERNELS)
class TestResolveClaimsFrontDoor:
    """Bad input fails the same typed way on every engine."""

    def test_vertex_beyond_num_vertices(self, kernel):
        with pytest.raises(ParameterError, match="vertex id out of range"):
            resolve_claims(
                [0, 99], [0, 0], np.zeros(4), num_vertices=4, kernel=kernel
            )

    def test_negative_vertex(self, kernel):
        with pytest.raises(ParameterError, match="vertex id out of range"):
            resolve_claims([-1, 2], [0, 0], np.zeros(4), kernel=kernel)

    @pytest.mark.parametrize("bad_center", [4, -1])
    def test_center_outside_tie_key(self, kernel, bad_center):
        with pytest.raises(ParameterError, match="center id out of range"):
            resolve_claims([0, 1], [0, bad_center], np.zeros(4), kernel=kernel)

    def test_mismatched_lengths(self, kernel):
        with pytest.raises(ParameterError, match="one length"):
            resolve_claims([0, 1], [0, 0, 1], np.zeros(4), kernel=kernel)

    def test_non_integer_ids(self, kernel):
        with pytest.raises(ParameterError, match="integer"):
            resolve_claims([0.0, 1.0], [0, 0], np.zeros(4), kernel=kernel)

    def test_non_finite_key(self, kernel):
        with pytest.raises(ParameterError, match="finite"):
            resolve_claims(
                [0, 1], [0, 1], np.asarray([0.0, np.nan]), kernel=kernel
            )

    @pytest.mark.parametrize("num_vertices", [None, 8])
    def test_vertex_beyond_scratch(self, kernel, num_vertices):
        with pytest.raises(ParameterError, match="vertex id out of range"):
            resolve_claims(
                [0, 4], [0, 0], np.zeros(8), num_vertices=num_vertices,
                kernel=kernel, scratch=KernelScratch(4),
            )

    def test_no_candidates(self, kernel):
        winners, owners = resolve_claims(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(4), num_vertices=4, kernel=kernel,
        )
        assert winners.size == 0 and owners.size == 0


#: Tie keys with many exact ties, ``-0.0`` beside ``0.0`` included.
_COARSE_KEYS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    data=st.data(),
    kernel=st.sampled_from(KERNELS),
)
def test_resolve_claims_is_the_per_vertex_minimum(n, data, kernel):
    """Each vertex's winner is its bid with the smallest
    ``(tie_key[center], center)``, vertices ascending."""
    key = np.asarray(
        data.draw(st.lists(_COARSE_KEYS, min_size=n, max_size=n)),
        dtype=np.float64,
    )
    ids = st.integers(0, n - 1)
    bids = data.draw(st.lists(st.tuples(ids, ids), max_size=4 * n))
    cand_v = np.asarray([v for v, _ in bids], dtype=np.int64)
    cand_c = np.asarray([c for _, c in bids], dtype=np.int64)
    best: dict[int, tuple[float, int]] = {}
    for v, c in bids:
        best[v] = min(best.get(v, (np.inf, n)), (float(key[c]), c))
    winners, owners = resolve_claims(
        cand_v, cand_c, key, num_vertices=n, kernel=kernel
    )
    np.testing.assert_array_equal(winners, sorted(best))
    np.testing.assert_array_equal(owners, [best[v][1] for v in sorted(best)])


@st.composite
def _bfs_inputs(draw):
    """A graph (``n`` down to 1, isolated vertices included) and BFS
    arguments whose tie keys are often exactly equal."""
    graph = draw(mixed_graphs())
    n = graph.num_vertices
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    keys = draw(
        st.sampled_from(["random", "integer", "coarse", "signed-zero"])
    )
    span = draw(st.integers(1, 12))
    tie_key = None
    if keys == "random":
        start = rng.random(n) * span
    elif keys == "integer":  # every fractional key is 0.0: all tie
        start = rng.integers(0, span, n).astype(np.float64)
    elif keys == "coarse":
        start = rng.integers(0, 4 * span, n) / 4.0
    else:
        start = rng.random(n) * span
        tie_key = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    mask = None
    if draw(st.booleans()):
        mask = rng.random(n) < draw(st.floats(0.05, 0.9))
        mask[rng.integers(n)] = True
    max_round = None
    if draw(st.booleans()):
        # From below the first wake to past the last claim.
        max_round = int(np.floor(start.min())) + draw(st.integers(-2, 12))
    return graph, start, dict(tie_key=tie_key, center_mask=mask,
                              max_round=max_round)


@settings(max_examples=150, deadline=None)
@given(case=_bfs_inputs(), kernel=st.sampled_from(KERNELS))
def test_bfs_matches_the_lexsort_oracle(case, kernel):
    """The packed-key engine returns the same result, field for field, as
    the per-round ``lexsort`` loop it replaced."""
    graph, start, options = case
    _assert_matches_oracle(graph, start, kernel, **options)


@pytest.mark.parametrize("kernel", KERNELS)
def test_many_exact_ties_match_the_lexsort_oracle(kernel):
    """Hundreds of centers per key value: the unstable key sort must still
    order tied centers by id (small inputs rarely expose that order)."""
    graph = grid_2d(40, 40)
    rng = np.random.default_rng(5)
    start = rng.integers(0, 24, graph.num_vertices) / 4.0
    _assert_matches_oracle(graph, start, kernel)
    _assert_matches_oracle(graph, start, kernel, tie_key=start % 0.5)


def _assert_matches_oracle(graph, start, kernel, **options):
    got = delayed_multisource_bfs(graph, start, kernel=kernel, **options)
    want = delayed_bfs_oracle(graph, start, **options)
    for name in ("center", "round_claimed", "hops"):
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), name
        )
    for name in (
        "num_rounds", "active_rounds", "work", "frontier_sizes"
    ):
        assert getattr(got, name) == getattr(want, name), name


class TestDelayedBFSBasics:
    def test_single_early_riser_claims_everything(self):
        g = path_graph(6)
        start = np.asarray([0.0, 9.0, 9.0, 9.0, 9.0, 9.0])
        res = delayed_multisource_bfs(g, start)
        np.testing.assert_array_equal(res.center, np.zeros(6, dtype=np.int64))
        np.testing.assert_array_equal(res.hops, np.arange(6))

    def test_two_centers_split_path(self):
        g = path_graph(7)
        start = np.full(7, 99.0)
        start[0] = 0.25
        start[6] = 0.75
        res = delayed_multisource_bfs(g, start)
        # Vertex 3 is tied at round 3; center 0 has smaller fractional key.
        np.testing.assert_array_equal(res.center[:4], [0, 0, 0, 0])
        np.testing.assert_array_equal(res.center[4:], [6, 6, 6])

    def test_everyone_wakes_simultaneously(self):
        g = grid_2d(4, 4)
        res = delayed_multisource_bfs(g, np.zeros(16))
        # All vertices claim themselves in round 0: singleton pieces.
        np.testing.assert_array_equal(res.center, np.arange(16))
        assert res.num_rounds == 1

    def test_round_claimed_equals_floor_start_plus_hops(self):
        g = grid_2d(5, 5)
        rng = np.random.default_rng(0)
        start = rng.random(25) * 7
        res = delayed_multisource_bfs(g, start)
        floor = np.floor(start).astype(np.int64)
        np.testing.assert_array_equal(
            res.round_claimed, floor[res.center] + res.hops
        )

    def test_all_vertices_assigned(self):
        g = erdos_renyi(60, 0.03, seed=5)  # possibly disconnected
        rng = np.random.default_rng(1)
        res = delayed_multisource_bfs(g, rng.random(60) * 5)
        assert np.all(res.center >= 0)
        assert np.all(res.hops >= 0)

    def test_centers_are_fixed_points(self):
        g = grid_2d(6, 6)
        rng = np.random.default_rng(2)
        res = delayed_multisource_bfs(g, rng.random(36) * 10)
        np.testing.assert_array_equal(
            res.center[res.center], res.center
        )

    def test_idle_round_jumping(self):
        # One center at t=0, next wake far in the future: the engine must
        # jump over the idle gap, not execute 1000 empty rounds.
        g = from_edges(3, [(0, 1)])  # vertex 2 isolated
        start = np.asarray([0.0, 5.0, 1000.5])
        res = delayed_multisource_bfs(g, start)
        assert res.center[2] == 2
        assert res.active_rounds <= 3
        assert res.num_rounds == 1001  # wall-clock rounds span the gap

    def test_work_bounded_by_arcs_plus_n(self):
        g = grid_2d(8, 8)
        rng = np.random.default_rng(3)
        res = delayed_multisource_bfs(g, rng.random(64) * 6)
        assert res.work <= g.num_arcs + g.num_vertices

    def test_input_validation(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            delayed_multisource_bfs(g, np.zeros(2))
        with pytest.raises(ParameterError):
            delayed_multisource_bfs(g, np.asarray([-1.0, 0.0, 0.0]))
        with pytest.raises(ParameterError):
            delayed_multisource_bfs(g, np.zeros(3), tie_key=np.zeros(2))


class TestCenterMaskAndCap:
    def test_center_mask_limits_owners(self):
        g = path_graph(8)
        start = np.zeros(8)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        res = delayed_multisource_bfs(g, start, center_mask=mask)
        np.testing.assert_array_equal(res.center, np.zeros(8, dtype=np.int64))

    def test_center_mask_leaves_unreached_unowned(self, two_triangles):
        start = np.zeros(6)
        mask = np.zeros(6, dtype=bool)
        mask[0] = True  # only the first triangle has a center
        res = delayed_multisource_bfs(two_triangles, start, center_mask=mask)
        assert np.all(res.center[:3] == 0)
        assert np.all(res.center[3:] == -1)
        assert np.all(res.hops[3:] == -1)

    def test_all_false_mask_rejected(self):
        with pytest.raises(ParameterError):
            delayed_multisource_bfs(
                path_graph(3), np.zeros(3), center_mask=np.zeros(3, dtype=bool)
            )

    def test_max_round_caps_growth(self):
        g = path_graph(10)
        start = np.zeros(10)
        mask = np.zeros(10, dtype=bool)
        mask[0] = True
        res = delayed_multisource_bfs(
            g, start, center_mask=mask, max_round=3
        )
        assert np.all(res.center[:4] == 0)
        # Unclaimed vertices follow the -1 convention in every per-vertex
        # array, not just `center` — a capped run leaves them untouched.
        assert np.all(res.center[4:] == -1)
        assert np.all(res.hops[4:] == -1)
        assert np.all(res.round_claimed[4:] == -1)

    @pytest.mark.parametrize("kernel", ["python", "auto"])
    def test_cap_below_first_wake_reports_zero_rounds(self, kernel):
        """Regression: `max_round` below the earliest wake used to report
        num_rounds=1 even though the round loop never executed."""
        g = path_graph(6)
        start = np.full(6, 7.5)  # first wake in round 7
        res = delayed_multisource_bfs(g, start, max_round=3, kernel=kernel)
        assert res.num_rounds == 0
        assert res.active_rounds == 0
        assert res.work == 0
        assert res.frontier_sizes == []
        assert np.all(res.center == -1)
        assert np.all(res.hops == -1)
        assert np.all(res.round_claimed == -1)


class TestEquivalenceWithExactDijkstra:
    """Section 5: the BFS implementation equals exact shifted shortest paths."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_starts_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        g = erdos_renyi(n, 0.15, seed=seed + 100)
        start = rng.random(n) * rng.integers(1, 12)
        floor = np.floor(start).astype(np.int64)
        key = start - floor
        bfs_res = delayed_multisource_bfs(g, start)
        dij_res = shifted_integer_dijkstra(g, floor, key)
        np.testing.assert_array_equal(bfs_res.center, dij_res.center)
        np.testing.assert_array_equal(bfs_res.hops, dij_res.hops)
        np.testing.assert_array_equal(
            bfs_res.round_claimed, dij_res.round_claimed
        )

    def test_integer_starts_tie_break_by_id(self):
        # All fractional keys zero: pure lexicographic center-id tie-breaks.
        g = cycle_graph(9)
        start = np.zeros(9)
        bfs_res = delayed_multisource_bfs(g, start)
        dij_res = shifted_integer_dijkstra(
            g, np.zeros(9, dtype=np.int64), np.zeros(9)
        )
        np.testing.assert_array_equal(bfs_res.center, dij_res.center)

    def test_permutation_keys_agree(self):
        g = grid_2d(6, 6)
        rng = np.random.default_rng(11)
        start = rng.random(36) * 8
        floor = np.floor(start).astype(np.int64)
        perm_key = rng.permutation(36) / 36.0
        bfs_res = delayed_multisource_bfs(g, start, tie_key=perm_key)
        dij_res = shifted_integer_dijkstra(g, floor, perm_key)
        np.testing.assert_array_equal(bfs_res.center, dij_res.center)
        np.testing.assert_array_equal(bfs_res.hops, dij_res.hops)
