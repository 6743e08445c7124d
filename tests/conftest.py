"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graphs.build import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def small_grid() -> CSRGraph:
    """10×10 grid: the workhorse fixture (connected, structured)."""
    return grid_2d(10, 10)


@pytest.fixture
def medium_grid() -> CSRGraph:
    """25×25 grid for statistics-flavoured tests."""
    return grid_2d(25, 25)


@pytest.fixture
def small_path() -> CSRGraph:
    """Path on 50 vertices — the adversarial case for sequential methods."""
    return path_graph(50)


@pytest.fixture
def small_cycle() -> CSRGraph:
    return cycle_graph(30)


@pytest.fixture
def random_sparse() -> CSRGraph:
    """A fixed sparse ER graph (possibly disconnected)."""
    return erdos_renyi(120, 0.02, seed=99)


@pytest.fixture
def two_triangles() -> CSRGraph:
    """Two disjoint triangles — the canonical disconnected fixture."""
    return from_edges(
        6, np.asarray([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    )


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def random_graphs(
    draw,
    min_vertices: int = 2,
    max_vertices: int = 24,
    require_edges: bool = False,
):
    """A random simple undirected graph as a CSRGraph.

    Edges are sampled as a subset of all pairs, so the strategy covers empty,
    sparse, dense and disconnected cases; shrinking reduces both vertex and
    edge counts.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if require_edges and pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), min_size=1, unique=True)
        )
    elif pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        chosen = []
    edges = np.asarray(chosen, dtype=np.int64).reshape(-1, 2)
    return from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_vertices: int = 2, max_vertices: int = 20):
    """A random *connected* graph: random spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    # Random attachment tree guarantees connectivity.
    tree = [(int(rng.integers(v)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = np.asarray(tree + extra, dtype=np.int64).reshape(-1, 2)
    return from_edges(n, edges)


@st.composite
def mixed_graphs(draw):
    """Grids, ER graphs, and disconnected graphs with isolated vertices."""
    kind = draw(st.sampled_from(["grid", "er", "sparse"]))
    if kind == "grid":
        return grid_2d(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    n = draw(st.integers(1, 60))
    if kind == "er":
        p = draw(st.floats(0.02, 0.3))
        return erdos_renyi(n, p, seed=draw(st.integers(0, 2**16)))
    # A few random edges over many vertices: several small components
    # and plenty of isolated vertices.
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    edges = np.asarray(
        [(u, v) for u, v in pairs if u != v], dtype=np.int64
    ).reshape(-1, 2)
    return from_edges(n, edges, dedup=True)


def assert_valid_partition(graph: CSRGraph, center: np.ndarray) -> None:
    """Common assertion: every vertex assigned, centers are fixed points."""
    n = graph.num_vertices
    assert center.shape[0] == n
    assert center.min() >= 0 and center.max() < n
    np.testing.assert_array_equal(center[center], center)
