"""Golden-trace regression pins for the PRAM cost model.

``PartitionTrace``'s ``work``/``depth``/``rounds`` are the Theorem 1.2
quantities every benchmark reasons about; silent drift in how they are
charged (an extra gather counted, a round miscounted, a changed shift
stream) invalidates recorded experiment tables without failing any
behavioural test.  This module pins the exact trace counters — plus the
headline decomposition statistics and the ``δ_max`` certificate — for
fixed (graph, seed, method) triples covering every registered method, and
SHA-256 digests of the applications built on top of them: hierarchy label
stacks (top-down and contracted) and an AKPW spanning forest.

The integer pins are exact: all randomness flows through ``numpy``'s
seeded Philox/SFC streams, which are bit-stable across platforms and the
supported Python/NumPy range.  Float pins (``δ_max``, weighted radii)
carry a 1e-12 relative tolerance because they pass through libm
transcendentals whose final ulp may vary between implementations.  If an
intentional change to an algorithm or to cost accounting lands,
regenerate the values and say so in the commit — that is the point of
the pin.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.engine import decompose
from repro.embeddings.hierarchy import (
    contracted_hierarchy,
    hierarchical_decomposition,
)
from repro.graphs.generators import erdos_renyi, grid_2d, path_graph
from repro.graphs.ops import num_components
from repro.graphs.weighted import weights_by_name
from repro.lowstretch.akpw import akpw_spanning_tree


def _graphs():
    return {
        "grid10x10": grid_2d(10, 10),
        "path50": path_graph(50),
        "er80": erdos_renyi(80, 0.06, seed=5),
        "wgrid8x8": weights_by_name(
            grid_2d(8, 8), "uniform:0.5,2.0", seed=3
        ),
    }


#: (graph key, beta, method, seed) -> pinned trace + decomposition values.
GOLDEN = {
    ("grid10x10", 0.2, "bfs", 0): dict(
        method="bfs-fractional", rounds=15, work=664, depth=114,
        delta_max=30.288765402212864, num_pieces=3, max_radius=14,
        num_cut_edges=11,
    ),
    ("grid10x10", 0.2, "exact", 1): dict(
        method="exact-fractional", rounds=16, work=560, depth=560,
        delta_max=42.114647790575944, num_pieces=1, max_radius=15,
        num_cut_edges=0,
    ),
    ("grid10x10", 0.2, "sequential", 2): dict(
        method="sequential-ball-growing", rounds=20, work=360, depth=20,
        delta_max=math.nan, num_pieces=3, max_radius=9, num_cut_edges=22,
    ),
    ("grid10x10", 0.2, "blelloch", 3): dict(
        method="blelloch-iterative", rounds=17, work=821, depth=17,
        delta_max=23.025850929940457, num_pieces=1, max_radius=16,
        num_cut_edges=0,
    ),
    ("grid10x10", 0.2, "uniform", 4): dict(
        method="bfs-uniform-shifts", rounds=6, work=680, depth=51,
        delta_max=22.6609602686677, num_pieces=18, max_radius=5,
        num_cut_edges=70,
    ),
    ("grid10x10", 0.2, "permutation", 5): dict(
        method="bfs-permutation", rounds=10, work=670, depth=79,
        delta_max=18.36990069138555, num_pieces=9, max_radius=8,
        num_cut_edges=36,
    ),
    ("grid10x10", 0.2, "quantile", 6): dict(
        method="bfs-quantile", rounds=13, work=662, depth=100,
        delta_max=26.491586832740175, num_pieces=2, max_radius=12,
        num_cut_edges=12,
    ),
    ("path50", 0.3, "bfs", 7): dict(
        method="bfs-fractional", rounds=11, work=257, depth=74,
        delta_max=12.651374949476047, num_pieces=5, max_radius=10,
        num_cut_edges=4,
    ),
    ("er80", 0.25, "bfs", 8): dict(
        method="bfs-fractional", rounds=10, work=668, depth=51,
        delta_max=12.536685536717787, num_pieces=4, max_radius=4,
        num_cut_edges=72,
    ),
    ("wgrid8x8", 0.3, "dijkstra", 9): dict(
        method="weighted-dijkstra", rounds=0, work=352, depth=352,
        delta_max=24.080040701826917, num_pieces=1,
        max_radius=10.980851900333597, num_cut_edges=0,
    ),
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN, key=str), ids=lambda c: f"{c[0]}-{c[2]}-s{c[3]}"
)
def test_golden_trace(case):
    graph_key, beta, method, seed = case
    expected = GOLDEN[case]
    result = decompose(_graphs()[graph_key], beta, method=method, seed=seed)
    trace = result.trace
    decomposition = result.decomposition

    assert trace.method == expected["method"]
    assert trace.rounds == expected["rounds"]
    assert trace.work == expected["work"]
    assert trace.depth == expected["depth"]
    if math.isnan(expected["delta_max"]):
        assert math.isnan(trace.delta_max)
    else:
        # The RNG bit stream is platform-stable but delta_max passes
        # through libm transcendentals whose last ulp may differ between
        # implementations — hence a tiny relative tolerance, unlike the
        # exact integer pins above.
        assert trace.delta_max == pytest.approx(
            expected["delta_max"], rel=1e-12
        )
    assert decomposition.num_pieces == expected["num_pieces"]
    assert decomposition.max_radius() == pytest.approx(
        expected["max_radius"], rel=1e-12
    )
    assert decomposition.num_cut_edges() == expected["num_cut_edges"]


def test_golden_covers_every_registered_method():
    """Adding a method without pinning a golden trace fails here."""
    from repro.core.registry import method_names

    pinned = {method for (_, _, method, _) in GOLDEN}
    # Alias methods (pinned options over the same callable) count through
    # their own registry name, so coverage is literal.
    assert set(method_names()) <= pinned | {"auto"}


# ----------------------------------------------------------------------
# application pins: hierarchy label stacks and AKPW forests
# ----------------------------------------------------------------------
# The applications stack many decompositions, each seeded by its piece's
# content digest, so a change in how a level is split into pieces (piece
# order, piece CSR bytes, hence digests and sub-seeds) shows up here even
# when every single-decomposition pin above still holds.


def _label_stack_digest(hierarchy) -> str:
    sha = hashlib.sha256()
    for level in hierarchy.labels:
        sha.update(np.ascontiguousarray(level, dtype="<i8").tobytes())
    return sha.hexdigest()


def _app_graphs():
    return {
        "grid30x30": grid_2d(30, 30),
        "er300": erdos_renyi(300, 0.02, seed=4),
    }


#: (graph key, seed) -> (levels, sha256 of the label stack).
GOLDEN_HIERARCHY = {
    ("grid30x30", 1): (
        11, "babf3732f90ac22e293875848c7a5cece103718cbd4297566f5539aa0bc8f34c"
    ),
    ("grid30x30", 2): (
        11, "06478b82030562ed2c06a286c3091bff0e1b6731b0e9c486de4e9d6e37372677"
    ),
    ("er300", 1): (
        10, "764569195a2a337166ebfe0829f09ff6bf4015389f0f72f49ec55362017efb2c"
    ),
    ("er300", 2): (
        10, "8c3ddef185b199ba28c06f81dc61a9f44992a4ac56d5725a65345efa5900e4e9"
    ),
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN_HIERARCHY), ids=lambda c: f"{c[0]}-s{c[1]}"
)
def test_golden_hierarchy_labels(case):
    graph_key, seed = case
    levels, digest = GOLDEN_HIERARCHY[case]
    hierarchy = hierarchical_decomposition(_app_graphs()[graph_key], seed=seed)
    assert hierarchy.num_levels == levels
    assert _label_stack_digest(hierarchy) == digest


def test_golden_contracted_hierarchy_labels():
    hierarchy = contracted_hierarchy(grid_2d(30, 30), seed=3)
    assert hierarchy.num_levels == 11
    assert _label_stack_digest(hierarchy) == (
        "cc6501dae4f69173b39b22aa230bd37beae028c08c11e6fd3190e23528187481"
    )


def test_golden_akpw_parents_on_a_disconnected_graph():
    graph = erdos_renyi(400, 0.004, seed=6)
    assert num_components(graph) == 91  # a giant component plus many small
    result = akpw_spanning_tree(graph, beta=0.5, seed=7)
    assert result.num_levels == 4
    parent = np.ascontiguousarray(result.forest.parent, dtype="<i8")
    assert hashlib.sha256(parent.tobytes()).hexdigest() == (
        "34b097a1cd6a8438d72fa4f0823467d5cfa3983d3247a373a2b0c16712004d24"
    )
