"""Experiment F1 — Figure 1: grid decompositions across the six β values.

Paper artifact: six panels of a 1000×1000 grid decomposed at
β ∈ {0.002, 0.005, 0.01, 0.02, 0.05, 0.1}; qualitatively, lower β gives
fewer, larger-diameter pieces and fewer boundary edges.

This bench regenerates the quantitative content: per β, the piece count,
max/mean radius, and cut fraction, plus PPM renders of each panel (written
next to the bench log).  Grid side defaults to 250 (scale with
``REPRO_BENCH_SCALE=4`` for the paper's exact 1000×1000).
"""

from __future__ import annotations

import pytest

from repro.core.ldd_bfs import partition_bfs
from repro.graphs.generators import grid_2d
from repro.viz.grid_render import render_grid_ppm

from common import FIGURE1_BETAS, Table, grid_side


@pytest.fixture(scope="module")
def figure1_grid():
    side = grid_side(250)
    return side, grid_2d(side, side)


def test_figure1_table_and_renders(figure1_grid, tmp_path_factory):
    """The full Figure 1 sweep — one decomposition per β, with renders."""
    side, graph = figure1_grid
    out_dir = tmp_path_factory.mktemp("figure1")
    table = Table(
        f"F1: Figure 1 reproduction (grid {side}x{side}, m={graph.num_edges})",
        ["beta", "pieces", "max_rad", "mean_rad", "cut_frac", "cut/beta", "render"],
    )
    for beta in FIGURE1_BETAS:
        decomposition, trace = partition_bfs(graph, beta, seed=1307)
        radii = decomposition.radii()
        cf = decomposition.cut_fraction()
        render = render_grid_ppm(
            decomposition.labels,
            side,
            side,
            out_dir / f"figure1_beta_{beta}.ppm",
        )
        table.add(
            beta,
            decomposition.num_pieces,
            int(radii.max()),
            float(radii.mean()),
            cf,
            cf / beta,
            str(render),
        )
        # The paper's qualitative claim, asserted: cut fraction tracks β.
        assert cf <= 1.5 * beta + 0.01
    table.show()


def test_figure1_monotone_trends(figure1_grid):
    """Lower β ⇒ fewer pieces, larger radii, fewer cut edges (Figure 1's
    visual message, as a monotonicity check over the β sweep)."""
    side, graph = figure1_grid
    pieces, radii, cuts = [], [], []
    for beta in FIGURE1_BETAS:
        d, _ = partition_bfs(graph, beta, seed=42)
        pieces.append(d.num_pieces)
        radii.append(d.max_radius())
        cuts.append(d.cut_fraction())
    # Allow single-step noise; the endpoints must order strictly.
    assert pieces[0] < pieces[-1]
    assert radii[0] > radii[-1]
    assert cuts[0] < cuts[-1]
    table = Table(
        "F1-trend: monotonicity over beta",
        ["beta", "pieces", "max_rad", "cut_frac"],
    )
    for b, p, r, c in zip(FIGURE1_BETAS, pieces, radii, cuts):
        table.add(b, p, r, c)
    table.show()


@pytest.mark.parametrize("beta", [0.01, 0.1])
def test_figure1_partition_timing(benchmark, figure1_grid, beta):
    """pytest-benchmark timing of single panels (the paper's workload)."""
    side, graph = figure1_grid
    benchmark(lambda: partition_bfs(graph, beta, seed=7))
