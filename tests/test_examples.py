"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a broken example is a broken
deliverable, so each is executed in-process (scaled down via argv where the
script supports it) and its stdout is sanity-checked.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", [], capsys)
    assert "cut fraction" in out
    assert "invariants hold:            True" in out


def test_figure1_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = run_example("figure1_grid.py", ["60"], capsys)
    assert "beta" in out
    renders = list((tmp_path / "figure1_output").glob("*.ppm"))
    assert len(renders) == 6


def test_low_stretch_tree(capsys):
    out = run_example("low_stretch_tree.py", [], capsys)
    assert "AKPW trees" in out
    assert "BFS-tree baseline" in out


def test_sdd_solver(capsys):
    out = run_example("sdd_solver.py", [], capsys)
    assert "ultrasparse" in out
    assert "iterations" in out


def test_spanner(capsys):
    out = run_example("spanner.py", [], capsys)
    assert "hypercube" in out


def test_block_decomposition(capsys):
    out = run_example("block_decomposition.py", [], capsys)
    assert "blocks:" in out


def test_distance_oracle(capsys):
    out = run_example("distance_oracle.py", [], capsys)
    assert "sample queries" in out


def test_parallel_backends(capsys):
    out = run_example("parallel_backends.py", [], capsys)
    assert "identical=True" in out
    assert "Brent" in out


def test_serve_quickstart(capsys):
    out = run_example("serve_quickstart.py", ["20"], capsys)
    assert "reruns cached: True" in out
    assert "hits" in out
