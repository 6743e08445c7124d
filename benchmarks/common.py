"""Shared infrastructure for the benchmark harness.

Every benchmark prints the rows/series the paper reports (or the theoretical
curve the measurement is compared against) and also runs under
pytest-benchmark for timing.  ``REPRO_BENCH_SCALE`` scales problem sizes:
the default (1) keeps the suite minutes-fast; scale 4 reproduces the paper's
1000×1000 grid in the Figure 1 benchmark.

Output convention: each experiment prints a table headed by its experiment
id from DESIGN.md §4 (F1, T12-work, L42, ...), so EXPERIMENTS.md entries can
be regenerated by grepping the bench log.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The β values of the paper's Figure 1.
FIGURE1_BETAS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


def bench_scale() -> int:
    """Problem-size multiplier from the environment (default 1)."""
    return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))


def grid_side(base: int = 250) -> int:
    """Side length of the Figure 1 grid at the current scale."""
    return base * bench_scale()


@dataclass
class Table:
    """Minimal fixed-width table printer for benchmark reports."""

    title: str
    columns: list[str]

    def __post_init__(self) -> None:
        self._rows: list[list[str]] = []

    def add(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self._rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(c), *(len(r[i]) for r in self._rows)) if self._rows else len(c)
            for i, c in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(self.columns, widths))
        )
        for row in self._rows:
            lines.append(
                "  ".join(v.rjust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3e}"
        return f"{v:.4f}"
    return str(v)


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` for CI artifact collection.

    The destination directory defaults to the current working directory
    and is overridable with ``REPRO_BENCH_OUT``.  Payloads are merged
    into an existing file, so the per-experiment tests of one benchmark
    module can each contribute their section.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path


def geometric_sizes(start: int, factor: float, count: int) -> list[int]:
    """Geometric sweep of problem sizes."""
    return [int(round(start * factor**i)) for i in range(count)]


def mean_and_sem(values: list[float]) -> tuple[float, float]:
    """Sample mean and standard error."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else 0.0, 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def run_batch(graph, beta, *, method="auto", seeds=8, **options):
    """Multi-seed runs for benchmark statistics, via the batch engine.

    Thin wrapper over :func:`repro.core.decompose_many` replacing the old
    hand-rolled ``for seed in range(...)`` loops.  In process: the
    benchmark problem sizes are small enough that pool spin-up would
    dominate, and seed-determinism makes pooled runs identical anyway.
    Returns the :class:`repro.core.BatchResult`; per-statistic arrays come
    from ``result.values(key)`` and per-run traces from
    ``result.runs[i].result.trace``.
    """
    from repro.core.engine import decompose_many

    return decompose_many(
        graph, beta, method=method, seeds=seeds, max_workers=1, **options
    )
