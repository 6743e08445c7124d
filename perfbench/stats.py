"""The arithmetic the benchmark gates on, kept free of I/O so it is testable.

Every function here takes numbers or span records and returns plain
numbers; ``test_perfbench.py`` pins each one.
"""

from __future__ import annotations

import math

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    return float(np.percentile(list(values), p))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, cap: float = 99.0) -> float:
    """The highest whole percentile, at most ``cap``, that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it.

    Each workload fixes ``cap`` at the highest percentile that repeated
    within a tenth across runs; with its fixed op count the choice is the
    same on every run of the workload.
    """
    if not _supports(n, 50.0):
        raise ValueError(
            f"{n} samples cannot support a tail: even the median needs "
            f"{MIN_BEYOND} samples beyond it"
        )
    return min(float(cap), float(math.floor(100.0 * (n - MIN_BEYOND) / n)))


def _supports(n: int, p: float) -> bool:
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND


def run_percentile(groups, p: float) -> float:
    """The ``p``-th percentile of a run split over servers (one group of
    samples per server): the median over servers of each server's own
    percentile when every server's sample leaves :data:`MIN_BEYOND`
    samples beyond ``p``, so a disturbance confined to one or two servers
    cannot move it; otherwise the percentile of the pooled samples."""
    if all(_supports(len(group), p) for group in groups):
        return median([percentile(group, p) for group in groups])
    return percentile([x for group in groups for x in group], p)


def run_ratio(parts, sizes) -> float:
    """A per-operation rate of a run split over servers, from each
    server's ``(numerator, denominator)``: the median of the servers'
    ratios when every server ran ``2 * MIN_BEYOND`` operations or more,
    otherwise the pooled ratio (a few operations per server are too few
    for a per-server rate)."""
    if min(sizes) >= 2 * MIN_BEYOND:
        return median([num / den for num, den in parts])
    return sum(num for num, _ in parts) / sum(den for _, den in parts)


def run_tail_percentile(groups, cap: float) -> float:
    """:func:`tail_percentile` for :func:`run_percentile`: sized by the
    smallest server's sample when that supports a tail, else by the
    pooled sample."""
    smallest = min(len(group) for group in groups)
    if smallest >= 2 * MIN_BEYOND:
        return tail_percentile(smallest, cap)
    return tail_percentile(sum(len(group) for group in groups), cap)


def open_loop_samples(due, sent, done):
    """Per-request ``(latencies, lags)`` of an open-loop stream.

    Latency runs from when a request was *due*, not when it was sent, so
    a stalled generator charges its stall to every request it delayed;
    the lag (sent minus due) says how late the generator itself ran.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must have one entry per request")
    latencies = [d - t for t, d in zip(due, done)]
    lags = [s - t for t, s in zip(due, sent)]
    return latencies, lags


def closed_loop_lags(sent, done):
    """Client turnaround of a closed loop: each send minus the previous
    completion (the first request has none and is skipped)."""
    return [s - d for s, d in zip(sent[1:], done[:-1])]


def span_bounds(record: dict) -> tuple[float, float]:
    """``(start, end)`` seconds of a :mod:`repro.telemetry.trace` record."""
    start = float(record["ts"])
    return start, start + float(record["dur_ms"]) / 1e3


def covered(interval: tuple[float, float], parts) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi
    )
    total, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(records) -> dict[str, float]:
    """Self time in ms of every span: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children: dict[str, list] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(span_bounds(record))
    out = {}
    for record in records:
        bounds = span_bounds(record)
        inner = covered(bounds, children.get(record["span_id"], ()))
        out[record["span_id"]] = max(
            0.0, float(record["dur_ms"]) - inner * 1e3
        )
    return out


def unattributed(e2e_ms: float, layer_ms) -> float:
    """End-to-end time no layer accounts for: the e2e median minus the sum
    of the medians of the layers on the blocking path.  Negative when the
    layers, measured apart, add up to more than the whole."""
    return e2e_ms - sum(layer_ms)


def histogram_delta_mean(before: dict | None, after: dict | None) -> float:
    """Mean of the observations a histogram gained between two snapshots
    (NaN when it gained none)."""
    count = (after or {}).get("count", 0) - (before or {}).get("count", 0)
    if count <= 0:
        return float("nan")
    total = (after or {}).get("sum", 0.0) - (before or {}).get("sum", 0.0)
    return total / count
