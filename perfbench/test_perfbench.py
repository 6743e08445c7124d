"""Tests of the arithmetic the benchmark gates on, and of its layer map."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from stats import (  # noqa: E402
    MIN_BEYOND,
    closed_loop_lags,
    histogram_delta_mean,
    open_loop_samples,
    percentile,
    run_percentile,
    run_ratio,
    run_tail_percentile,
    self_times,
    tail_percentile,
    unattributed,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- tail percentile ----------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(2000, 99.0), (1000, 99.0), (200, 95.0), (144, 93.0), (108, 90.0),
     (40, 75.0), (30, 66.0), (20, 50.0)],
)
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 3000):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= MIN_BEYOND
        if p < 99:
            assert n * (100 - (p + 1)) / 100 < MIN_BEYOND


def test_tail_percentile_respects_the_cap_and_rejects_small_samples():
    assert tail_percentile(2000, cap=90.0) == 90.0
    assert tail_percentile(30, cap=90.0) == 66.0
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 50) == 1.5


def test_run_percentile_takes_the_median_over_servers_when_each_supports_it():
    calm = [float(x) for x in range(40)]
    disturbed = [x + 100.0 for x in calm]
    groups = [calm, calm, calm, disturbed, disturbed]
    p = run_tail_percentile(groups, cap=99.0)
    assert p == 75.0  # 40 samples per server leave 10 beyond p75
    assert run_percentile(groups, p) == percentile(calm, 75.0)
    # The pooled p75 would land in the disturbed servers' samples.
    assert percentile(calm * 3 + disturbed * 2, 75.0) > 100.0


def test_run_percentile_pools_servers_too_small_for_the_percentile():
    groups = [[1.0, 2.0, 3.0, 4.0, 5.0]] * 3 + [[10.0] * 5]
    assert run_tail_percentile(groups, cap=99.0) == 50.0  # 20 pooled
    assert run_percentile(groups, 50.0) == percentile(
        [x for group in groups for x in group], 50.0
    )


def test_run_ratio_is_per_server_only_for_large_shares():
    parts = [(10.0, 1.0), (12.0, 1.0), (30.0, 1.0)]
    assert run_ratio(parts, [20, 20, 20]) == pytest.approx(12.0)
    assert run_ratio(parts, [20, 5, 20]) == pytest.approx(52.0 / 3)


# -- open and closed loops ------------------------------------------------------
def test_open_loop_latency_counts_a_generator_stall_from_due_time():
    due = [0.00, 0.01, 0.02, 0.03]
    # The generator stalls until 50 ms, then sends the three late requests.
    sent = [0.00, 0.05, 0.05, 0.05]
    done = [s + 0.002 for s in sent]
    latencies, lags = open_loop_samples(due, sent, done)
    assert latencies == pytest.approx([0.002, 0.042, 0.032, 0.022])
    assert lags == pytest.approx([0.0, 0.04, 0.03, 0.02])
    # Timing from send time instead would hide the stall entirely.
    assert all(d - s == pytest.approx(0.002) for s, d in zip(sent, done))


def test_open_loop_rejects_ragged_input():
    with pytest.raises(ValueError):
        open_loop_samples([0.0, 1.0], [0.0], [0.5, 1.5])


def test_closed_loop_lag_is_turnaround_after_each_completion():
    sent = [0.0, 1.1, 2.5]
    done = [1.0, 2.0, 3.0]
    assert closed_loop_lags(sent, done) == pytest.approx([0.1, 0.5])


# -- self time and residual -----------------------------------------------------
def _span(span_id, parent, start_s, end_s):
    return {
        "span_id": span_id, "parent_id": parent, "name": span_id,
        "ts": start_s, "dur_ms": (end_s - start_s) * 1e3,
    }


def test_self_time_subtracts_the_union_of_children():
    records = [
        _span("root", None, 0.0, 10.0),
        # Overlapping children cover [1, 5] once, not 2 + 3 = 5 seconds.
        _span("a", "root", 1.0, 3.0),
        _span("b", "root", 2.0, 5.0),
        # A child running past its parent counts only inside the parent.
        _span("c", "root", 8.0, 12.0),
        _span("a1", "a", 1.5, 2.5),
    ]
    selfs = self_times(records)
    assert selfs["root"] == pytest.approx((10 - 4 - 2) * 1e3)
    assert selfs["a"] == pytest.approx(1e3)
    assert selfs["b"] == pytest.approx(3e3)
    assert selfs["a1"] == pytest.approx(1e3)


def test_unattributed_residual_is_e2e_minus_layer_medians():
    assert unattributed(100.0, [60.0, 20.0, 5.0]) == pytest.approx(15.0)
    assert unattributed(10.0, [6.0, 7.0]) == pytest.approx(-3.0)


def test_histogram_delta_mean():
    before = {"count": 2, "sum": 0.5}
    after = {"count": 6, "sum": 2.5}
    assert histogram_delta_mean(before, after) == pytest.approx(0.5)
    assert histogram_delta_mean(None, after) == pytest.approx(2.5 / 6)
    assert math.isnan(histogram_delta_mean(after, after))


# -- layer map ------------------------------------------------------------------
def test_every_per_layer_metric_is_in_the_layer_map():
    from layers import LAYERS

    declared = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert set(declared) == set(LAYERS)
    for name, layer in LAYERS.items():
        assert declared[name]["unit"] == layer.unit
        assert declared[name]["better"] == layer.better


def test_layer_map_names_real_workloads_and_e2e_metrics():
    from layers import LAYERS
    from run import E2E_UNITS
    from workloads import WORKLOADS

    workloads = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert workloads == {name: w.why for name, w in WORKLOADS.items()}
    assert set(e2e) == set(E2E_UNITS)
    assert all(e2e[name]["unit"] == unit for name, unit in E2E_UNITS.items())
    for layer in LAYERS.values():
        for workload, metrics in layer.moves.items():
            assert workload in workloads
            assert set(metrics) <= set(e2e)


# -- process cleanup ------------------------------------------------------------
_ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
from procs import _processes, become_subreaper, group_members, reap_children

assert become_subreaper()
# The group leader exits at once; its background child outlives it, as
# the server's resource tracker outlives the server.
leader = subprocess.Popen(
    ["sh", "-c", "sleep 0.3 & exit 0"], start_new_session=True
)
leader.wait()
orphans = [pid for pid, _, ppid, pgid in _processes() if pgid == leader.pid]
assert orphans and all(
    ppid == os.getpid()
    for pid, _, ppid, pgid in _processes() if pgid == leader.pid
)
deadline = time.monotonic() + 10
while group_members(leader.pid):
    assert time.monotonic() < deadline
    time.sleep(0.01)
assert not [pid for pid, _, _, pgid in _processes() if pgid == leader.pid]
reap_children()
"""


def test_an_orphaned_helper_is_reparented_and_reaped():
    import subprocess

    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
