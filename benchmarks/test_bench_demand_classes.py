"""Benchmark: cohort demand classes under flash-crowd scale.

The data plane's cost per event grows with the number of demand classes it
routes, rates and advances.  Run per viewer — one single-session class
per flow, as ``DataPlaneEngine`` does — a million-viewer flash crowd means
a million classes.  Cohort classes — ``(ingress, prefix, per-session rate,
session count)``, one per arrival batch — make per-event cost O(classes x
path groups) while every externally observable number stays bit-identical
to the per-viewer run.  This benchmark runs the same scaled Fig. 2 closed
loop both ways, asserting the bit-identity first and the >= 10x speedup
second, then drives the full million-session run and asserts the paper's
interactive-scale claim: the whole closed loop (controller, monitoring,
QoE and all) in under 60 s on one core.
"""

import os
import time

import pytest

from repro.experiments.fig2 import run_demo_timeseries
from repro.experiments.flashcrowd_classes import (
    build_scaled_demo_scenario,
    run_flashcrowd_classes,
)

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Session count of the per-viewer vs cohort comparison.
COMPARE_SESSIONS = 6_200 if QUICK else 10_000
#: Session count of the aggregate-only scale run.
CROWD_SESSIONS = 62_000 if QUICK else 1_000_000


def run_engine_comparison():
    """The same scaled demo run with cohort classes and with one class per
    viewer; times and results."""
    scenario = build_scaled_demo_scenario(COMPARE_SESSIONS)

    start = time.perf_counter()
    aggregate = run_demo_timeseries(
        with_controller=True, duration=60.0, scenario=scenario,
        dataplane_aggregate=True,
    )
    aggregate_time = time.perf_counter() - start

    start = time.perf_counter()
    per_flow = run_demo_timeseries(
        with_controller=True, duration=60.0, scenario=scenario,
        dataplane_aggregate=False,
    )
    per_flow_time = time.perf_counter() - start

    # Equivalence first, speed second: cohorts that dropped sessions or
    # drifted rates would also "win" this benchmark.
    assert aggregate.sessions_started == per_flow.sessions_started
    assert aggregate.link_counters == per_flow.link_counters
    assert aggregate.qoe == per_flow.qoe
    assert aggregate.lie_digests == per_flow.lie_digests
    return per_flow_time, aggregate_time, aggregate


def test_aggregate_engine_speedup_over_per_flow(benchmark, report):
    per_flow_time, aggregate_time, result = benchmark.pedantic(
        run_engine_comparison, rounds=1, iterations=1
    )
    speedup = per_flow_time / aggregate_time

    report.add_line(
        f"Cohort demand classes — scaled Fig. 2 flash crowd "
        f"({result.sessions_started} sessions, full closed loop, "
        f"bit-identical QoE/counters/lies both ways)"
    )
    report.add_table(
        ["demand classes", "closed-loop run time [s]"],
        [
            ("one per viewer (DataPlaneEngine flows)", f"{per_flow_time:.4f}"),
            ("one per arrival batch (cohorts)", f"{aggregate_time:.4f}"),
            ("speedup", f"{speedup:.1f}x"),
        ],
    )
    report.add_line(
        "dp counters: "
        + ", ".join(
            f"{key}={value}"
            for key, value in sorted(result.dataplane_stats.items())
            if key.startswith("dp_classes")
        )
    )
    report.add_metric("sessions", result.sessions_started)
    report.add_metric("per_flow_seconds", per_flow_time)
    report.add_metric("aggregate_seconds", aggregate_time)
    report.add_metric("speedup", speedup)
    assert speedup >= 10.0


def test_million_session_flash_crowd_under_a_minute(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_flashcrowd_classes(sessions=CROWD_SESSIONS),
        rounds=1, iterations=1,
    )

    report.add_line(
        f"Million-session flash crowd — {result.sessions} sessions "
        f"(scale {result.scale}x the 62-session demo), one core"
    )
    report.add_table(
        ["metric", "value"],
        [
            ("wall-clock [s]", f"{result.wall_seconds:.2f}"),
            ("sessions", f"{result.sessions}"),
            ("smooth sessions", f"{result.qoe.smooth_sessions}"),
            ("stalled sessions", f"{result.qoe.stalled_sessions}"),
            ("peak utilization", f"{result.peak_utilization:.4f}"),
            ("alarms / actions / lies",
             f"{result.alarms} / {result.actions} / {result.lies_active}"),
        ],
    )
    report.add_metric("sessions", result.sessions)
    report.add_metric("wall_seconds", result.wall_seconds)
    report.add_metric("peak_utilization", result.peak_utilization)
    report.add_metric("smooth_sessions", result.qoe.smooth_sessions)
    report.add_metric("stalled_sessions", result.qoe.stalled_sessions)

    assert result.sessions >= CROWD_SESSIONS
    assert result.wall_seconds < 60.0
    # The crowd plays smoothly once the controller's lies spread the load.
    assert result.qoe.all_smooth
    assert result.lies_active > 0
    # Class-level cost: the engine walked cohorts, never single sessions.
    assert result.dataplane_stats["dp_classes_rewalked"] > 0
    assert result.dataplane_stats["dp_classes_rewalked"] < 100
