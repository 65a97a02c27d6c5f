"""Benchmark: A7 — reaction-time curves of the asynchronous control loop.

The synchronous demo loop reacts the instant an alarm fires; the
asynchronous scheduler (PR 9) adds the timing the paper's deployment
discussion cares about: jittered SNMP polls, non-zero controller reaction
latency, and SPF/FIB hold-downs walked by the data plane.  This benchmark sweeps poll interval x reaction latency x SPF
hold-down through :func:`repro.experiments.reaction.run_reaction_curves`
and publishes the curves — the acceptance gate is that the reaction-time
curve genuinely moves with both the poll interval *and* the convergence
delay, i.e. the timing knobs are load-bearing, not cosmetic.
"""

import os

import pytest

from repro.experiments.reaction import run_reaction_curves

# BENCH_QUICK=1 (the CI smoke mode, see `make bench-quick`) trims the sweep.
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
POLL_INTERVALS = (0.5, 1.0) if QUICK else (0.25, 0.5, 1.0, 2.0)
REACTION_LATENCIES = (0.0, 0.5) if QUICK else (0.0, 0.5, 1.0)
SPF_DELAYS = (0.05, 0.2) if QUICK else (0.05, 0.2, 0.5)
DURATION = 30.0 if QUICK else 60.0


def test_async_reaction_curves(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_reaction_curves(
            seed=0,
            poll_intervals=POLL_INTERVALS,
            reaction_latencies=REACTION_LATENCIES,
            spf_delays=SPF_DELAYS,
            duration=DURATION,
        ),
        rounds=1,
        iterations=1,
    )

    report.add_line(
        "A7 — asynchronous control loop: reaction time vs poll interval, "
        "controller latency and SPF hold-down (Fig. 2 schedule)"
    )
    report.add_table(
        [
            "spf [s]",
            "poll [s]",
            "latency [s]",
            "alarms",
            "deferred",
            "mean react [s]",
            "max react [s]",
            "converge [s]",
        ],
        [
            (
                f"{row.spf_delay:g}",
                f"{row.poll_interval:g}",
                f"{row.reaction_latency:g}",
                row.alarms,
                row.reactions_deferred,
                f"{row.mean_reaction_time:.3f}",
                f"{row.max_reaction_time:.3f}",
                f"{row.converge_seconds:.3f}",
            )
            for row in rows
        ],
    )
    by_knobs = {
        (row.poll_interval, row.reaction_latency, row.spf_delay): row for row in rows
    }
    for (poll, latency, spf), row in sorted(by_knobs.items()):
        report.add_metric(
            f"mean_reaction_poll_{poll:g}_lat_{latency:g}_spf_{spf:g}",
            row.mean_reaction_time,
        )

    for row in rows:
        # Every point of the grid still detects and mitigates the surge.
        assert row.alarms > 0 and row.actions > 0
        # A deferred reaction per action whenever the latency knob is on.
        if row.reaction_latency > 0:
            assert row.reactions_deferred >= row.actions
            assert row.mean_action_latency == pytest.approx(row.reaction_latency)
        else:
            assert row.reactions_deferred == 0

    # The acceptance gate: the end-to-end curve moves with the poll interval
    # AND with the convergence delay, at fixed other knobs.  The surge-to-cool
    # recovery instant is used for the poll axis (the alarm-relative reaction
    # time is aliased by the 1 s sampling grid at sub-sample poll intervals).
    min_poll, max_poll = min(POLL_INTERVALS), max(POLL_INTERVALS)
    min_spf, max_spf = min(SPF_DELAYS), max(SPF_DELAYS)
    assert (
        by_knobs[(min_poll, 0.0, min_spf)].mean_detection_time
        < by_knobs[(max_poll, 0.0, min_spf)].mean_detection_time
    )
    assert (
        by_knobs[(min_poll, 0.0, min_spf)].mean_recovery_time
        < by_knobs[(max_poll, 0.0, min_spf)].mean_recovery_time
    )
    # The convergence-delay axis, judged at poll=0.5 s (at the fastest poll
    # the half-second SPF shift still lands inside the same 1 s sample).
    assert (
        by_knobs[(0.5, 0.0, min_spf)].mean_recovery_time
        < by_knobs[(0.5, 0.0, max_spf)].mean_recovery_time
    )
    # Convergence time accumulates with the SPF hold-down.
    assert (
        by_knobs[(min_poll, 0.0, max_spf)].converge_seconds
        > by_knobs[(min_poll, 0.0, min_spf)].converge_seconds
    )
    # A non-zero controller latency delays mitigation end to end.
    assert (
        by_knobs[(min_poll, max(REACTION_LATENCIES), min_spf)].mean_recovery_time
        > by_knobs[(min_poll, 0.0, min_spf)].mean_recovery_time
    )
