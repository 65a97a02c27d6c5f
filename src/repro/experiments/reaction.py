"""A7 — reaction-time curves of the asynchronous control loop.

The synchronous demo loop reacts the instant an alarm fires, so the only
latency Fig. 2 exhibits is the monitoring pipeline's detection delay plus
IGP convergence.  This experiment sweeps the three asynchronous timing
knobs the paper's deployment discussion (§5) cares about — SNMP poll
interval (with optional jitter), controller reaction latency, and the
routers' SPF/FIB hold-downs — and measures how long the network stays hot
after each alarm (:func:`repro.experiments.fig2.reaction_times`), alongside
the convergence/transient counters charged by the
:class:`~repro.core.scheduler.ConvergenceMonitor`.

Every run is the full closed-loop Fig. 2 demo
(:func:`~repro.experiments.fig2.run_demo_timeseries`) and a pure function
of ``(seed, knobs)``: the per-flow ECMP salt and the poll-jitter stream
both derive from explicit ``random.Random`` instances seeded by integer
arithmetic, so rows are bit-identical across runs and
``PYTHONHASHSEED`` values.  ``tests/golden/reaction_curves.json`` pins the
curves and ``benchmarks/test_bench_reaction_async.py`` publishes them as a
``BENCH_*.json`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import List, Sequence

from repro.experiments.fig2 import reaction_times, run_demo_timeseries
from repro.igp.router import RouterTimers

__all__ = ["ReactionRow", "run_reaction_curves"]


@dataclass(frozen=True)
class ReactionRow:
    """One grid point of the reaction-time sweep."""

    poll_interval: float
    poll_jitter: float
    reaction_latency: float
    spf_delay: float
    alarms: int
    actions: int
    #: ``ctl_*`` bookkeeping of the asynchronous scheduler and the
    #: convergence monitor for this run.
    reactions_deferred: int
    supersessions: int
    transient_loops: int
    transient_blackholes: int
    converge_events: int
    converge_seconds: float
    #: Alarm-to-cool reaction times (the A1 metric), in seconds.
    mean_reaction_time: float
    max_reaction_time: float
    #: Mean alarm instant relative to the experiment epoch — the monitoring
    #: pipeline's detection delay, which grows with the poll interval.
    mean_detection_time: float
    #: Mean absolute instant (relative to the epoch) at which the sampled
    #: max utilisation fell back below the threshold — detection plus
    #: reaction.  Unlike the alarm-relative reaction times, this end-to-end
    #: figure is not aliased by the sampling grid, so it is the metric the
    #: poll-interval curve is judged on.
    mean_recovery_time: float
    #: Mean alarm-to-execution control-plane delay over the run's actions
    #: (``RebalanceAction.reaction_latency``); equals the configured
    #: ``reaction_latency`` whenever no supersession restarted the clock.
    mean_action_latency: float
    peak_utilization: float
    total_stall_time: float


def run_reaction_curves(
    seed: int = 0,
    poll_intervals: Sequence[float] = (0.5, 1.0, 2.0),
    reaction_latencies: Sequence[float] = (0.0, 0.5),
    spf_delays: Sequence[float] = (0.05, 0.2),
    poll_jitter: float = 0.0,
    duration: float = 60.0,
    threshold: float = 0.9,
) -> List[ReactionRow]:
    """Sweep the timing knobs and return one :class:`ReactionRow` per point.

    The grid is the cartesian product ``spf_delays x poll_intervals x
    reaction_latencies`` (in that nesting order); ``poll_jitter`` applies to
    every point.  Each
    point runs the full Fig. 2 closed loop for ``duration`` seconds and
    reports the alarm-to-cool reaction times against ``threshold``.
    """
    rows: List[ReactionRow] = []
    for spf_delay in spf_delays:
        timers = RouterTimers(spf_delay=spf_delay, fib_delay=spf_delay)
        for poll_interval in poll_intervals:
            for reaction_latency in reaction_latencies:
                result = run_demo_timeseries(
                    with_controller=True,
                    duration=duration,
                    poll_interval=poll_interval,
                    poll_jitter=poll_jitter,
                    reaction_latency=reaction_latency,
                    router_timers=timers,
                    seed=seed,
                )
                times = reaction_times(result, threshold)
                stats = result.controller_stats
                action_latencies = [
                    action.reaction_latency for action in result.actions
                ]
                detections = [alarm.time - result.epoch for alarm in result.alarms]
                recoveries = [
                    detection + reaction
                    for detection, reaction in zip(detections, times)
                ]
                rows.append(
                    ReactionRow(
                        poll_interval=poll_interval,
                        poll_jitter=poll_jitter,
                        reaction_latency=reaction_latency,
                        spf_delay=spf_delay,
                        alarms=len(result.alarms),
                        actions=len(result.actions),
                        reactions_deferred=int(stats.get("ctl_reactions_deferred", 0)),
                        supersessions=int(stats.get("ctl_supersessions", 0)),
                        transient_loops=int(stats.get("ctl_transient_loops", 0)),
                        transient_blackholes=int(stats.get("ctl_transient_blackholes", 0)),
                        converge_events=int(stats.get("ctl_converge_events", 0)),
                        converge_seconds=round(
                            float(stats.get("ctl_converge_seconds", 0.0)), 9
                        ),
                        mean_reaction_time=round(mean(times), 9) if times else 0.0,
                        max_reaction_time=round(max(times), 9) if times else 0.0,
                        mean_detection_time=(
                            round(mean(detections), 9) if detections else 0.0
                        ),
                        mean_recovery_time=(
                            round(mean(recoveries), 9) if recoveries else 0.0
                        ),
                        mean_action_latency=(
                            round(mean(action_latencies), 9) if action_latencies else 0.0
                        ),
                        peak_utilization=round(result.peak_utilization, 9),
                        total_stall_time=round(result.qoe.total_stall_time, 9),
                    )
                )
    return rows
