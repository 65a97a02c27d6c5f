#!/usr/bin/env python3
"""The full demo: on-demand load balancing keeps video playback smooth.

Reproduces the experiment of the paper's §3 / Fig. 2 end to end: an
event-driven IGP, a flow-level data plane, two video servers, playback
clients arriving in two flash crowds (t=15 s and t=35 s), SNMP monitoring,
and the Fibbing controller reacting to utilisation alarms.  The same
schedule is then replayed with the controller disabled to show the
difference in quality of experience.

Run with:  python examples/flash_crowd_video.py
"""

from repro.experiments.fig2 import reaction_times, run_demo_timeseries


def print_timeline(result) -> None:
    print("  controller timeline:")
    for alarm in result.alarms:
        hot = ", ".join(f"{s}->{t}" for s, t in (view.link for view in alarm.hot_links))
        print(f"    t={alarm.time - result.epoch:5.1f}s  alarm: links above threshold: {hot}")
    for action in result.actions:
        print(
            f"    t={action.time - result.epoch:5.1f}s  re-optimisation: predicted max "
            f"utilisation {action.predicted_max_utilization:.2f}, "
            f"{action.lies_injected} lie(s) injected, {action.lies_withdrawn} withdrawn"
        )


def print_series(result) -> None:
    print("  throughput on the monitored links [byte/s] (as in Fig. 2):")
    times = [5, 10, 14, 20, 25, 30, 34, 40, 45, 50, 55, 59]
    header = "    t[s]      " + "".join(f"{t:>10}" for t in times)
    print(header)
    for link in result.scenario.monitored_links:
        series = {int(round(t)): v for t, v in result.series_of(*link)}
        row = "".join(f"{series.get(t, 0.0):>10,.0f}" for t in times)
        print(f"    {link[0]}-{link[1]:<6}" + row)


def main() -> None:
    print("Running the Fig. 2 experiment WITH the Fibbing controller...")
    enabled = run_demo_timeseries(with_controller=True)
    print_timeline(enabled)
    print_series(enabled)
    print(f"  reaction times after each alarm: "
          f"{[f'{t:.1f}s' for t in reaction_times(enabled, threshold=0.95)]}")
    print(f"  QoE: {enabled.qoe.summary()}")
    print(f"  control-plane cost: {enabled.controller_messages} fake LSAs "
          f"({enabled.lies_active} active at the end)")
    dp = enabled.dataplane_stats
    print(f"  data-plane cache: {dp['dp_classes_reused']} cached paths reused, "
          f"{dp['dp_classes_rewalked']} flows re-routed, "
          f"{dp['dp_alloc_warm_starts']} warm-started allocations "
          f"({dp['dp_alloc_full']} from scratch)")

    print("\nRunning the same schedule WITHOUT the controller...")
    disabled = run_demo_timeseries(with_controller=False)
    print_series(disabled)
    print(f"  QoE: {disabled.qoe.summary()}")

    print("\nSummary (the paper's §3 claim):")
    print(f"  with Fibbing   : {enabled.qoe.smooth_sessions}/{enabled.qoe.sessions} smooth sessions, "
          f"{enabled.qoe.total_stall_time:.0f}s of stalls")
    print(f"  without Fibbing: {disabled.qoe.smooth_sessions}/{disabled.qoe.sessions} smooth sessions, "
          f"{disabled.qoe.total_stall_time:.0f}s of stalls")


if __name__ == "__main__":
    main()
