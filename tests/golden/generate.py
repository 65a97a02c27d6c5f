"""Regenerate the golden regression snapshots in this directory.

The snapshots pin down externally observable numbers of the experiments —
the Fig. 1 link-load vectors and the optimality-gap study — so that engine
refactors (e.g. the incremental SPF cache) cannot silently drift behaviour.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

Only regenerate when a change is *supposed* to alter these numbers, and say
so in the commit message.
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).parent


def fig1_snapshot() -> dict:
    from repro.experiments.fig1 import run_fig1

    states = {
        "baseline": run_fig1(with_fibbing=False),
        "paper_lies": run_fig1(with_fibbing=True),
        "controller_pipeline": run_fig1(with_fibbing=True, use_controller_pipeline=True),
    }
    return {
        key: {
            "label": result.label,
            "max_load": result.max_load,
            "lie_count": result.lie_count,
            "split_at_a": result.split_at_a,
            "split_at_b": result.split_at_b,
            "link_loads": {
                f"{source}->{target}": load
                for (source, target), load in sorted(result.link_loads.items())
            },
        }
        for key, result in states.items()
    }


def fig1_rib_snapshot() -> dict:
    from repro.experiments.fig1 import fig1_rib_digests

    return {
        "baseline": fig1_rib_digests(with_fibbing=False),
        "paper_lies": fig1_rib_digests(with_fibbing=True),
    }


def fig2_snapshot() -> dict:
    """Fig. 2 link samples and cumulative per-link byte counters.

    Pins the dynamic experiment's externally observable numbers — the
    monitored-link throughput series the paper plots and the final SNMP
    byte counters — bit for bit, so data-plane engine refactors (e.g. the
    incremental path cache / warm-start allocator) cannot silently drift
    the simulated traffic.
    """
    from repro.experiments.fig2 import run_demo_timeseries

    snapshot = {}
    for key, with_controller in (("with_controller", True), ("no_controller", False)):
        result = run_demo_timeseries(with_controller=with_controller, duration=60.0)
        snapshot[key] = {
            "sessions_started": result.sessions_started,
            "throughput_series": {
                f"{source}->{target}": series
                for (source, target), series in sorted(result.throughput_series.items())
            },
            "link_counters": {
                f"{source}->{target}": value
                for (source, target), value in sorted(result.link_counters.items())
            },
            "max_utilization_series": result.max_utilization_series,
        }
    return snapshot


def lie_set_snapshot() -> dict:
    """Per-prefix digests of the controller-installed lies (names included).

    Four states are pinned: the Fig. 1 controller-pipeline enforcement and
    the final lie set of the dynamic Fig. 2 demo run, each also replayed
    through the sharded facade (``ShardedFibbingController(shards=3)``).
    The digests cover the fake-node names, so both a behavioural drift of
    the synthesised lies *and* a change of the controller's deterministic
    naming fail loudly; the regression test additionally requires the
    clear-and-replay oracle of ``tests/oracles.py`` to reproduce them and the
    sharded digests to be byte-equal to the single-controller ones (the
    shard-equivalence guarantee, pinned).
    """
    from repro.experiments.fig1 import fig1_lie_digests
    from repro.experiments.fig2 import run_demo_timeseries

    fig2 = run_demo_timeseries(with_controller=True, duration=60.0)
    fig2_sharded = run_demo_timeseries(
        with_controller=True, duration=60.0, controller_shards=3
    )
    return {
        "fig1_controller_pipeline": fig1_lie_digests(),
        "fig1_sharded_pipeline": fig1_lie_digests(shards=3),
        "fig2_final": fig2.lie_digests,
        "fig2_sharded_final": fig2_sharded.lie_digests,
    }


def flashcrowd_classes_snapshot() -> dict:
    """Class-level QoE of the scaled flash crowd on the aggregate engine.

    Pins the externally observable numbers of a 62,000-session Fig. 2-style
    run over :class:`~repro.dataplane.engine.AggregateDemandEngine`: the
    count-weighted QoE report, the peak utilisation and the final per-link
    byte counters (the latter bit-for-bit against the per-flow engine's
    arithmetic, via the canonical grouped link totals).  Wall-clock time is
    deliberately absent — it is the run's only non-deterministic output.
    """
    from repro.experiments.flashcrowd_classes import run_flashcrowd_classes

    snapshot = {}
    for key, with_controller in (("with_controller", True), ("no_controller", False)):
        result = run_flashcrowd_classes(
            sessions=62_000, with_controller=with_controller, duration=60.0
        )
        qoe = result.qoe
        snapshot[key] = {
            "sessions": result.sessions,
            "scale": result.scale,
            "qoe": {
                "sessions": qoe.sessions,
                "smooth_sessions": qoe.smooth_sessions,
                "stalled_sessions": qoe.stalled_sessions,
                "completed_sessions": qoe.completed_sessions,
                "mean_startup_delay": qoe.mean_startup_delay,
                "mean_stall_count": qoe.mean_stall_count,
                "mean_rebuffer_ratio": qoe.mean_rebuffer_ratio,
                "p95_rebuffer_ratio": qoe.p95_rebuffer_ratio,
                "total_stall_time": qoe.total_stall_time,
            },
            "peak_utilization": result.peak_utilization,
            "alarms": result.alarms,
            "actions": result.actions,
            "lies_active": result.lies_active,
            "link_counters": {
                f"{source}->{target}": value
                for (source, target), value in sorted(
                    result.demo.link_counters.items()
                )
            },
        }
    return snapshot


def reaction_snapshot() -> dict:
    """A7 reaction-time curves of the asynchronous control loop.

    Pins the seeded reaction sweep (poll interval x reaction latency x SPF
    hold-down) bit for bit: the alarm-to-cool curves, the per-action
    control-plane latencies, and the ``ctl_*`` convergence/supersession
    bookkeeping.  A timing-model refactor that shifts when reactions
    execute — or how convergence time is charged — fails here loudly.
    """
    from dataclasses import asdict

    from repro.experiments.reaction import run_reaction_curves

    rows = run_reaction_curves(
        seed=0,
        poll_intervals=(0.5, 1.0, 2.0),
        reaction_latencies=(0.0, 0.5),
        spf_delays=(0.05, 0.2),
        duration=40.0,
    )
    return {"rows": [asdict(row) for row in rows]}


def chaos_recovery_snapshot() -> dict:
    """A8 chaos resilience rows: QoE with and without controller recovery.

    Pins the seeded fault grid bit for bit — the clean baseline, the
    unrecovered crash and the crash-plus-resync variants, including the
    ``fault_*`` chaos accounting, the ``ctl_resync*`` recovery bookkeeping
    and the final lie digest (fake-node names included).  A drift of the
    fault injector's seeded streams, the LSDB resync, or the degraded
    monitoring path fails here loudly.
    """
    from dataclasses import asdict

    from repro.experiments.chaos import run_chaos_resilience

    rows = run_chaos_resilience(
        seed=0,
        duration=60.0,
        link_churn=2,
        lsa_loss_rate=0.02,
        poll_timeout_rate=0.1,
        staleness_horizon=5.0,
    )
    return {"rows": [asdict(row) for row in rows]}


def optimality_snapshot() -> dict:
    from repro.experiments.optimality import run_optimality_study

    rows = run_optimality_study(seeds=(0, 1, 2), num_routers=10, destinations=3)
    return {
        "rows": [
            {
                "seed": row.seed,
                "scheme": row.scheme,
                "max_utilization": row.max_utilization,
                "optimal_utilization": row.optimal_utilization,
                "gap": row.gap,
                "delivery_fraction": row.delivery_fraction,
                "control_state": row.control_state,
            }
            for row in rows
        ]
    }


def main() -> None:
    snapshots = {
        "fig1_loads.json": fig1_snapshot(),
        "fig1_ribs.json": fig1_rib_snapshot(),
        "fig1_lies.json": lie_set_snapshot(),
        "fig2_samples.json": fig2_snapshot(),
        "flashcrowd_classes_qoe.json": flashcrowd_classes_snapshot(),
        "optimality_gaps.json": optimality_snapshot(),
        "reaction_curves.json": reaction_snapshot(),
        "chaos_recovery.json": chaos_recovery_snapshot(),
    }
    for name, payload in snapshots.items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
