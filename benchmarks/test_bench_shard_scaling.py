"""Benchmark: disjoint-prefix reaction waves through the sharded facade.

PR 4 made the controller incremental; its ``plan_dirty_threshold`` fallback
is still *global*: once a reaction wave churns more than the threshold's
fraction of the requirement set, the whole wave is re-planned clear-and-
replay style — clean requirements included.  The sharded facade
(:class:`~repro.core.shard.ShardedFibbingController`) evaluates the same
knob per shard sub-wave, so a reaction whose churn is confined to one
shard's prefixes re-plans exactly that shard and serves the rest from the
per-shard plan caches — the controller-layer mirror of the data plane's
per-component warm-start repair, and a win that needs no extra cores.

The canonical workload: a requirement set partitioned round-robin across 4
shards, each wave churning every requirement of exactly one shard (1/4 of
the set — above the benchmark's 0.2 threshold, which both engines run
with).  Equivalence first, speed second: the installed lies must be
bit-identical before any timing is reported.
"""

import os

import pytest

from repro.core.controller import FibbingController
from repro.core.lies import lie_set_digest
from repro.core.shard import ShardedFibbingController
from repro.experiments.scaling import (
    build_ring_topology,
    replay_shard_churn,
    ring_shard_assignment,
    run_shard_scaling,
)

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

RING = 16 if QUICK else 32
COUNT = 16 if QUICK else 48
WAVES = 16 if QUICK else 60
SHARDS = 4
THRESHOLD = 0.2  # both engines; 1/SHARDS dirty per wave trips the global one


def run_shard_comparison():
    """Replay the disjoint-prefix churn through both engines."""
    topology = build_ring_topology(RING, COUNT)

    single = FibbingController(topology, plan_dirty_threshold=THRESHOLD)
    single_time = replay_shard_churn(single, topology, COUNT, WAVES, SHARDS)

    sharded = ShardedFibbingController(
        topology,
        shards=SHARDS,
        plan_dirty_threshold=THRESHOLD,
        assignment=ring_shard_assignment(topology, COUNT, SHARDS),
    )
    sharded_time = replay_shard_churn(sharded, topology, COUNT, WAVES, SHARDS)
    # Equivalence first, speed second: a facade that skips work it should
    # not skip would also "win" this benchmark.
    assert lie_set_digest(sharded.active_lies()) == lie_set_digest(
        single.active_lies()
    )
    return (
        single_time,
        sharded_time,
        single.reconciler.counters.snapshot(),
        sharded.reconciler.counters.snapshot(),
        sharded.shard_counters.snapshot(),
    )


def test_shard_wave_speedup(benchmark, report):
    single_time, sharded_time, single_ctl, sharded_ctl, shard = benchmark.pedantic(
        run_shard_comparison, rounds=1, iterations=1
    )
    speedup = single_time / sharded_time

    report.add_line(
        f"Sharded controller — disjoint-prefix reaction waves "
        f"({COUNT} requirements on a {RING}-router ring, {WAVES} waves, "
        f"one shard of {SHARDS} churning per wave, plan_dirty_threshold="
        f"{THRESHOLD})"
    )
    report.add_table(
        ["engine", "steady-state churn time [s]"],
        [
            ("single incremental controller", f"{single_time:.4f}"),
            (f"sharded facade ({SHARDS} shards)", f"{sharded_time:.4f}"),
            ("speedup", f"{speedup:.1f}x"),
        ],
    )
    report.add_line(
        "single ctl counters: "
        + ", ".join(
            f"{key}={single_ctl[key]}"
            for key in sorted(single_ctl)
            if key.startswith("ctl_")
        )
    )
    report.add_line(
        "sharded ctl counters: "
        + ", ".join(
            f"{key}={sharded_ctl[key]}"
            for key in sorted(sharded_ctl)
            if key.startswith("ctl_")
        )
    )
    report.add_line(
        "shard counters: "
        + ", ".join(f"{key}={shard[key]}" for key in sorted(shard))
    )
    report.add_metric("single_seconds", single_time)
    report.add_metric("sharded_seconds", sharded_time)
    report.add_metric("speedup", speedup)

    # The acceptance bar for the sharded facade: >= 2x on the disjoint-
    # prefix wave at 4 shards.  Quick mode measures sub-millisecond waves
    # on shared CI runners, so it only smoke-checks the facade is not
    # slower.
    assert speedup >= (1.2 if QUICK else 2.0)

    # The mechanism, pinned down exactly.  The single controller trips its
    # global fallback on every churn wave and re-plans the full set...
    assert single_ctl["ctl_fallbacks"] == WAVES
    assert single_ctl["ctl_plans_recomputed"] == COUNT * (WAVES + 1)
    # ...while the facade re-plans only the churned shard (which trips its
    # local fallback: 100% of its sub-wave is dirty) and serves the other
    # shards' requirements from their plan caches.
    assert sharded_ctl["ctl_fallbacks"] == WAVES
    assert sharded_ctl["ctl_plans_recomputed"] == COUNT + WAVES * (COUNT // SHARDS)
    assert sharded_ctl["ctl_plan_cache_hits"] == WAVES * (COUNT - COUNT // SHARDS)
    # Shard accounting: the initial wave dirties all shards, every churn
    # wave dirties exactly one and leaves the rest clean.
    assert shard["shard_dirty"] == SHARDS + WAVES
    assert shard["shard_clean"] == WAVES * (SHARDS - 1)
    assert shard["shard_cross_fallbacks"] == 0
    assert shard["shard_waves_serial"] == WAVES + 1


def test_shard_scaling_rows(benchmark, report):
    """A6 — sharded speedup as the shard count grows."""
    shard_counts = (1, 2) if QUICK else (1, 2, 4)
    waves = 12 if QUICK else 30
    rows = benchmark.pedantic(
        run_shard_scaling,
        kwargs=dict(
            shard_counts=shard_counts,
            requirements=COUNT,
            waves=waves,
            ring=RING,
            plan_dirty_threshold=THRESHOLD,
        ),
        rounds=1,
        iterations=1,
    )

    report.add_line(
        f"A6 — sharded controller scaling ({COUNT} requirements on a "
        f"{RING}-router ring, {waves} disjoint-prefix churn waves, "
        f"plan_dirty_threshold={THRESHOLD}, serial dispatch)"
    )
    report.add_table(
        [
            "shards",
            "single [s]",
            "sharded [s]",
            "speedup",
            "single replans",
            "sharded replans",
            "plan hits",
            "dirty/clean",
        ],
        [
            (
                row.shards,
                f"{row.single_seconds:.4f}",
                f"{row.sharded_seconds:.4f}",
                f"{row.speedup:.1f}x",
                row.single_plans_recomputed,
                row.sharded_plans_recomputed,
                row.sharded_plan_cache_hits,
                f"{row.shard_dirty}/{row.shard_clean}",
            )
            for row in rows
        ],
    )

    for row in rows:
        report.add_metric(f"speedup_{row.shards}_shards", row.speedup)

    for row in rows:
        # The single side re-plans the full set every churn wave; the
        # facade's replans shrink with the shard count.
        assert row.single_plans_recomputed == COUNT * (row.waves + 1)
        assert row.sharded_plans_recomputed == COUNT + row.waves * (
            COUNT // row.shards
        )
    # The whole point of sharding: the gap must widen with the shard count.
    if not QUICK:
        assert rows[-1].speedup > rows[0].speedup
        assert rows[-1].speedup >= 2.0
