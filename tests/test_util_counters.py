"""The counter spine: one declaration per counter, derived snapshot/merge."""

from dataclasses import fields

import pytest

from repro.core.chaos import FaultCounters
from repro.core.controller import ControllerStats, FibbingController
from repro.core.reconciler import CtlCounters
from repro.dataplane.path_cache import DataPlaneCounters
from repro.igp.flooding import FloodingStats
from repro.igp.network import IgpNetwork
from repro.igp.rib_cache import RibCounters
from repro.igp.spf_cache import SpfCounters
from repro.topologies.demo import build_demo_topology, demo_lies
from repro.util.counters import merge_snapshots

#: Exported keys, pinned: goldens, ``BENCH_*.json`` and ``perf/`` read these
#: spellings, so a renamed or reordered key must fail here first.
EXPORTED = {
    SpfCounters: [
        "spf_cache_hits", "spf_incremental_updates", "spf_full_recomputes",
    ],
    RibCounters: [
        "rib_cache_hits", "rib_incremental_updates", "rib_full_recomputes",
        "rib_prefixes_repaired", "rib_prefixes_reused",
    ],
    DataPlaneCounters: [
        "dp_alloc_warm_starts", "dp_alloc_full", "dp_classes_rewalked",
        "dp_classes_reused", "dp_classes_splits",
    ],
    CtlCounters: [
        "ctl_plan_cache_hits", "ctl_plans_recomputed", "ctl_lies_injected",
        "ctl_lies_retracted", "ctl_lies_kept",
        "ctl_merge_cache_hits", "ctl_reactions_deferred",
        "ctl_supersessions", "ctl_transient_loops", "ctl_transient_blackholes",
        "ctl_converge_events", "ctl_converge_seconds", "ctl_resyncs",
        "ctl_resync_lies_recovered", "ctl_reactions_abandoned",
    ],
    FaultCounters: [
        "fault_link_downs", "fault_link_ups", "fault_lsas_dropped",
        "fault_poll_timeouts", "fault_poll_omissions",
        "fault_controller_crashes", "fault_controller_restarts",
    ],
    FloodingStats: [
        "messages_sent", "bytes_sent", "deliveries", "duplicates_suppressed",
        "messages_dropped",
    ],
}

CONTROLLER_OWN = [
    "lies_injected", "lies_withdrawn", "messages_sent", "bytes_sent", "updates_applied",
]


@pytest.mark.parametrize("cls", EXPORTED, ids=lambda cls: cls.__name__)
class TestEveryFamily:
    def test_exported_keys_are_pinned(self, cls):
        assert list(cls().snapshot()) == EXPORTED[cls]

    def test_merge_adds_every_field(self, cls):
        names = [spec.name for spec in fields(cls)]
        assert len(names) == len(EXPORTED[cls])
        # A distinct value per field: a field merged into its neighbour, or
        # skipped, cannot cancel out.
        values = [3 + 2 * index for index in range(len(names))]
        part = cls(**dict(zip(names, values)))
        assert part.snapshot() == dict(zip(EXPORTED[cls], values))
        total = cls()
        total.merge(part)
        total.merge(part)
        assert total == cls.total([part, part])
        assert list(total.snapshot().values()) == [2 * value for value in values]


def test_converge_seconds_stays_a_float():
    part = CtlCounters(converge_seconds=0.25, converge_events=2)
    total = CtlCounters.total([part, part])
    merged = merge_snapshots([part.snapshot(), total.snapshot()])
    for snapshot, seconds in ((total.snapshot(), 0.5), (merged, 0.75)):
        assert snapshot["ctl_converge_seconds"] == seconds
        assert isinstance(snapshot["ctl_converge_seconds"], float)
        assert isinstance(snapshot["ctl_converge_events"], int)


def test_controller_stats_compose_own_fields_and_live_sets():
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    controller = FibbingController(network.topology, network=network, attachment="R3")
    families = (SpfCounters, RibCounters, DataPlaneCounters, CtlCounters)
    assert list(controller.stats.snapshot()) == CONTROLLER_OWN + [
        key for cls in families for key in EXPORTED[cls]
    ]
    assert list(ControllerStats().snapshot()) == CONTROLLER_OWN
    # Read at call time: a counter advanced behind the controller's back shows.
    controller.reconciler.counters.lies_kept += 7
    controller.stats.messages_sent += 2
    snapshot = controller.stats.snapshot()
    assert (snapshot["ctl_lies_kept"], snapshot["messages_sent"]) == (7, 2)


def test_controller_stats_report_the_class_engine():
    """On an aggregate data plane the work is in the ``dp_classes_*`` counters;
    the controller's snapshot must carry the engine's whole set, not a subset."""
    from repro.experiments.flashcrowd_classes import run_flashcrowd_classes

    demo = run_flashcrowd_classes(sessions=620, duration=30.0).demo
    for key in ("dp_classes_rewalked", "dp_classes_reused", "dp_classes_splits"):
        assert demo.controller_stats[key] == demo.dataplane_stats[key]
    assert demo.controller_stats["dp_classes_rewalked"] > 0


def test_spf_stats_keys_follow_the_counter_families():
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    FibbingController(network.topology, network=network, attachment="R3")
    network.inject(demo_lies(), at_router="R3")
    network.converge()
    # Lies run no SPF; a weight change does.
    network.change_weight("A", "B", 9)
    network.converge()
    stats = network.spf_stats
    assert list(stats) == [
        key
        for cls in (SpfCounters, RibCounters, DataPlaneCounters, CtlCounters,
                    FaultCounters)
        for key in EXPORTED[cls]
    ]
    assert stats["spf_incremental_updates"] > 0


#: Keys of the sharded facade, the clear-and-replay fallback, the SPF/RIB/
#: allocator dirty-share fallbacks, the LP solution memo and the whole-FIB-set
#: memo, all gone with the code that counted them.
REMOVED_KEYS = (
    "shard_waves_serial", "shard_dirty", "shard_clean", "shard_cross_fallbacks",
    "ctl_fallbacks", "ctl_stagger_lsas_dropped",
    "spf_fallbacks", "rib_fallbacks", "dp_fallbacks", "ctl_opt_cache_hits",
    "fib_cache_hits",
)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_reported_nowhere(key):
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    controller = FibbingController(network.topology, network=network, attachment="R3")
    network.inject(demo_lies(), at_router="R3")
    network.converge()
    exported = {name for keys in EXPORTED.values() for name in keys}
    assert key not in exported
    assert key not in controller.stats.snapshot()
    assert key not in network.spf_stats
