"""Golden regression tests: the experiments must reproduce the seed numbers.

The JSON snapshots under ``tests/golden/`` were captured from the original
(pre-incremental-SPF) engine.  These tests rerun the Fig. 1 experiment and
the optimality-gap study and require bit-for-bit identical numbers, so any
engine refactor that silently changes routing behaviour is caught here
rather than in a benchmark eyeball.  Regenerate with
``PYTHONPATH=src python tests/golden/generate.py`` only when a change is
*meant* to move these numbers.
"""

import functools
import json
import pathlib

import pytest

from repro.experiments import fig1, fig2
from repro.experiments.fig1 import fig1_lie_digests, fig1_rib_digests, run_fig1
from repro.experiments.optimality import run_optimality_study
from repro.igp.graph import ComputationGraph
from repro.igp.rib import rib_digest
from repro.igp.rib_cache import RibCache
from repro.topologies.demo import build_demo_scenario, demo_lies

from golden.generate import PERF_SEEDS, perf_digest_entry
from oracles import (
    ClearAndReplayBalancer,
    ClearAndReplayController,
    FromScratchDataPlaneEngine,
)
from perf.metrics import WORKLOADS


#: Both ``TestPerfDigests`` tests of one (workload, seed) share a single rep.
perf_entry = functools.lru_cache(maxsize=None)(perf_digest_entry)


def use_clear_and_replay_controller(monkeypatch):
    """Make the Fig. 1/Fig. 2 harnesses build the clear-and-replay oracle."""
    for module in (fig1, fig2):
        monkeypatch.setattr(module, "FibbingController", ClearAndReplayController)
    monkeypatch.setattr(fig2, "OnDemandLoadBalancer", ClearAndReplayBalancer)


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def load_golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


class TestFig1Golden:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("fig1_loads.json")

    @pytest.mark.parametrize(
        "key,kwargs",
        [
            ("baseline", dict(with_fibbing=False)),
            ("paper_lies", dict(with_fibbing=True)),
            (
                "controller_pipeline",
                dict(with_fibbing=True, use_controller_pipeline=True),
            ),
        ],
    )
    def test_link_load_vectors_are_bit_identical(self, golden, key, kwargs):
        expected = golden[key]
        result = run_fig1(**kwargs)
        assert result.label == expected["label"]
        assert result.lie_count == expected["lie_count"]
        assert result.max_load == expected["max_load"]
        assert result.split_at_a == expected["split_at_a"]
        assert result.split_at_b == expected["split_at_b"]
        actual_loads = {
            f"{source}->{target}": load
            for (source, target), load in result.link_loads.items()
        }
        assert actual_loads == expected["link_loads"]


class TestFig1RibGolden:
    """Route-level snapshots: two different RIBs can induce the same link
    loads, so the fig1 scenario's per-router RIB digests are pinned too."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("fig1_ribs.json")

    @pytest.mark.parametrize("key,with_fibbing", [("baseline", False), ("paper_lies", True)])
    def test_rib_digests_are_bit_identical(self, golden, key, with_fibbing):
        assert fig1_rib_digests(with_fibbing=with_fibbing) == golden[key]

    def test_incremental_repair_reproduces_the_digests(self, golden):
        """The lie injection repaired through the RibCache must land on the
        exact same routes as the from-scratch golden state."""
        scenario = build_demo_scenario()
        cache = RibCache()
        graph = cache.observe(ComputationGraph.from_topology(scenario.topology))
        routers = scenario.topology.routers
        assert {r: rib_digest(cache.rib(graph, r)) for r in routers} == golden["baseline"]
        lied = cache.observe(
            ComputationGraph.from_topology(scenario.topology, demo_lies())
        )
        assert {r: rib_digest(cache.rib(lied, r)) for r in routers} == golden["paper_lies"]
        assert cache.counters.incremental_updates + cache.counters.hits > 0
        assert cache.counters.full_recomputes == len(routers)


class TestFig2Golden:
    """Dynamic-experiment snapshots: the monitored-link throughput series
    (what Fig. 2 plots) and the final per-link SNMP byte counters, pinned
    bit-for-bit.  This is the guard rail of the incremental data plane: the
    path cache and the warm-start allocator must reproduce the from-scratch
    engine's traffic exactly, event by event, over the whole demo run."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("fig2_samples.json")

    @pytest.mark.parametrize(
        "key,with_controller",
        [("with_controller", True), ("no_controller", False)],
    )
    def test_link_samples_and_counters_are_bit_identical(
        self, golden, key, with_controller
    ):
        from repro.experiments.fig2 import run_demo_timeseries

        expected = golden[key]
        result = run_demo_timeseries(with_controller=with_controller, duration=60.0)
        assert result.sessions_started == expected["sessions_started"]
        actual_series = {
            f"{source}->{target}": [list(point) for point in series]
            for (source, target), series in result.throughput_series.items()
        }
        expected_series = {
            link: [list(point) for point in series]
            for link, series in expected["throughput_series"].items()
        }
        assert actual_series == expected_series
        actual_counters = {
            f"{source}->{target}": value
            for (source, target), value in result.link_counters.items()
        }
        assert actual_counters == expected["link_counters"]
        assert [list(point) for point in result.max_utilization_series] == [
            list(point) for point in expected["max_utilization_series"]
        ]
        # The incremental engine must actually have been exercised: the demo
        # run reuses cached paths across its FIB/arrival churn, and with the
        # controller's lie waves most of that churn is served from the cache.
        stats = result.dataplane_stats
        assert stats["dp_classes_reused"] > 0
        if with_controller:
            assert stats["dp_classes_reused"] > stats["dp_classes_rewalked"]

    def test_cache_disabled_run_matches_the_same_golden(self, golden, monkeypatch):
        """The from-scratch per-flow engine of ``tests/oracles.py``: the same
        run with one hash per flow per hop and no caching must land on the
        same numbers."""
        from repro.experiments.fig2 import run_demo_timeseries

        monkeypatch.setattr(fig2, "DataPlaneEngine", FromScratchDataPlaneEngine)
        expected = golden["with_controller"]
        result = run_demo_timeseries(with_controller=True, duration=60.0)
        actual_counters = {
            f"{source}->{target}": value
            for (source, target), value in result.link_counters.items()
        }
        assert actual_counters == expected["link_counters"]
        assert result.dataplane_stats["dp_classes_reused"] == 0
        assert result.dataplane_stats["dp_classes_rewalked"] > 0
        assert result.dataplane_stats["dp_alloc_warm_starts"] == 0


class TestFlashCrowdClassesGolden:
    """Aggregate-data-plane snapshots: the class-level QoE report and the
    final link byte counters of the 62,000-session scaled flash crowd,
    pinned bit-for-bit.  This is the guard rail of the aggregate-demand
    engine: demand classes, population DAG walks, byte cohorts and the
    count-weighted water-filling kernel must together reproduce the exact
    numbers session-level simulation would."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("flashcrowd_classes_qoe.json")

    @pytest.mark.parametrize(
        "key,with_controller",
        [("with_controller", True), ("no_controller", False)],
    )
    def test_qoe_and_counters_are_bit_identical(self, golden, key, with_controller):
        from repro.experiments.flashcrowd_classes import run_flashcrowd_classes

        expected = golden[key]
        result = run_flashcrowd_classes(
            sessions=62_000, with_controller=with_controller, duration=60.0
        )
        assert result.sessions == expected["sessions"]
        assert result.scale == expected["scale"]
        qoe = result.qoe
        for field_name, value in expected["qoe"].items():
            assert getattr(qoe, field_name) == value, field_name
        assert result.peak_utilization == expected["peak_utilization"]
        assert result.alarms == expected["alarms"]
        assert result.actions == expected["actions"]
        assert result.lies_active == expected["lies_active"]
        actual_counters = {
            f"{source}->{target}": value
            for (source, target), value in result.demo.link_counters.items()
        }
        assert actual_counters == expected["link_counters"]
        # The aggregate machinery was actually exercised: classes walked as
        # populations, and the per-event cost stayed class-level.
        assert result.dataplane_stats["dp_classes_rewalked"] > 0
        assert result.sessions >= 62_000


class TestLieSetGolden:
    """Installed-lie snapshots: per-prefix digests of the FakeNodeLsa sets
    the controller pipeline programs (fake-node names included), for both
    the static Fig. 1 enforcement and the dynamic Fig. 2 run.  Two engines
    must land on each digest: the plan-cache reconciler and the
    clear-and-replay oracle of ``tests/oracles.py`` — the controller-layer
    mirror of the RIB/data-plane dual-engine guard rails."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("fig1_lies.json")

    @pytest.mark.parametrize("oracle", [False, True], ids=["plan_cache", "clear_and_replay"])
    def test_fig1_pipeline_digests_are_bit_identical(self, golden, oracle, monkeypatch):
        if oracle:
            use_clear_and_replay_controller(monkeypatch)
        assert fig1_lie_digests() == golden["fig1_controller_pipeline"]

    @pytest.mark.parametrize("oracle", [False, True], ids=["plan_cache", "clear_and_replay"])
    def test_fig2_final_lie_digests_are_bit_identical(self, golden, oracle, monkeypatch):
        from repro.experiments.fig2 import run_demo_timeseries

        if oracle:
            use_clear_and_replay_controller(monkeypatch)
        result = run_demo_timeseries(with_controller=True, duration=60.0)
        assert result.lie_digests == golden["fig2_final"]
        # The run must actually have exercised the reconciler's accounting:
        # every installed lie was injected (and counted) by it.
        stats = result.controller_stats
        assert stats["ctl_lies_injected"] >= result.lies_active
        if oracle:
            # The oracle never reuses a plan.
            assert stats["ctl_plan_cache_hits"] == 0
            assert stats["ctl_merge_cache_hits"] == 0
        else:
            # The demo manages a single prefix: a reaction re-plans at most
            # its one requirement, never more.
            assert 0 < stats["ctl_plans_recomputed"] <= len(result.actions)


class TestReactionCurvesGolden:
    """Asynchronous control-loop snapshots: the seeded A7 reaction sweep
    (poll interval x reaction latency x SPF hold-down), pinned bit-for-bit —
    alarm-to-cool curves, per-action control-plane latencies and the
    ``ctl_*`` convergence bookkeeping.  This is the guard rail of the
    discrete-event timing layer: a refactor that shifts when reactions
    execute or how convergence time is charged must fail here loudly."""

    def test_reaction_rows_are_bit_identical(self):
        from dataclasses import asdict

        from repro.experiments.reaction import run_reaction_curves

        expected = load_golden("reaction_curves.json")["rows"]
        rows = run_reaction_curves(
            seed=0,
            poll_intervals=(0.5, 1.0, 2.0),
            reaction_latencies=(0.0, 0.5),
            spf_delays=(0.05, 0.2),
            duration=40.0,
        )
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert asdict(row) == want
        # The curves must actually carry the timing signal: a non-zero
        # reaction latency shows up in the per-action delays, and a longer
        # SPF hold-down accumulates more convergence time.
        by_knobs = {
            (row.poll_interval, row.reaction_latency, row.spf_delay): row
            for row in rows
        }
        assert by_knobs[(0.5, 0.5, 0.05)].mean_action_latency == 0.5
        assert by_knobs[(0.5, 0.0, 0.05)].mean_action_latency == 0.0
        assert (
            by_knobs[(0.5, 0.0, 0.2)].converge_seconds
            > by_knobs[(0.5, 0.0, 0.05)].converge_seconds
        )


class TestChaosRecoveryGolden:
    """Chaos resilience snapshots: the seeded A8 fault grid, pinned
    bit-for-bit — the clean baseline, the unrecovered crash and the
    crash-plus-resync variants, including the ``fault_*`` chaos accounting,
    the ``ctl_resync*`` recovery bookkeeping and the final lie digests
    (fake-node names included).  A drift of the fault injector's seeded
    streams, the LSDB resync, or the degraded monitoring path fails here."""

    def test_chaos_rows_are_bit_identical(self):
        from dataclasses import asdict

        from repro.experiments.chaos import run_chaos_resilience

        expected = load_golden("chaos_recovery.json")["rows"]
        rows = run_chaos_resilience(
            seed=0,
            duration=60.0,
            link_churn=2,
            lsa_loss_rate=0.02,
            poll_timeout_rate=0.1,
            staleness_horizon=5.0,
        )
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert asdict(row) == want
        # The rows must actually carry the robustness signal: the crash
        # variant loses QoE the recovery variant restores, and the recovery
        # run resynced from the LSDB instead of replanning from scratch.
        by_variant = {row.variant: row for row in rows}
        assert by_variant["clean"].total_stall_time == 0.0
        assert by_variant["crash"].total_stall_time > 0.0
        assert by_variant["crash"].reactions_abandoned > 0
        assert by_variant["recovery"].resyncs == 1
        assert by_variant["recovery"].resync_lies_recovered > 0
        assert (
            by_variant["recovery"].total_stall_time
            < by_variant["crash"].total_stall_time
        )
        # The clean variant ends with the same lies as the plain Fig. 2 run.
        assert by_variant["clean"].lie_digest == by_variant["recovery"].lie_digest


class TestOptimalityGolden:
    def test_gap_numbers_are_bit_identical(self):
        expected = load_golden("optimality_gaps.json")["rows"]
        rows = run_optimality_study(seeds=(0, 1, 2), num_routers=10, destinations=3)
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert row.seed == want["seed"]
            assert row.scheme == want["scheme"]
            assert row.max_utilization == want["max_utilization"]
            assert row.optimal_utilization == want["optimal_utilization"]
            assert row.gap == want["gap"]
            assert row.delivery_fraction == want["delivery_fraction"]
            assert row.control_state == want["control_state"]


class TestPerfDigests:
    """The ``perf/`` workloads at smoke scale, pinned per workload and seed:
    the output digest (QoE, per-link byte counters, the final lie set) and
    the run-phase counters that say how the layers got there (SPF/RIB repairs
    vs full recomputes, warm starts, lie churn, transient loops, abandoned
    reactions, dropped LSAs).  A refactor that claims to change nothing is
    checked here, not by hand-run full-scale reps."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("perf_digests.json")

    @pytest.mark.parametrize("seed", PERF_SEEDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_output_digest(self, golden, workload, seed):
        expected = golden[workload][str(seed)]["output_digest"]
        assert perf_entry(workload, seed)["output_digest"] == expected

    @pytest.mark.parametrize("seed", PERF_SEEDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_pinned_counters(self, golden, workload, seed):
        expected = golden[workload][str(seed)]["counters"]
        assert perf_entry(workload, seed)["counters"] == expected
