"""Tests for the overhead, optimality and scaling experiment harnesses,
and for the seeding contract every seeded experiment entry point keeps."""

from dataclasses import asdict

import pytest

from repro.experiments.chaos import run_chaos_resilience
from repro.experiments.fig2 import run_demo_timeseries
from repro.experiments.flashcrowd_classes import run_flashcrowd_classes
from repro.experiments.optimality import run_optimality_study
from repro.experiments.overhead import build_flash_crowd_demands, run_overhead_comparison
from repro.experiments.reaction import run_reaction_curves
from repro.experiments.scaling import run_lie_scaling, run_split_approximation
from repro.topologies.random import random_topology
from repro.util.errors import ValidationError


class TestFlashCrowdDemands:
    def test_demand_builder_targets_requested_destinations(self):
        topology = random_topology(10, seed=0)
        demands = build_flash_crowd_demands(topology, destinations=3, seed=0)
        assert len(demands.prefixes) == 3
        assert demands.total() > 0

    def test_sources_never_colocated_with_destination(self):
        topology = random_topology(10, seed=1)
        demands = build_flash_crowd_demands(topology, destinations=2, seed=1)
        for entry in demands.entries():
            attachment = topology.prefix_attachments(entry.prefix)[0].router
            assert entry.ingress != attachment

    def test_too_many_destinations_rejected(self):
        topology = random_topology(5, seed=0)
        with pytest.raises(ValidationError):
            build_flash_crowd_demands(topology, destinations=50)


class TestOverheadComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_overhead_comparison(destination_counts=(1, 2), seed=0)

    def test_rows_cover_both_schemes_and_counts(self, rows):
        assert {(row.scheme, row.destinations) for row in rows} == {
            ("fibbing", 1),
            ("fibbing", 2),
            ("mpls-rsvp-te", 1),
            ("mpls-rsvp-te", 2),
        }

    def test_fibbing_has_no_per_packet_overhead(self, rows):
        for row in rows:
            if row.scheme == "fibbing":
                assert row.per_packet_overhead_bytes == 0
            else:
                assert row.per_packet_overhead_bytes > 0

    def test_fibbing_needs_fewer_control_messages(self, rows):
        for count in (1, 2):
            fibbing = next(r for r in rows if r.scheme == "fibbing" and r.destinations == count)
            mpls = next(r for r in rows if r.scheme == "mpls-rsvp-te" and r.destinations == count)
            assert fibbing.control_messages <= mpls.control_messages

    def test_both_schemes_achieve_similar_utilization(self, rows):
        for count in (1, 2):
            fibbing = next(r for r in rows if r.scheme == "fibbing" and r.destinations == count)
            mpls = next(r for r in rows if r.scheme == "mpls-rsvp-te" and r.destinations == count)
            assert fibbing.max_utilization <= mpls.max_utilization * 1.25 + 1e-9


class TestOptimalityStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_optimality_study(seeds=(0, 1), num_routers=8, destinations=2)

    def test_every_scheme_appears_for_every_seed(self, rows):
        schemes = {row.scheme for row in rows}
        assert {"single-shortest-path", "igp-ecmp", "fibbing", "mpls-rsvp-te", "optimal-mcf"} <= schemes
        assert {row.seed for row in rows} == {0, 1}

    def test_optimum_is_a_lower_bound(self, rows):
        for row in rows:
            assert row.max_utilization >= row.optimal_utilization - 1e-6
            assert row.gap >= -1e-6

    def test_fibbing_gap_is_small(self, rows):
        gaps = [row.gap for row in rows if row.scheme == "fibbing"]
        assert max(gaps) < 0.15

    def test_fibbing_never_worse_than_plain_igp(self, rows):
        by_seed = {}
        for row in rows:
            by_seed.setdefault(row.seed, {})[row.scheme] = row.max_utilization
        for seed, values in by_seed.items():
            assert values["fibbing"] <= values["igp-ecmp"] + 1e-9


class TestScalingAblations:
    def test_lie_scaling_merger_always_helps(self):
        rows = run_lie_scaling(core_sizes=(4, 6), pops=2, destinations=2, seed=0)
        assert len(rows) == 2
        for row in rows:
            assert row.lies_with_merger <= row.lies_without_merger
            assert 0.0 <= row.reduction <= 1.0
            assert row.routers == row.core_size + 2 * 2

    def test_split_approximation_error_decreases_with_table_size(self):
        rows = run_split_approximation(table_sizes=(2, 4, 8, 16), samples=50, seed=1)
        errors = [row.mean_error for row in rows]
        assert errors == sorted(errors, reverse=True)
        assert rows[-1].mean_error < 0.1
        assert all(row.worst_error >= row.mean_error for row in rows)

    def test_split_approximation_validation(self):
        with pytest.raises(ValidationError):
            run_split_approximation(samples=0)


def demo_outputs(result):
    """A Fig. 2-style run's deterministic outputs (wall-clock left out)."""
    return (
        result.throughput_series,
        result.link_counters,
        result.lie_digests,
        result.controller_stats,
        result.dataplane_stats,
        asdict(result.qoe),
    )


#: Every seeded experiment entry point, at smoke sizes, as deterministic rows.
SEEDED_ENTRY_POINTS = {
    "lie-scaling": lambda: [
        asdict(row) for row in run_lie_scaling(core_sizes=(4,), pops=2, destinations=2, seed=0)
    ],
    "split-approx": lambda: [
        asdict(row) for row in run_split_approximation(table_sizes=(2, 4), samples=50, seed=0)
    ],
    "fig2": lambda: demo_outputs(run_demo_timeseries(duration=25.0, seed=0)),
    "flashcrowd-classes": lambda: demo_outputs(
        run_flashcrowd_classes(sessions=6_200, duration=25.0, seed=0).demo
    ),
    "reaction": lambda: [
        asdict(row)
        for row in run_reaction_curves(
            seed=0,
            duration=25.0,
            poll_intervals=(0.5, 1.0),
            reaction_latencies=(0.0, 0.5),
            spf_delays=(0.05,),
        )
    ],
    "chaos": lambda: [
        asdict(row)
        for row in run_chaos_resilience(
            seed=0,
            link_churn=1,
            lsa_loss_rate=0.02,
            poll_timeout_rate=0.1,
            staleness_horizon=5.0,
        )
    ],
}


class TestSeeding:
    def test_seed_variation_changes_rows(self):
        def rows(seed):
            return run_split_approximation(table_sizes=(2, 4), samples=50, seed=seed)

        assert rows(0) != rows(1)
        assert rows(0) == rows(0)

    @pytest.mark.parametrize("name", sorted(SEEDED_ENTRY_POINTS))
    def test_a_second_run_in_one_process_repeats_the_first(self, name):
        # No cache, counter or RNG state may carry over from one run to the
        # next: each entry point builds its whole world from its arguments.
        run = SEEDED_ENTRY_POINTS[name]
        assert run() == run()
