"""Tests for the parameter-grid sweep harness (``experiments/sweep.py``)."""

import json

import pytest

from repro.experiments.sweep import (
    EXPERIMENTS,
    SWEEPS,
    GridSpec,
    RunSpec,
    SweepGrid,
    SweepHarness,
    merge_counter_snapshots,
    run_digest,
)
from repro.util.artifacts import BENCH_SCHEMA, load_bench_json
from repro.util.errors import SweepError

QUICK = SWEEPS["quick"]


def harness(grid=QUICK, parallel="serial", **kwargs):
    return SweepHarness(grid, parallel=parallel, **kwargs)


class TestGridExpansion:
    def test_quick_grid_is_2_seeds_by_2_points_per_axis(self):
        runs = harness().expand()
        # 2 seeds x 2 lie-scaling grid points, plus the flashcrowd-classes,
        # reaction and chaos smoke rows.
        assert len(runs) == 7
        assert [run.index for run in runs] == list(range(7))

    def test_expansion_order_is_deterministic(self):
        spec = GridSpec.build("lie-scaling", seeds=(7, 3), pops=[2, 4], core_sizes=[(4,)])
        combos = spec.expand()
        # Seeds vary slowest (declaration order), parameters fastest
        # (cartesian product in sorted-name order).
        assert [seed for seed, _ in combos] == [7, 7, 3, 3]
        assert [dict(params)["pops"] for _, params in combos] == [2, 4, 2, 4]

    def test_lists_are_frozen_to_tuples(self):
        spec = GridSpec.build("lie-scaling", seeds=[0], core_sizes=[[4, 6]])
        ((_, params),) = spec.expand()
        assert dict(params)["core_sizes"] == (4, 6)

    def test_empty_seeds_rejected(self):
        with pytest.raises(SweepError):
            GridSpec.build("lie-scaling", seeds=())

    def test_empty_choice_list_rejected(self):
        with pytest.raises(SweepError):
            GridSpec.build("lie-scaling", seeds=(0,), pops=[])

    def test_unknown_experiment_rejected_at_expansion(self):
        grid = SweepGrid(name="bad", specs=(GridSpec.build("no-such", seeds=(0,)),))
        with pytest.raises(SweepError, match="no-such"):
            grid.expand()

    def test_run_labels_are_readable(self):
        run = RunSpec(index=0, experiment="lie-scaling", seed=3, params=(("pops", 2),))
        assert run.label() == "lie-scaling[seed=3, pops=2]"


class TestHarnessValidation:
    def test_rejects_unknown_parallel_mode(self):
        with pytest.raises(SweepError):
            SweepHarness(QUICK, parallel="gpu")

    def test_rejects_non_positive_workers(self):
        with pytest.raises(SweepError):
            SweepHarness(QUICK, max_workers=0)


class TestCounterMerge:
    def test_merge_is_keywise_sum(self):
        merged = merge_counter_snapshots(
            [{"b": 2, "a": 1, "ctl_converge_seconds": 0.25},
             {"b": 3, "c": 4, "ctl_converge_seconds": 0.5}]
        )
        assert list(merged.items()) == [
            ("a", 1), ("b", 5), ("c", 4), ("ctl_converge_seconds", 0.75)
        ]
        # A float counter is summed, not truncated; integer counters stay int.
        assert [type(value) for value in merged.values()] == [int, int, int, float]

    def test_merged_counters_equal_hand_summed_run_snapshots(self):
        report = harness().run()
        hand_summed = {}
        for run in report.runs:
            for key, value in run.counters.items():
                hand_summed[key] = hand_summed.get(key, 0) + value
        assert report.merged_counters == hand_summed

    def test_run_digest_ignores_timing_fields(self):
        rows = [{"flows": 10, "full_seconds": 1.23, "nested": {"incremental_seconds": 9}}]
        other = [{"flows": 10, "full_seconds": 4.56, "nested": {"incremental_seconds": 1}}]
        assert run_digest(rows) == run_digest(other)
        assert run_digest(rows) != run_digest([{"flows": 11}])


class TestDeterminism:
    def test_serial_and_process_sweeps_are_byte_identical(self):
        serial = harness(parallel="serial").run()
        process = harness(parallel="process", max_workers=4).run()
        assert serial.determinism_diff(process) == []
        assert [r.digest for r in serial.runs] == [r.digest for r in process.runs]
        assert serial.merged_counters == process.merged_counters
        assert serial.sweep_digest == process.sweep_digest

    def test_seed_variation_changes_digests(self):
        def digest_for(seed):
            grid = SweepGrid(
                name="probe",
                specs=(
                    GridSpec.build(
                        "split-approx", seeds=(seed,), table_sizes=[(2, 4)], samples=[50]
                    ),
                ),
            )
            (run,) = harness(grid).run().runs
            return run.digest

        assert digest_for(0) != digest_for(1)
        assert digest_for(0) == digest_for(0)

    def test_determinism_diff_reports_digest_mismatch(self):
        import dataclasses

        serial = harness().run()
        runs = list(serial.runs)
        runs[0] = dataclasses.replace(runs[0], digest="0" * 64)
        tampered = dataclasses.replace(serial, runs=runs)
        problems = serial.determinism_diff(tampered)
        assert len(problems) == 1
        assert "digest mismatch" in problems[0]


class TestFailureSurfacing:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_failed_run_fails_the_sweep_with_its_traceback(self, mode):
        grid = SweepGrid(
            name="failing", specs=(GridSpec.build("selftest-fail", seeds=(0, 1)),)
        )
        with pytest.raises(SweepError) as excinfo:
            SweepHarness(grid, parallel=mode, max_workers=2).run()
        message = str(excinfo.value)
        # The original worker traceback is embedded, not a bare pool error.
        assert "RuntimeError" in message
        assert "sweep selftest failure" in message
        assert "selftest-fail[seed=0" in message


class TestReportArtifact:
    def test_bench_json_round_trip(self, tmp_path):
        report = harness().run()
        path = report.save(directory=tmp_path)
        assert path == tmp_path / "BENCH_quick.json"
        payload = load_bench_json(path)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["kind"] == "sweep"
        assert payload["name"] == "quick"
        assert payload["git"]
        assert payload["run_count"] == len(report.runs)
        assert payload["sweep_digest"] == report.sweep_digest
        assert payload["merged_counters"] == report.merged_counters
        assert [run["digest"] for run in payload["runs"]] == [
            run.digest for run in report.runs
        ]
        # JSON turns tuples into lists; compare against the normalised form.
        assert payload["grid"] == json.loads(json.dumps(report.grid, default=str))

    def test_bench_json_is_valid_sorted_json(self, tmp_path):
        path = harness().run().save(directory=tmp_path)
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


class TestPredefinedSweeps:
    def test_all_sweeps_reference_registered_experiments(self):
        for grid in SWEEPS.values():
            for spec in grid.specs:
                assert spec.experiment in EXPERIMENTS
            assert grid.expand()  # expansion itself must not raise

    def test_registry_covers_the_scaling_ablations(self):
        assert {"lie-scaling", "split-approx", "fig2"} <= set(
            EXPERIMENTS
        )
