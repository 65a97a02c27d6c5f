"""Tests for the command-line interface."""

import importlib.util
import inspect

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_every_subcommand_registered(self):
        parser = build_parser()
        subcommands = {"fig1", "fig2", "qoe", "overhead", "optimality", "lie-scaling",
                       "split-approx"}
        # argparse stores subparsers in the last action.
        choices = None
        for action in parser._actions:  # noqa: SLF001 - inspecting argparse internals in a test
            if hasattr(action, "choices") and action.choices:
                choices = set(action.choices)
        assert choices is not None
        assert choices == subcommands

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


class TestCommands:
    def test_fig1_prints_loads(self, capsys):
        assert main(["fig1"]) == 0
        output = capsys.readouterr().out
        assert "200.0" in output
        assert "66.7" in output
        assert "3 fake nodes" in output

    def test_fig1_pipeline_variant(self, capsys):
        assert main(["fig1", "--pipeline"]) == 0
        assert "66.7" in capsys.readouterr().out

    def test_split_approx_prints_rows(self, capsys):
        assert main(["split-approx", "--table-sizes", "2", "8", "--samples", "20"]) == 0
        output = capsys.readouterr().out
        assert "table size" in output
        assert "2" in output and "8" in output

    def test_lie_scaling_prints_rows(self, capsys):
        assert main(["lie-scaling", "--core-sizes", "4", "--pops", "2", "--destinations", "2"]) == 0
        output = capsys.readouterr().out
        assert "lies (merged)" in output

    def test_overhead_prints_both_schemes(self, capsys):
        assert main(["overhead", "--destinations", "1", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "fibbing" in output
        assert "mpls-rsvp-te" in output

    def test_fig2_short_run(self, capsys):
        assert main(["fig2", "--duration", "25"]) == 0
        output = capsys.readouterr().out
        assert "B-R2" in output
        assert "QoE" in output

    def test_qoe_compares_with_and_without_the_controller(self, capsys):
        # 40 s covers the flash crowd: half the sessions stall without lies.
        assert main(["qoe", "--duration", "40"]) == 0
        output = capsys.readouterr().out
        assert "with controller" in output
        smooth = next(line for line in output.splitlines() if line.startswith("smooth sessions"))
        assert smooth.split()[2:] == ["62/62", "31/62"]

    def test_optimality_small_instance(self, capsys):
        assert main(["optimality", "--seeds", "1", "--routers", "8", "--destinations", "2"]) == 0
        output = capsys.readouterr().out
        assert "optimal-mcf" in output
        assert "fibbing" in output


class TestSweepHarnessRemoved:
    """The parameter-grid sweep was a second way to run the experiments
    above; its subcommand, module, error type and sweep-only parameters
    stay gone."""

    def test_sweep_subcommand_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_sweep_module_is_gone(self):
        assert importlib.util.find_spec("repro.experiments.sweep") is None

    def test_sweep_error_is_gone(self):
        import repro.util.errors as errors

        assert not hasattr(errors, "SweepError")

    def test_sweep_only_parameters_are_gone(self):
        from repro.experiments.flashcrowd_classes import run_flashcrowd_classes
        from repro.util.artifacts import write_bench_json

        assert "keep_demo_result" not in inspect.signature(run_flashcrowd_classes).parameters
        assert "kind" not in inspect.signature(write_bench_json).parameters
