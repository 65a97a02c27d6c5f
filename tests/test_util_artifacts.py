"""Tests for the benchmark artifact helpers (``util/artifacts.py``)."""

import json

import pytest

from repro.util.artifacts import (
    BENCH_SCHEMA,
    BenchmarkReport,
    atomic_write_text,
    bench_json_path,
    git_describe,
    load_bench_json,
    write_bench_json,
)
from repro.util.errors import ValidationError


class TestAtomicWrite:
    def test_rewrite_fully_replaces_previous_content(self, tmp_path):
        # Regression: the old benchmark report appended via write_text on a
        # shared path; a regenerated run must not accumulate stale rows.
        path = tmp_path / "report.txt"
        atomic_write_text(path, "old row 1\nold row 2\n")
        atomic_write_text(path, "new row\n")
        assert path.read_text() == "new row\n"

    def test_no_tmp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "a.txt"
        atomic_write_text(path, "x\n")
        assert path.read_text() == "x\n"


class TestBenchJson:
    def test_path_defaults_to_repo_root(self):
        """...to the ignored ``benchmarks/out/`` under it: running the suite
        must leave the tree clean (only ``make bench-record`` names tracked paths)."""
        from repro.util.artifacts import REPO_ROOT

        assert bench_json_path("demo") == REPO_ROOT / "benchmarks" / "out" / "BENCH_demo.json"
        report = BenchmarkReport("demo")
        assert report.results_dir == report.bench_dir == REPO_ROOT / "benchmarks" / "out"

    def test_rejects_path_separators_in_names(self):
        with pytest.raises(ValidationError):
            bench_json_path("../escape")
        with pytest.raises(ValidationError):
            bench_json_path("")

    def test_write_then_load_round_trip(self, tmp_path):
        path = write_bench_json("demo", "benchmark", {"lines": ["a"]}, directory=tmp_path)
        payload = load_bench_json(path)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["kind"] == "benchmark"
        assert payload["name"] == "demo"
        assert payload["lines"] == ["a"]
        assert payload["git"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValidationError):
            load_bench_json(path)

    def test_load_rejects_missing_envelope_fields(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA, "kind": "benchmark"}))
        with pytest.raises(ValidationError, match="name"):
            load_bench_json(path)

    def test_git_describe_returns_something(self):
        assert git_describe()  # "unknown" at worst, never empty

    def test_git_describe_ignores_regenerated_artifacts(self, tmp_path):
        # Regeneration paradox: `make bench` rewrites the tracked BENCH_*.json
        # one by one, so the first rewrite would mark every later artifact of
        # the same clean-source run as dirty.  Only source dirt counts.
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
                cwd=tmp_path,
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        (tmp_path / "src.py").write_text("x = 1\n")
        (tmp_path / "BENCH_demo.json").write_text("{}\n")
        (tmp_path / "benchmarks" / "results" / "demo.txt").write_text("old\n")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")

        clean = git_describe(tmp_path)
        assert not clean.endswith("-dirty") and clean != "unknown"

        # Rewriting tracked artifacts (plus a brand-new one) stays clean ...
        (tmp_path / "BENCH_demo.json").write_text('{"new": 1}\n')
        (tmp_path / "BENCH_other.json").write_text("{}\n")
        (tmp_path / "benchmarks" / "results" / "demo.txt").write_text("new\n")
        assert git_describe(tmp_path) == clean

        # ... but touching source flips the stamp to dirty.
        (tmp_path / "src.py").write_text("x = 2\n")
        assert git_describe(tmp_path) == f"{clean}-dirty"

    def test_metrics_land_in_payload(self, tmp_path):
        path = write_bench_json(
            "demo",
            "benchmark",
            {"lines": []},
            directory=tmp_path,
            metrics={"speedup": 4.2, "events": 30},
        )
        payload = load_bench_json(path)
        assert payload["metrics"] == {"speedup": 4.2, "events": 30.0}
        assert isinstance(payload["metrics"]["events"], float)

    def test_metrics_reject_bad_names_and_values(self, tmp_path):
        with pytest.raises(ValidationError, match="non-empty string"):
            write_bench_json("demo", "benchmark", {}, tmp_path, metrics={"": 1.0})
        with pytest.raises(ValidationError, match="not a number"):
            write_bench_json("demo", "benchmark", {}, tmp_path, metrics={"a": "1"})
        with pytest.raises(ValidationError, match="not a number"):
            write_bench_json("demo", "benchmark", {}, tmp_path, metrics={"a": True})
        with pytest.raises(ValidationError, match="not finite"):
            write_bench_json(
                "demo", "benchmark", {}, tmp_path, metrics={"a": float("nan")}
            )

    def test_load_rejects_malformed_metrics(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "kind": "benchmark",
                    "name": "x",
                    "git": "abc",
                    "metrics": {"a": "not-a-number"},
                }
            )
        )
        with pytest.raises(ValidationError):
            load_bench_json(path)

    def test_dirty_tree_stamps_warning(self, tmp_path, monkeypatch, caplog):
        import logging

        import repro.util.artifacts as artifacts

        monkeypatch.setattr(artifacts, "git_describe", lambda root=None: "abc1234-dirty")
        with caplog.at_level(logging.WARNING, logger="repro.util.artifacts"):
            path = artifacts.write_bench_json("demo", "benchmark", {}, tmp_path)
        payload = load_bench_json(path)
        assert payload["git"] == "abc1234-dirty"
        assert any("dirty working tree" in warning for warning in payload["warnings"])
        assert any("dirty working tree" in record.message for record in caplog.records)

    def test_clean_tree_has_no_warnings(self, tmp_path, monkeypatch):
        import repro.util.artifacts as artifacts

        monkeypatch.setattr(artifacts, "git_describe", lambda root=None: "abc1234")
        path = artifacts.write_bench_json("demo", "benchmark", {}, tmp_path)
        assert "warnings" not in load_bench_json(path)


class TestBenchmarkReport:
    def test_save_writes_txt_and_json(self, tmp_path, capsys):
        report = BenchmarkReport(
            "demo", results_dir=tmp_path / "results", bench_dir=tmp_path
        )
        report.add_line("hello")
        report.add_table(["a", "b"], [(1, 2), (3, 4)])
        report.add_metric("speedup", 3)
        txt_path = report.save()
        assert txt_path == tmp_path / "results" / "demo.txt"
        text = txt_path.read_text()
        assert "hello" in text and "1  2" in text
        payload = load_bench_json(tmp_path / "BENCH_demo.json")
        assert payload["kind"] == "benchmark"
        assert payload["lines"] == report.lines
        assert payload["tables"] == [
            {"headers": ["a", "b"], "rows": [["1", "2"], ["3", "4"]]}
        ]
        assert payload["metrics"] == {"speedup": 3.0}
        assert "hello" in capsys.readouterr().out  # lines echo to stdout

    def test_resave_replaces_instead_of_appending(self, tmp_path):
        kwargs = {"results_dir": tmp_path / "results", "bench_dir": tmp_path}
        first = BenchmarkReport("demo", **kwargs)
        first.add_line("stale")
        first.save()
        second = BenchmarkReport("demo", **kwargs)
        second.add_line("fresh")
        path = second.save()
        assert path.read_text() == "fresh\n"
        assert load_bench_json(tmp_path / "BENCH_demo.json")["lines"] == ["fresh"]
