"""Tier-1 smoke test of the benchmark itself (a few seconds).

Runs the real command at ``--scale smoke`` and holds the pieces to each
other: the names it emits to ``BENCHMARK.json`` and ``perf/metrics.py``, the
trace to its own invariants, the tracer to leaving nothing behind, the
flash-crowd world to the shipped experiment it claims to be, and
``compare.py`` to its verdict rules.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare
from perf.metrics import COMPARE_ONLY, END_TO_END, PER_LAYER, WORKLOADS, Metric, span_self_times
from perf.trace import CHAIN, END, ID, NAME, PARENT, SPAN_FIELDS, START, TARGETS, Tracer
from perf.worlds import SIZES, LoopWorld, Rep, flashcrowd_inputs, run_rep

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perf" / "out" / "smoke"


def run_command(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", "--scale", "smoke", "--out", str(OUT), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def tracked_state() -> str:
    done = subprocess.run(
        ["git", "status", "--porcelain", "perf/"], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        pytest.skip("not a git checkout")
    return done.stdout


def test_benchmark_json_echoes_the_definitions():
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == WORKLOADS
    assert [Metric(**entry) for entry in BENCHMARK["end_to_end"]] == [
        Metric(m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [Metric(**entry) for entry in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_all_workloads_untraced_and_traced():
    before = tracked_state()
    done = run_command("--seconds", "0.2")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert tracked_state() == before

    document = json.loads((OUT / "result.json").read_text())
    assert set(document["host"]) >= {"nproc", "python", "numpy", "scipy", "git"}
    assert sorted(document["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, result in document["workloads"].items():
        assert not result["failures"], (name, result["failures"])
        assert result["reps"] >= 2 and result["traced_reps"] == 1 and result["output_digest"]
        assert set(result["end_to_end"]) == {m.name for m in END_TO_END + COMPARE_ONLY}
        assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert result["per_layer"]["bench.unattributed_share"] <= 0.10
        for metric in END_TO_END:
            assert result["end_to_end"][metric.name]["median"] > 0, (name, metric.name)
        first = json.loads((OUT / f"trace-{name}.jsonl").read_text().splitlines()[0])
        assert tuple(first) == SPAN_FIELDS
    # A run agrees with itself.
    assert compare.main([str(OUT / "result.json")] * 2) == 0


@pytest.mark.parametrize("traced, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_mode_ends_with_the_contract_line(traced, section):
    done = run_command("--workload", "planner_churn_60", "--seed", "4", "--seconds", "0.1",
                       "--trace", traced)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {name: value["unit"] for name, value in line["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in BENCHMARK[section]
    }


def test_trace_nests_and_the_wrappers_come_off():
    import importlib

    def current():
        found = [vars(importlib.import_module("repro.util.timeline").Timeline)["schedule"]]
        for module_name, owner, attr, _name, _layer in TARGETS:
            module = importlib.import_module(module_name)
            found.append(vars(module)[attr] if owner is None else vars(getattr(module, owner))[attr])
        return found

    originals = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(new is not old for new, old in zip(current(), originals))
        rep = run_rep("isp_chaos_120", 1, SIZES["smoke"], tracer)
    finally:
        tracer.uninstall()
    assert all(new is old for new, old in zip(current(), originals))
    import perf.worlds
    assert not hasattr(perf.worlds.aggregate_qoe, "__wrapped__")

    assert not rep.failures, rep.failures
    spans = tracer.spans
    names = {span[NAME] for span in spans}
    assert {"bench.setup", "bench.run", "core.react", "core.resync", "event:fault:link_down",
            "event:spf", "igp.spf", "dataplane.reroute", "video.qoe"} <= names
    for span in spans:
        assert span[END] >= span[START]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    assert min(span_self_times(spans)) >= -1e-9
    # Deferred work stays on the chain of the reaction that caused it.
    reactions = {span[ID] for span in spans if span[NAME] == "core.react"}
    assert any(span[CHAIN] in reactions for span in spans if span[NAME] == "event:fib-install")


def test_flashcrowd_world_is_the_shipped_experiment():
    from repro.experiments.flashcrowd_classes import run_flashcrowd_classes

    shipped = run_flashcrowd_classes(sessions=SIZES["smoke"].sessions, seed=3).demo
    world = LoopWorld(flashcrowd_inputs(3, SIZES["smoke"]))
    world.run()
    rep = Rep()
    world.collect(rep)
    assert not rep.failures
    assert world.engine.all_link_counters() == shipped.link_counters
    assert world.controller.stats.snapshot() == shipped.controller_stats
    assert (rep.counters["sessions"], rep.stall_s) == (
        shipped.qoe.sessions, shipped.qoe.total_stall_time)
    assert len(world.reaction_seconds) == len(shipped.actions) > 0


def test_compare_verdicts():
    timing = Metric("run_wall_s", "s", "lower", bound=0.10)
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(timing, steady, [1.05, 1.04, 1.06, 1.05], 1.0, 1.05) == "ok"
    assert compare.verdict(timing, steady, [1.2, 1.21, 1.19, 1.2], 1.0, 1.2) == "REGRESSION"
    assert compare.verdict(timing, steady, [0.8, 0.81, 0.79, 0.8], 1.0, 0.8) == "better"
    noisy = [0.8, 1.2, 0.9, 1.3]
    assert compare.verdict(timing, noisy, [0.85, 1.25, 0.95, 1.3], 1.05, 1.1) == "unresolved"
    assert compare.verdict(timing, noisy, [0.5, 0.7, 0.4, 0.75], 1.05, 0.6) == "better"
    stall = Metric("stall_s", "s", "lower", floor=1e-9)
    assert compare.verdict(stall, [0.0, 0.0], [0.0, 0.0], 0.0, 0.0) == "ok"
    assert compare.verdict(stall, [0.0, 0.0], [2.5, 2.5], 0.0, 2.5) == "REGRESSION"
    share = Metric("smooth_share", "ratio", "higher", bound=0.05)
    assert compare.verdict(share, [1.0, 1.0], [0.9, 0.9], 1.0, 0.9) == "REGRESSION"
