"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper (or one ablation
from DESIGN.md).  Besides timing the underlying computation with
pytest-benchmark, each benchmark *prints* the reproduced rows/series and
saves them through :class:`repro.util.artifacts.BenchmarkReport`, which
atomically rewrites ``<name>.txt`` (tmp file + rename, keyed per test and
per pid — safe under process pools, and a regenerated result fully replaces
the previous run instead of appending stale rows) plus a machine-readable
``BENCH_<name>.json``.  Both go to the git-ignored ``benchmarks/out/``, so
running the suite leaves the tree clean; ``BENCH_RECORD=1`` (the
``make bench-record`` target) rewrites the tracked copies instead —
``benchmarks/results/<name>.txt`` and ``BENCH_<name>.json`` at the
repository root.

Setting ``BENCH_QUICK=1`` in the environment switches the suite into a
reduced smoke mode (smaller sweeps and topologies) suitable for CI; the
``make bench-quick`` target wraps this.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.util.artifacts import REPO_ROOT, RESULTS_DIR, BenchmarkReport  # noqa: E402

__all__ = ["RESULTS_DIR", "BenchmarkReport"]


@pytest.fixture(autouse=True)
def _freeze_collection_heap():
    """Keep cyclic-GC pauses proportional to what a benchmark allocates.

    When the whole suite runs (`pytest` from the repository root), test
    collection imports 50+ modules before the first benchmark executes;
    generation-2 collections triggered inside a timed section then scan
    that entire heap, taxing the allocation-heavy incremental engines far
    more than the from-scratch baselines and skewing the measured
    speedups (observed: the reconcile benchmark dropping from ~3x to
    ~1.6x purely from suite-context heap size).  Freezing the pre-existing
    heap for the duration of each benchmark removes it from the
    collector's view; everything the benchmark itself allocates is still
    tracked normally.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def report(request) -> BenchmarkReport:
    """Per-test report, saved automatically at teardown."""
    tracked = (
        {"results_dir": RESULTS_DIR, "bench_dir": REPO_ROOT}
        if os.environ.get("BENCH_RECORD") == "1"
        else {}
    )
    bench_report = BenchmarkReport(request.node.name, **tracked)
    yield bench_report
    if bench_report.lines:
        bench_report.save()
