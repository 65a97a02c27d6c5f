"""Machine-readable benchmark artifacts (``BENCH_*.json``) and atomic writes.

Every benchmark and every sweep emits two artifacts: the human-readable
table ``<name>.txt`` and a machine-readable ``BENCH_<name>.json``, so the
perf trajectory can be tracked across PRs by diffing/parsing JSON instead of
scraping text tables.  Both land in the untracked :data:`OUT_DIR` unless the
caller names a directory, so running the suite leaves the tree clean; only
``make bench-record`` names the tracked locations (``benchmarks/results/``
and ``BENCH_*.json`` at the repository root).

All writes go through :func:`atomic_write_text`: the content lands in a
unique temporary file first (keyed by pid, so concurrent workers of the
process-pool sweep harness never share one) and is renamed into place with
:func:`os.replace`.  A rewrite therefore fully replaces the previous run's
artifact — no stale rows accumulate — and a reader never observes a
half-written file, even with parallel writers.

The JSON envelope is versioned (:data:`BENCH_SCHEMA`):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "kind": "benchmark" | "sweep",
      "name": "<artifact name>",
      "git": "<git describe --always --dirty>",
      ... kind-specific body ...
    }

``kind="benchmark"`` bodies carry the report's ``lines`` and structured
``tables``; ``kind="sweep"`` bodies carry the grid, per-run digests and
merged counters (see :class:`repro.experiments.sweep.SweepReport`).  Both
kinds may carry a ``metrics`` mapping of scalar measurements
(``{name: float}``) so downstream tooling can track numbers like speedups
across PRs without parsing the formatted table strings.

Artifacts produced from a dirty working tree (``git`` stamp ending in
``-dirty``) additionally carry a ``warnings`` list flagging that the tree
did not match any commit; committed artifacts are expected to be
regenerated from a clean checkout.  Dirtiness is judged on *source* files
only — modifications confined to the harness's own tracked outputs
(``BENCH_*.json``, ``benchmarks/results/``) are what a regeneration run
produces and do not taint it.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import math
import os
import pathlib
import subprocess
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.util.errors import ValidationError

__all__ = [
    "BENCH_SCHEMA",
    "DIRTY_TREE_WARNING",
    "REPO_ROOT",
    "OUT_DIR",
    "RESULTS_DIR",
    "BenchmarkReport",
    "atomic_write_text",
    "atomic_write_json",
    "bench_json_path",
    "write_bench_json",
    "load_bench_json",
    "git_describe",
]

logger = logging.getLogger(__name__)

#: Version tag of the ``BENCH_*.json`` envelope.
BENCH_SCHEMA = "repro-bench/1"

#: Warning stamped into artifacts written from a tree with local edits.
DIRTY_TREE_WARNING = (
    "artifact produced from a dirty working tree ({describe}); "
    "regenerate from a clean checkout before committing it"
)

#: Repository root (``src/repro/util/artifacts.py`` → three levels up).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: Default (git-ignored) destination of every artifact.
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

#: Where the tracked human-readable benchmark tables live.
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


#: Tracked outputs of the benchmark harness, relative to the repository root.
#: Local modifications to these paths do not count as a dirty tree: a full
#: ``make bench`` run rewrites them one by one, and the first rewrite would
#: otherwise stamp every later artifact of the same (clean-source) run as
#: dirty.
ARTIFACT_PATH_PATTERNS = ("BENCH_*.json", "benchmarks/results/*")


def _is_artifact_path(path: str) -> bool:
    path = path.strip().strip('"')
    return any(fnmatch.fnmatch(path, pattern) for pattern in ARTIFACT_PATH_PATTERNS)


def git_describe(root: Optional[pathlib.Path] = None) -> str:
    """``git describe --always`` of ``root`` plus a ``-dirty`` suffix.

    Stamped into every ``BENCH_*.json`` so an artifact can be traced back to
    the exact tree that produced it.  The dirty check looks at *source* state
    only: modifications confined to the harness's own tracked outputs (see
    :data:`ARTIFACT_PATH_PATTERNS`) are what a regeneration run produces and
    do not taint the artifacts being regenerated.  Returns ``"unknown"`` when
    git is unavailable (e.g. a source tarball).
    """
    cwd = root or REPO_ROOT
    try:
        describe = subprocess.run(
            ["git", "describe", "--always"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not describe:
        return "unknown"
    for line in status.splitlines():
        # Porcelain format: two status columns, a space, then the path
        # (``old -> new`` for renames — either side counts).
        paths = line[3:].split(" -> ")
        if any(not _is_artifact_path(path) for path in paths):
            return f"{describe}-dirty"
    return describe


def atomic_write_text(path: pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` via a unique tmp file + rename.

    The temporary name embeds the pid, so parallel workers rewriting the
    same artifact never interleave partial lines; :func:`os.replace` makes
    the final step atomic on POSIX.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()
    return path


def atomic_write_json(path: pathlib.Path, payload: Dict[str, object]) -> pathlib.Path:
    """Atomically write ``payload`` as canonical (sorted-key) JSON."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )


def bench_json_path(name: str, directory: Optional[pathlib.Path] = None) -> pathlib.Path:
    """The ``BENCH_<name>.json`` path for an artifact name (:data:`OUT_DIR` default)."""
    if not name or any(sep in name for sep in ("/", "\\", "\0")):
        raise ValidationError(f"invalid artifact name {name!r}")
    base = pathlib.Path(directory) if directory else OUT_DIR
    return base / f"BENCH_{name}.json"


def _validated_metrics(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Normalise a metrics mapping to ``{str: float}`` with finite values."""
    validated: Dict[str, float] = {}
    for key, value in metrics.items():
        if not isinstance(key, str) or not key:
            raise ValidationError(f"metric name {key!r} must be a non-empty string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"metric {key!r} value {value!r} is not a number")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"metric {key!r} value {value!r} is not finite")
        validated[key] = value
    return validated


def write_bench_json(
    name: str,
    kind: str,
    body: Dict[str, object],
    directory: Optional[pathlib.Path] = None,
    metrics: Optional[Mapping[str, float]] = None,
) -> pathlib.Path:
    """Write one ``BENCH_<name>.json`` artifact and return its path.

    ``metrics`` (``{name: float}``) lands in the payload as a structured
    ``metrics`` mapping, separate from the formatted ``lines``/``tables``.
    A dirty git tree is recorded as a ``warnings`` entry (and logged).
    """
    path = bench_json_path(name, directory)
    describe = git_describe()
    payload = {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "name": name,
        "git": describe,
        **body,
    }
    if metrics is not None:
        payload["metrics"] = _validated_metrics(metrics)
    if describe.endswith("-dirty"):
        warning = DIRTY_TREE_WARNING.format(describe=describe)
        logger.warning("%s: %s", path.name, warning)
        warnings = list(payload.get("warnings", []))
        warnings.append(warning)
        payload["warnings"] = warnings
    return atomic_write_json(path, payload)


def load_bench_json(path: pathlib.Path) -> Dict[str, object]:
    """Load and validate one ``BENCH_*.json`` artifact."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValidationError(
            f"{path} is not a {BENCH_SCHEMA} artifact "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    for key in ("kind", "name", "git"):
        if key not in payload:
            raise ValidationError(f"{path} is missing the {key!r} envelope field")
    if "metrics" in payload:
        metrics = payload["metrics"]
        if not isinstance(metrics, dict):
            raise ValidationError(f"{path} has a non-mapping metrics field")
        _validated_metrics(metrics)
    return payload


class BenchmarkReport:
    """Collects the rows a benchmark reproduces and writes both artifacts.

    Used by the ``report`` fixture of ``benchmarks/conftest.py``: lines and
    tables are echoed to stdout as they are added (pytest's capture would
    otherwise hide them) and :meth:`save` rewrites
    ``<results_dir>/<name>.txt`` plus ``<bench_dir>/BENCH_<name>.json`` atomically
    — each save fully replaces the previous run's artifact, so regenerated
    results never accumulate stale rows, and parallel workers never
    interleave partial writes.
    """

    def __init__(
        self,
        name: str,
        results_dir: Optional[pathlib.Path] = None,
        bench_dir: Optional[pathlib.Path] = None,
    ) -> None:
        self.name = name
        self.lines: List[str] = []
        #: Structured copies of every :meth:`add_table` call, for the JSON.
        self.tables: List[Dict[str, object]] = []
        #: Scalar measurements (``{name: float}``) for the JSON ``metrics``.
        self.metrics: Dict[str, float] = {}
        self.results_dir = pathlib.Path(results_dir) if results_dir else OUT_DIR
        self.bench_dir = pathlib.Path(bench_dir) if bench_dir else OUT_DIR

    def add_line(self, text: str = "") -> None:
        """Append one line to the report (also echoed to stdout)."""
        self.lines.append(text)
        print(text)

    def add_metric(self, name: str, value: float) -> None:
        """Record one scalar measurement for the JSON ``metrics`` mapping.

        Metrics are the machine-readable counterpart of the formatted
        tables: plain floats keyed by name, validated at save time.
        """
        self.metrics[name] = float(value)

    def add_table(self, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
        """Append a fixed-width table (recorded structurally for the JSON)."""
        rows = [tuple(str(cell) for cell in row) for row in rows]
        self.tables.append(
            {"headers": [str(header) for header in headers], "rows": [list(row) for row in rows]}
        )
        widths = [len(header) for header in headers]
        for row in rows:
            widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
        line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
        self.add_line(line)
        self.add_line("  ".join("-" * width for width in widths))
        for row in rows:
            self.add_line("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))

    def save(self) -> pathlib.Path:
        """Atomically rewrite ``<name>.txt`` and ``BENCH_<name>.json``."""
        txt_path = atomic_write_text(
            self.results_dir / f"{self.name}.txt", "\n".join(self.lines) + "\n"
        )
        write_bench_json(
            self.name,
            "benchmark",
            {"lines": self.lines, "tables": self.tables},
            directory=self.bench_dir,
            metrics=self.metrics,
        )
        return txt_path
