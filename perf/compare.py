"""Compare two ``perf/out/result.json`` files metric by metric.

    python3 perf/compare.py BASELINE.json CANDIDATE.json

For every workload and every end-to-end metric the candidate's median may be
worse than the baseline's by the metric's bound (a share of the baseline's
median) or its absolute floor, whichever is larger.  Verdicts:

* ``ok`` — within the bound (``better`` when it moved the right way by more
  than the bound);
* ``REGRESSION`` — worse by more than the bound;
* ``unresolved`` — the run-to-run spread (p25-p75 of either side's reps) is
  wider than the bound, so "no worse" cannot be told from noise — unless
  every rep of one side beats every rep of the other, which settles it.

Exit status 1 if any metric regressed, else 0; unresolved metrics are
listed and counted but do not fail the comparison by themselves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)  # see perf/run.py

from perf.metrics import COMPARE_ONLY, END_TO_END, Metric, percentile  # noqa: E402

__all__ = ["verdict", "compare", "main"]


def verdict(metric: Metric, baseline: Sequence[float], candidate: Sequence[float],
            baseline_median: float, candidate_median: float) -> str:
    """Judge one metric on one workload from both sides' per-rep samples."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (candidate_median - baseline_median)
    allowed = max(metric.bound * abs(baseline_median), metric.floor)
    spread = max(
        percentile(side, 0.75) - percentile(side, 0.25) for side in (baseline, candidate)
    )
    if spread > allowed:
        if max(sign * value for value in candidate) < min(sign * value for value in baseline):
            return "better"
        if min(sign * value for value in candidate) > max(sign * value for value in baseline):
            return "REGRESSION"
        return "unresolved"
    if worse_by > allowed:
        return "REGRESSION"
    return "better" if -worse_by > allowed else "ok"


def compare(baseline: Dict[str, object], candidate: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    for workload, before in baseline["workloads"].items():
        after = candidate["workloads"].get(workload)
        if after is None:
            continue
        for metric in END_TO_END + COMPARE_ONLY:
            old = before["end_to_end"][metric.name]["median"]
            new = after["end_to_end"][metric.name]["median"]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "baseline": old,
                    "candidate": new,
                    "verdict": verdict(
                        metric, before["samples"][metric.name], after["samples"][metric.name], old, new
                    ),
                }
            )
        if before["output_digest"] != after["output_digest"]:
            rows.append(
                {"workload": workload, "metric": "output_digest", "unit": "",
                 "baseline": before["output_digest"][:12], "candidate": after["output_digest"][:12],
                 "verdict": "differs"}
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    baseline, candidate = (json.loads(Path(path).read_text()) for path in argv)
    for side, document in (("baseline", baseline), ("candidate", candidate)):
        host = document["host"]
        print(f"{side}: git {host['git'][:12]} seed {document['seed']} scale {document['scale']} "
              f"nproc {host['nproc']} python {host['python']} numpy {host['numpy']}")
    rows = compare(baseline, candidate)
    for row in rows:
        old, new = row["baseline"], row["candidate"]
        change = f"{100 * (new - old) / old:+.1f} %" if isinstance(old, float) and old else ""
        print(f"{row['workload']:<18} {row['metric']:<16} {old!s:>14.12} -> {new!s:<14.12} "
              f"{row['unit']:<6} {change:>9}  {row['verdict']}")
    counts = {name: sum(row["verdict"] == name for row in rows)
              for name in ("REGRESSION", "unresolved", "differs")}
    print(f"{counts['REGRESSION']} regressed, {counts['unresolved']} unresolved, "
          f"{counts['differs']} output digests differ, {len(rows)} compared")
    return 1 if counts["REGRESSION"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
