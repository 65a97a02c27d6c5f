PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast examples bench bench-quick bench-record sweep sweep-quick golden perf-ab

## Tier-1 verification: the full test suite plus benchmarks-as-tests.
test:
	$(PYTHON) -m pytest -x -q

## Tests only (skips the benchmarks directory).
test-fast:
	$(PYTHON) -m pytest tests/ -q

## Run every example script; fails on the first non-zero exit.
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done

## Full benchmark run; reproduced tables/series and BENCH_*.json land in the
## git-ignored benchmarks/out/ (like every other target except bench-record).
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## Reduced smoke-mode benchmarks (what CI runs).
bench-quick:
	BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ -q

## The one target that rewrites the tracked trajectory: full benchmarks into
## benchmarks/results/*.txt + BENCH_*.json at the repository root, then the
## full sweep into BENCH_default.json.  Run from a clean checkout and commit.
bench-record:
	BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks/ -q
	$(PYTHON) -m repro sweep --parallel process --check --out .

## Full parameter-grid sweep across a process pool; writes
## benchmarks/out/BENCH_default.json and verifies the process-pool run is
## byte-identical to a serial re-run of the same grid.
sweep:
	$(PYTHON) -m repro sweep --parallel process --check

## Reduced smoke sweep (2 seeds x 2 grid points per axis; what CI runs).
sweep-quick:
	BENCH_QUICK=1 $(PYTHON) -m repro sweep --parallel process --check

## Regenerate the golden regression snapshots (only when a change is meant
## to alter experiment numbers — say so in the commit message).
golden:
	$(PYTHON) tests/golden/generate.py

## A/B the working tree against HEAD on one perf/ workload: PAIRS alternating
## same-session pairs of perf/run.py, seeds SEED0, SEED0+1, ...
W ?= flashcrowd_1m
PAIRS ?= 10
SEED0 ?= 1
perf-ab:
	$(PYTHON) scripts/perf_ab.py $(W) --pairs $(PAIRS) --seed0 $(SEED0)
