PYTHON ?= python
export PYTHONPATH := src

.PHONY: test compiled bench bench-quick clean

test:
	$(PYTHON) -m pytest -x -q

## Build the optional C run-loop backend (repro.sim._cengine) in place.
## Purely an accelerator: results are bit-identical to the python
## backend, and everything works without it (auto-detection falls back).
compiled:
	$(PYTHON) setup.py build_ext --inplace

## Perf-regression suite: writes BENCH_PR15.json and fails if any guarded
## rate drops more than its tolerance below benchmarks/perf_baseline.json
## (10% for engine/datapath, 20% default; the obs layer also has an
## absolute metrics-on overhead budget).  A loud warning — not a failure —
## is printed when the baseline was recorded on a different machine.
## Builds the compiled backend first (best-effort: the suite measures
## whatever backend `auto` resolves to and stamps it in the report).
bench:
	-$(MAKE) compiled
	$(PYTHON) benchmarks/run_perf_suite.py \
		--output BENCH_PR15.json \
		--baseline benchmarks/perf_baseline.json \
		--check

## Quarter-size workloads for a fast smoke signal (same regression check).
bench-quick:
	-$(MAKE) compiled
	$(PYTHON) benchmarks/run_perf_suite.py \
		--output BENCH_PR15.json \
		--baseline benchmarks/perf_baseline.json \
		--check --quick

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/*.egg-info build
	rm -f src/repro/sim/_cengine*.so
