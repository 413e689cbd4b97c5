PYTHON ?= python
export PYTHONPATH := src

.PHONY: test compiled bench bench-quick clean

test:
	$(PYTHON) -m pytest -x -q

## Build the C engine (repro.sim._cengine: run loop, port, queue) in place.
## Built means used: every simulator then runs on it, with results
## bit-identical to the pure-Python engine.  `make clean` removes it.
compiled:
	$(PYTHON) setup.py build_ext --inplace

## The micro guard (docs/PERFORMANCE.md): writes BENCH.json and fails if
## fluid_rate_1m drops more than 20% below benchmarks/perf_baseline.json or
## the metrics-on overhead exceeds its absolute budget.  A loud warning —
## not a failure — is printed when the baseline was recorded on a
## different machine.  Everything else is measured by the cost ledger
## (python3 -m benchmarks.ledger).
bench:
	$(PYTHON) -m repro.perf.suite \
		--baseline benchmarks/perf_baseline.json \
		--check

## Quarter-size workloads for a fast smoke signal (same regression check).
bench-quick:
	$(PYTHON) -m repro.perf.suite \
		--baseline benchmarks/perf_baseline.json \
		--check --quick

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/*.egg-info build
	rm -f src/repro/sim/_cengine*.so
