PYTHON ?= python
export PYTHONPATH := src

.PHONY: test compiled clean

test:
	$(PYTHON) -m pytest -x -q

## Build the C engine (repro.sim._cengine: run loop, port, queue) in place.
## Built means used: every simulator then runs on it, with results
## bit-identical to the pure-Python engine.  `make clean` removes it.
compiled:
	$(PYTHON) setup.py build_ext --inplace

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/*.egg-info build
	rm -f src/repro/sim/_cengine*.so
