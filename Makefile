# Convenience targets for the CEGMA reproduction.

PYTHON ?= python

.PHONY: install test test-all lint bench bench-quick bench-compare bench-trend examples experiments summary artifacts clean

install:
	pip install -e .

# Default run excludes tests marked "slow" (pyproject addopts).
test:
	$(PYTHON) -m pytest tests/

# Everything, including the slow equivalence sweeps.
test-all:
	$(PYTHON) -m pytest tests/ -m ""

# Same check CI runs (pip install ruff).
lint:
	ruff check src tests

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# 4 s perfbench runs of every workload, seeds 0-2; appends each run to
# the run store under results/obs/runs/.
bench-quick:
	$(PYTHON) -m repro.perf.bench --quick

# Gate each series' newest run against its config-matching predecessor:
# exit 1 on exact-value drift, 2 on a timing regression (or no baseline).
bench-compare:
	$(PYTHON) -m repro obs compare

# Per-metric history with changepoints marked.
bench-trend:
	$(PYTHON) -m repro obs trend

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

experiments:
	$(PYTHON) -m repro experiments all

summary:
	$(PYTHON) -m repro experiments summary

artifacts:
	$(PYTHON) -m repro experiments all > results/all_experiments.txt
	$(PYTHON) -m repro experiments summary --output results/summary.json

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info .trace_cache
