# Convenience targets; see README.md.

.PHONY: install test lint bench perfbench engine-bench experiments examples serve-quick cob recovery e21-quick all

install:
	pip install -e .

test:
	pytest tests/

# The CI lint gate: per-file rules plus the whole-program flow pass,
# then the flow pass alone against src/repro as the lint-flow CI job
# runs it (docs/lint.md).
lint:
	PYTHONPATH=src python -m repro.lint src/
	PYTHONPATH=src python -m repro.lint src/repro --select FLOW

bench:
	pytest benchmarks/ --benchmark-only

# The repo benchmark's own tests (perfbench/README.md); tier-1's
# testpaths do not include them.
perfbench:
	python3 -m pytest perfbench/tests -q

# Vectorized-engine gates: batch/serial byte-identity + speedup (smoke).
engine-bench:
	PYTHONPATH=src python benchmarks/bench_engine_vector.py --smoke

experiments:
	python -m repro.experiments all

# The serving-layer smoke: E19 quick sweep + its tail-latency gates.
serve-quick:
	PYTHONPATH=src python -m repro.experiments serve --quick --no-cache
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke

# The cache-oblivious tier: its tests, its lint, and the E20 quick sweep.
cob:
	PYTHONPATH=src python -m pytest tests/trees/test_cob.py tests/trees/test_veb.py tests/trees/test_put_many.py -q
	PYTHONPATH=src python -m repro.lint src/repro/trees/cob
	PYTHONPATH=src python -m repro.experiments cob --quick --no-cache

# The durability layer: its tests + the sampled crash-consistency checker.
recovery:
	PYTHONPATH=src python -m pytest tests/recovery tests/faults/test_crash.py tests/serve/test_crash_failover.py -q
	PYTHONPATH=src python -c "from repro.recovery import RECOVERY_TREES, run_check; \
	reports = {t: run_check(t, n_ops=60, mode='sample', samples=16, seed=0) for t in RECOVERY_TREES}; \
	[print(t, r.describe()) for t, r in reports.items()]; \
	assert all(r.passed for r in reports.values())"

# The E21 quick sweep + its durability gates.
e21-quick:
	PYTHONPATH=src python -m repro.experiments durability --quick --no-cache
	PYTHONPATH=src python benchmarks/bench_durability.py --smoke

examples:
	python examples/quickstart.py
	python examples/node_size_tuning.py
	python examples/ssd_concurrency.py
	python examples/aging_range_queries.py
	python examples/io_trace_analysis.py

all: lint test bench experiments serve-quick
