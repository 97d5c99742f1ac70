# Convenience targets for the OFFS reproduction.

.PHONY: install test lint lint-changed bench bench-quick bench-smoke bench-serve bench-shard bench-ablation bench-ablation-quick bench-reorder bench-check examples experiments clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Dependency-free lint: byte-compile every tree (catches syntax errors),
# import the public packages (catches broken imports / circulars), then run
# the project's own static analyzer (OFFS invariants R001-R010; exit 1 on
# any non-baselined finding -- see docs/static-analysis.md).
lint:
	python -m compileall -q src tests benchmarks examples
	PYTHONPATH=src python -c "import repro, repro.obs, repro.cli, repro.bench.runner"
	PYTHONPATH=src python -m repro.lint --format json

# Fast pre-commit pass: only files changed vs HEAD (plus untracked);
# falls back to a full scan outside a git checkout.
lint-changed:
	PYTHONPATH=src python -m repro.lint --changed --strict

bench:
	pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_SIZE=small pytest benchmarks/ --benchmark-only

# Tiny fig5-style speed check (seed loop vs flat rolling batch) that
# emits a single JSON blob; CI archives it as a non-blocking artifact.
bench-smoke:
	PYTHONPATH=src python benchmarks/smoke.py --size tiny --out BENCH_smoke.json

# Serving-layer load sweep (qps / p50 / p99 per worker count) against a
# live pre-forked PathServer; CI archives the JSON as a non-blocking artifact.
bench-serve:
	PYTHONPATH=src python benchmarks/bench_serve.py --size small --out BENCH_serve.json

# Sharded write path: the build at 1 process against min(cpus, shards),
# alternating, at 1x and 5x the medium tier (median and spread per side,
# and where the fan-out starts to win), streaming ingest peak-RSS flatness
# at 1x/2x/4x, and the monolithic-vs-sharded crossover; CI archives the
# JSON as a non-blocking artifact.
bench-shard:
	PYTHONPATH=src python benchmarks/bench_shard.py --size medium --out BENCH_shard.json

# Component-ablation matrix (baseline + one cell per knob value, per
# workload) with the ranked importance report autotune consumes; resumable
# via BENCH_ablation.json.partial.  The quick variant is the CI-sized run; it
# writes its own file so it never overwrites the committed small-tier report.
bench-ablation:
	PYTHONPATH=src python benchmarks/bench_ablation.py --size small --out BENCH_ablation.json

bench-ablation-quick:
	PYTHONPATH=src python benchmarks/bench_ablation.py --size tiny --rounds 1 --out BENCH_ablation_quick.json

# Vertex-reordering grid: every ordering strategy on every workload (CR /
# CS / DS / PDS plus varint bytes saved), each cell round-trip verified
# through a mapped v2 archive.  The deterministic keys gate in bench-check.
bench-reorder:
	PYTHONPATH=src python benchmarks/bench_reorder.py --size tiny --out BENCH_reorder.json

# Bench-regression gate: diff the fresh smoke/decode JSONs against the
# committed baselines (benchmarks/baselines/).  Correctness-derived metrics
# (round-trip flags, CR, byte sizes) must match exactly; timings only warn
# inside the tolerance band.  CI runs this inside the bench(smoke) job.
bench-check:
	python tools/bench_compare.py --baseline-dir benchmarks/baselines \
		--format gha BENCH_smoke.json BENCH_decode.json BENCH_reorder.json

experiments:
	python -m repro.bench --size medium --out experiments_report.txt

examples:
	python examples/quickstart.py
	python examples/cloud_monitoring.py
	python examples/taxi_trajectories.py
	python examples/tuning_parameters.py
	python examples/streaming_archive.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf benchmarks/results .pytest_cache .hypothesis
