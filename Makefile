# Developer conveniences for the Whisper reproduction.

.PHONY: install test bench examples figures overload exactly-once check check-self-test shard shard-smoke perf perf-smoke wan wan-smoke saga saga-smoke capacity capacity-smoke perfbench-test all clean

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

examples:
	python examples/quickstart.py
	python examples/semantic_discovery.py
	python examples/b2b_supply_chain.py
	python examples/workflow_process.py
	python examples/operations.py
	python examples/multi_region.py

figures:
	python examples/figure4.py

overload:
	python -m repro overload

exactly-once:
	python -m repro campaign --seed 42 --duration 60 --workload enroll --loss 0.01
	python -m repro campaign --seed 42 --duration 60 --workload enroll --loss 0.01 --no-journal

check:
	python -m repro check --seeds 5 --schedules 50

check-self-test:
	python -m repro check --self-test

# Semantic sharding: read-throughput scaling across federated shard
# groups, Figure-4-style message growth, and the shard-group-crash
# rebalance audit (exactly-once must hold across the ring handoff).
shard:
	python -m repro shard

# The CI tier: a short 1-vs-4 sweep plus the rebalance audit, and a
# cross-shard schedule-exploration pass.
shard-smoke:
	python -m repro shard --shards 1,4 --duration 4 --window 5
	python -m repro check --shards 2 --seeds 1 --schedules 5 --timeout 300

# Regenerate the committed simulator throughput record (full + smoke
# tiers, baseline vs current modes; see EXPERIMENTS.md "Perf methodology").
perf:
	python -m repro perf --out BENCH_simnet.json

# The CI tier: quick smoke run, gated against the committed record.
perf-smoke:
	python -m repro perf --smoke --out bench-smoke.json \
		--check BENCH_simnet.json --tolerance 0.25

# Multi-region WAN benchmark: gossip convergence vs the O(log N) bound,
# staleness vs fanout, gossip-vs-flood message economy, nearest-region
# latency, and the single-region Figure-4 byte-identity guard.
# Regenerates the committed BENCH_wan.json record.
wan:
	python -m repro wan --out BENCH_wan.json

# The CI tier: reduced sweeps, same assertions (exit 1 on any failure),
# plus a region-partition schedule-exploration pass.
wan-smoke:
	python -m repro wan --smoke --out bench-wan-smoke.json
	python -m repro check --regions 2 --seeds 1 --schedules 5 --timeout 300

# Saga benchmark: availability, p99, and compensation correctness of the
# loan-solvency pipeline under 1% loss + orchestrator crashes at commit
# boundaries, against the no-compensation baseline (which must strand
# partial effects).  Regenerates the committed BENCH_saga.json record.
saga:
	python -m repro saga --out BENCH_saga.json

# The CI tier: single-seed bench with the full assertion set, a random
# saga schedule-exploration pass, the compensation-off self-test (the
# atomicity audit must catch, shrink, and replay the violation), and the
# dead-letter-queue park + requeue demo.
saga-smoke:
	python -m repro saga --smoke --out bench-saga-smoke.json
	python -m repro check --saga --seeds 1 --schedules 5 --timeout 300
	python -m repro check --saga-self-test --timeout 300 --out saga-self-test-repro.json
	python -m repro dlq --requeue

# Adaptive capacity benchmark: the diurnal trace priced against the
# provision-for-peak baseline (replica-hours, availability parity, p99
# band, cache hit ratio), the breaker trip-and-heal drill, and the
# single-deployment Figure-4 byte-identity guard.  Regenerates the
# committed BENCH_capacity.json record.
capacity:
	python -m repro capacity --out BENCH_capacity.json

# The CI tier: the smoke bench with the full assertion set, a
# scale-op-enabled schedule-exploration pass, and the capacity
# conformance test suites (autoscale properties, breaker transition
# table, result-cache semantics, record gating).
capacity-smoke:
	python -m repro capacity --smoke --out bench-capacity-smoke.json
	python -m repro check --capacity --seeds 1 --schedules 25 --timeout 300
	pytest tests/properties/test_prop_autoscale.py tests/core/test_breaker.py \
		tests/core/test_rescache.py tests/bench/test_capacity.py -q

# The benchmark's own tests: tiny runs of every workload, metric names
# against BENCHMARK.json, traced/untraced identity, and runs that must
# fail on a wrong reply or a duplicated effect.
perfbench-test:
	python -m pytest perfbench/tests -q

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
