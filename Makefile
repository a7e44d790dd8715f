# Entry points for the reproduction's test/bench tiers.
#
#   make test       tier-1: fast unit/property/integration tests
#                   (the driver's gate; slow-marked tests deselected)
#   make test-slow  the slow tier: analog golden-reference checks,
#                   heavy seeded sweeps, end-to-end example runs
#   make perf       the two perf-regression benches; each fails on a
#                   >25% regression over its committed counter baseline
#                   (BENCH_timing.json / BENCH_batch.json) or a 2x
#                   wall-clock blowout over the historical best
#   make perf-kernel    the vectorized-kernel bench: numpy vs python
#                   kernels on rca32 into BENCH_kernel.json, rca8
#                   arrival differential at 1e-9, and the >=3x speedup
#                   gate over the pre-kernel BENCH_timing.json baseline
#   make perf-delta the delta-sweep bench: dirty-cone re-analysis vs
#                   the full batch on rca32 x 64 Gray-ordered vectors
#                   into BENCH_delta.json; enforces bit-identity, the
#                   >=3x stage-visit gate, and the 25% counter /
#                   2x wall regression gates
#   make perf-trace the tracing-overhead bench: rca32 untraced vs traced
#                   into BENCH_trace.json; enforces the <2% deterministic
#                   disabled-overhead gate and records enabled overhead
#   make perf-service   the timing-service bench: warm daemon vs cold
#                   per-request processes on rca32 into BENCH_service.json;
#                   enforces bit-identity, the >=3x model-eval gate, and
#                   the 25% counter / 2x wall regression gates
#   make verify-smoke   the conformance smoke gate: 20 fuzzed netlists x
#                   the full engine-mode matrix at fixed seed 0 (plus
#                   metamorphic invariants), must exit clean in <60s
#   make service-smoke  the serving smoke gate: a real daemon process,
#                   4 concurrent clients, bit-identical arrivals, live
#                   /metrics, a valid --trace (kept at
#                   benchmarks/output/service_smoke_trace.json), and a
#                   clean SIGTERM drain, all under a hard watchdog
#   make bench-selftest the benchmark suite's self-tests (imports, answer
#                   digests, metric contract; runs no workloads, ~3 s)
#   make verify-deep    the deep conformance sweep: 200 cases per seed
#                   over seeds 0-2; run before releases / after engine
#                   changes, not in CI
#   make check      all of the above, in cheapest-first order
#   make bench      regenerate every paper table/figure (long)
#   make bench-all  refresh every BENCH_*.json baseline in one pass and
#                   commit the updated files (run after perf-relevant
#                   changes so the committed baselines track reality)

PYTHONPATH := src
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

BENCH_FILES := benchmarks/BENCH_timing.json benchmarks/BENCH_batch.json \
               benchmarks/BENCH_kernel.json benchmarks/BENCH_delta.json \
               benchmarks/BENCH_trace.json benchmarks/BENCH_service.json

SERVICE_TRACE := benchmarks/output/service_smoke_trace.json

.PHONY: test test-slow perf perf-kernel perf-delta perf-trace perf-service \
        verify-smoke verify-deep service-smoke bench-selftest check \
        check-fast bench bench-all goldens

test:
	$(PYTEST) -x -q

test-slow:
	$(PYTEST) -q -m slow

perf:
	$(PYTEST) benchmarks/bench_perf_regression.py \
	          benchmarks/bench_batch_sweep.py \
	          benchmarks/bench_delta_sweep.py -q -s

perf-kernel:
	$(PYTEST) benchmarks/bench_kernel.py -q -s

perf-delta:
	$(PYTEST) benchmarks/bench_delta_sweep.py -q -s

perf-trace:
	$(PYTEST) benchmarks/bench_trace_overhead.py -q -s

perf-service:
	$(PYTEST) benchmarks/bench_service.py -q -s

verify-smoke:
	PYTHONPATH=$(PYTHONPATH) python -m repro.cli verify \
	          --cases 20 --seed 0 --profile

verify-deep:
	for seed in 0 1 2; do \
	    PYTHONPATH=$(PYTHONPATH) python -m repro.cli verify \
	              --cases 200 --seed $$seed || exit 1; \
	done

service-smoke:
	mkdir -p $(dir $(SERVICE_TRACE))
	PYTHONPATH=$(PYTHONPATH) python -m repro.service.smoke --watchdog 300 \
	          --keep-trace $(SERVICE_TRACE)

bench-selftest:
	$(PYTEST) benchmarks/suite -q

check: test test-slow bench-selftest perf perf-kernel verify-smoke service-smoke

# CI's gate: everything in `check` except the slow tier (analog golden
# references are too heavy for shared runners).
check-fast: test bench-selftest perf perf-kernel verify-smoke service-smoke

# Refresh every perf baseline and commit the result.  REPRO_BENCH_NO_FAIL
# disables the wall-clock guards (new hardware re-records cleanly); the
# deterministic counter gates still apply.
bench-all:
	REPRO_BENCH_NO_FAIL=1 $(PYTEST) \
	          benchmarks/bench_perf_regression.py \
	          benchmarks/bench_batch_sweep.py \
	          benchmarks/bench_kernel.py \
	          benchmarks/bench_delta_sweep.py \
	          benchmarks/bench_trace_overhead.py \
	          benchmarks/bench_service.py -q -s
	git add $(BENCH_FILES)
	git diff --cached --quiet -- $(BENCH_FILES) || \
	          git commit -m "Refresh perf baselines" -- $(BENCH_FILES)

bench:
	$(PYTEST) benchmarks/ -q -s

goldens:
	PYTHONPATH=$(PYTHONPATH):. python tests/test_golden_reference.py \
	          --regenerate
