# Entry points for the reproduction's test/bench tiers.
#
#   make test       tier-1: fast unit/property/integration tests
#                   (the merge gate; slow-marked tests deselected).
#                   Its exact counter pins are the engine's perf gates:
#                   cold-analysis work (tests/test_stage_iso.py), batch
#                   cache sharing, dirty-cone delta sweeps, the warm
#                   service and the disabled-trace budget
#   make test-slow  the slow tier: analog golden-reference checks,
#                   heavy seeded sweeps, end-to-end example runs
#   make verify-smoke   the conformance smoke gate: 20 fuzzed netlists x
#                   the full engine-mode matrix at fixed seed 0 (plus
#                   metamorphic invariants), must exit clean in <60s
#   make service-smoke  the serving smoke gate: a real daemon process,
#                   4 concurrent clients, bit-identical arrivals, live
#                   /metrics, a valid --trace (kept at
#                   benchmarks/output/service_smoke_trace.json), and a
#                   clean SIGTERM drain, all under a hard watchdog
#   make bench-selftest the benchmark suite's self-tests (imports, answer
#                   digests, metric contract; runs no workloads, ~3 s).
#                   The suite itself (benchmarks/suite/, declared in
#                   BENCHMARK.json) is run with its own run.py
#   make verify-deep    the deep conformance sweep: 200 cases per seed
#                   over seeds 0-2; run before releases / after engine
#                   changes, not in CI
#   make check      all of the above, in cheapest-first order
#   make bench      regenerate every paper table/figure (long)

PYTHONPATH := src
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

SERVICE_TRACE := benchmarks/output/service_smoke_trace.json

.PHONY: test test-slow verify-smoke verify-deep service-smoke \
        bench-selftest check check-fast bench goldens

test:
	$(PYTEST) -x -q

test-slow:
	$(PYTEST) -q -m slow

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

check: test test-slow bench-selftest verify-smoke service-smoke

# CI's gate: everything in `check` except the slow tier (analog golden
# references are too heavy for shared runners).
check-fast: test bench-selftest verify-smoke service-smoke

bench:
	$(PYTEST) benchmarks/ -q -s

goldens:
	PYTHONPATH=$(PYTHONPATH):. python tests/test_golden_reference.py \
	          --regenerate
	PYTHONPATH=$(PYTHONPATH):. python tests/test_engine_golden.py \
	          --regenerate
