# Common development tasks. Everything is stdlib-only Go; no external
# tooling required.

GO ?= go

.PHONY: all build vet test test-short race bench bench-smoke e2e-bench deadcode cover cover-check fuzz study examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -timeout: a deadlocked wall-clock loop fails in two minutes with a goroutine
# dump instead of sitting out go test's ten-minute default.
test:
	$(GO) test -timeout 120s ./...

test-short:
	$(GO) test -short -timeout 120s ./...

# The race suite CI runs: the serve and shard reader/writer hammers plus
# everything else that is quick enough under the detector.
race:
	$(GO) test -short -race -timeout 120s ./...

# One benchmark pass over every paper figure/table plus the micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of each interval-kernel benchmark, of the planner's
# whole-schedule benchmarks (parallel and serialized transfers, all three
# heuristics), of the offline replay of the soak trace and of the admission
# path's hand-coded submission decode and verdict encode: a CI smoke check
# that the benchmark code itself keeps compiling and running. Nothing here is
# gated on time; the exact work those paths do is pinned by TestWorkCounters
# (work_test.go, testdata/work.golden), and the wire path's allocations by
# TestWireAllocs (internal/serve), in the ordinary test run.
bench-smoke:
	$(GO) test -run='^$$' -bench='EarliestFit|CapacityMinAvailable' -benchtime=1x \
		./internal/simtime/ ./internal/resource/
	$(GO) test -run='^$$' -bench='^Benchmark(Schedule|ScheduleSerial|Heuristics)$$' -benchtime=1x \
		./internal/core/
	$(GO) test -run='^$$' -bench='^BenchmarkReplaySoak$$' -benchtime=1x ./internal/workload/
	$(GO) test -run='^$$' -bench='^BenchmarkWire$$' -benchtime=1x ./internal/serve/

# A short pass of the end-to-end benchmark (BENCHMARK.json, benchmark/):
# five seconds of each workload, one at a time. A run exits non-zero only
# when an operation failed or an output check did not hold — timings are
# printed, not gated, and a workload invariant outside its band is an
# INVARIANT: line, not a failure. Builds and writes under .bench_build/.
e2e-bench:
	@for w in offline_paper paper_oversub fed_single fed_sharded; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 || exit 1; \
	done

# Fail when a function declared outside tests is linked into no production
# binary (cmd/*, examples/*, scripts/*, benchmark) and is not listed with a
# reason in scripts/deadcode/allow.txt, or when an entry there went stale.
deadcode:
	$(GO) run ./scripts/deadcode

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# The CI coverage ratchet: fails when total statement coverage drops below
# scripts/coverage_floor.txt.
cover-check:
	sh scripts/coverage_check.sh

# The CI fuzz lane: 30 seconds per fuzz target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/scenario/ -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/validator/ -run='^$$' -fuzz=FuzzValidateRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/simtime/ -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/resource/ -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dijkstra/ -run='^$$' -fuzz=FuzzStoppedForestMatchesFull -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzPlanCacheMatchesParanoid -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dynamic/ -run='^$$' -fuzz=FuzzEngineIncrementalEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload/ -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve/ -run='^$$' -fuzz=FuzzSubmissionDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve/ -run='^$$' -fuzz=FuzzTicketViewEncode -fuzztime=$(FUZZTIME)

# Reproduce the paper's full simulation study (40 cases, both weightings,
# all extension sweeps). Takes a few minutes on one core.
study:
	$(GO) run ./cmd/stagesim -cases 40 -weights both -congestion -gamma -failures -serial -arrivals -csv results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/badd
	$(GO) run ./examples/weathermap
	$(GO) run ./examples/euratio
	$(GO) run ./examples/dynamic
	$(GO) run ./examples/optimalitygap

clean:
	rm -f cover.out
