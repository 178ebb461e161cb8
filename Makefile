GO ?= go

.PHONY: all build vet test verify-all race soak fmt-check bench-parallel bench-telemetry bench-record bench-check alloc-budget verify-budget warm-bench persist-faults serve-storm serve-chaos loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Re-run the engine-bearing packages with strict IR verification after every
# optimizer pass (ODIN_VERIFY=all): a miscompiling pass fails here with its
# name in the error instead of as a wrong answer downstream.
verify-all:
	ODIN_VERIFY=all $(GO) test ./internal/core/ ./internal/cov/ ./internal/bench/

# The concurrency-sensitive packages: the fragment compile pool, the
# incremental linker, the fault injector that stresses both, the telemetry
# layer hit from concurrent compile workers and probe firings, the
# persistent artifact store shared by concurrent engines, and the
# multi-tenant probe-control plane routing concurrent HTTP traffic into
# per-shard supervisors.
race:
	$(GO) test -race ./internal/core/... ./internal/link/... ./internal/faultinject/... \
		./internal/telemetry/... ./internal/rt/... ./internal/vm/... ./internal/cov/... \
		./internal/persist/... ./internal/serve/...

# Extended supervisor soak: 8 goroutines of random probe toggles against a
# fault-injecting supervised engine under the race detector, asserting every
# ticket resolves exactly once and the final image never diverges from a
# serially-built reference. ODIN_SOAK_MS bounds the storm duration.
SOAK_MS ?= 30000
soak:
	ODIN_SOAK_MS=$(SOAK_MS) $(GO) test -race -run TestSupervisorSoak -v -timeout 10m ./internal/core/

bench-telemetry:
	$(GO) test ./internal/core/ -run XXX -bench 'Rebuild' -benchtime 20x -benchmem
	$(GO) test ./internal/telemetry/ -run XXX -bench . -benchtime 1000000x
	ODIN_OVERHEAD_TEST=1 $(GO) test ./internal/core/ -run TestTelemetryOverheadPaired -v

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench-parallel:
	$(GO) test ./internal/bench/ -run XXX -bench BenchmarkParallelRebuild -benchtime 5x

# Recorded performance trajectory: regenerate the committed benchmark
# artifact from the verify-overhead, cold-warm, serve-storm and serve-chaos
# experiments (boundaries-tier verification overhead, warm-start restart
# speedup, multi-tenant isolation under hostile load, shard-failover window
# and drop count under injected wedges). Bump BENCH when recording a new
# trajectory point rather than overwriting history's meaning.
BENCH ?= BENCH_28.json
BENCH_RUN = $(GO) run ./cmd/odin-bench -experiment verify-overhead,cold-warm,serve-storm,serve-chaos \
	-toggle-rounds 60 -coldwarm-rounds 5
bench-record:
	$(BENCH_RUN) -bench-out $(BENCH)

# Compare the current tree against the committed trajectory artifact
# (skipped with a note when the artifact is absent). Fails on >15% p50/p99
# regression beyond a 2ms floor, on verification overhead above its 5%
# budget, on a warm start below its absolute speedup floor / losing image
# byte-identity, on the serve control plane dropping healthy tenants' work
# or exceeding the isolation bound under hostile load, or on a shard
# failover dropping a healthy commit / overrunning
# bench.ChaosFailoverBudgetMS.
bench-check:
	@if [ -f $(BENCH) ]; then \
		$(BENCH_RUN) -bench-compare $(BENCH); \
	else \
		echo "bench-check: $(BENCH) not present; skipping regression gate"; \
	fi

# Cold-vs-warm start experiment on its own: engine restart to first
# executable with an empty vs populated artifact cache + state snapshot.
# Prints the table without touching the committed artifact.
warm-bench:
	$(GO) run ./cmd/odin-bench -experiment cold-warm -coldwarm-rounds 5

# The persistence arm of the fault sweep on the full program suite: engine
# restarts onto a seeded cache with faults armed at every persist:* site;
# exits nonzero on any surfaced build error or image divergence.
persist-faults:
	$(GO) run ./cmd/odin-bench -experiment faults -fault-rounds 3

# Multi-tenant serve storm on its own: hostile-tenant isolation against a
# two-shard control plane over loopback HTTP. Prints per-tenant latency
# tables and the isolation verdict without touching the committed artifact.
serve-storm:
	$(GO) run ./cmd/odin-bench -experiment serve-storm

# Shard chaos experiment on its own: wedge a shard mid-storm and measure
# the self-healing ladder's warm restart in place. Fails on any dropped
# healthy commit or a failover window past the absolute budget. Prints the
# arm's table without touching the committed artifact.
serve-chaos:
	$(GO) run ./cmd/odin-bench -experiment serve-chaos

# Allocation budgets: a single-probe toggle, which recompiles its one
# fragment whole, must stay within its pinned allocs/op envelope, and a
# steady-state execution with every probe active within its own (a machine
# that keeps its call stack, builtin table and argument buffer).
alloc-budget:
	$(GO) test ./internal/core/ -run TestToggleAllocBudget -v
	$(GO) test ./internal/cov/ -run TestRunInputAllocBudget -v

# Verification budget: the default boundaries tier may cost at most 5% of
# p50 rebuild latency (the experiment exits 1 when any workload exceeds
# bench.VerifyOverheadBudgetPct).
verify-budget:
	$(GO) run ./cmd/odin-bench -experiment verify-overhead -toggle-rounds 60

# Non-test Go lines per package directory (the ROADMAP's tracked number).
loc:
	@scripts/loc.sh

ci: vet build test verify-all race fmt-check alloc-budget verify-budget bench-check
	@echo "ci: all checks passed"
