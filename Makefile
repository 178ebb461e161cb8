GO ?= go

.PHONY: all build vet test verify-all race soak fmt-check bench-telemetry alloc-budget loc ci

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

# Allocation budgets: a single-probe toggle, which recompiles its one
# fragment whole, must stay within its pinned allocs/op envelope, and a
# steady-state execution with every probe active within its own (a machine
# that keeps its call stack, builtin table and argument buffer).
alloc-budget:
	$(GO) test ./internal/core/ -run TestToggleAllocBudget -v
	$(GO) test ./internal/cov/ -run TestRunInputAllocBudget -v

# Non-test Go lines per package directory (the ROADMAP's tracked number).
loc:
	@scripts/loc.sh

# The full CI run; scripts/ci.sh is its one definition.
ci:
	@scripts/ci.sh
