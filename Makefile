GO ?= go
GOFMT ?= gofmt

.PHONY: build test race race-matrix vet fmt-check check bench bench-overhead bench-compare attacksim fuzz-smoke

build:
	$(GO) build ./...

# benchmark/ is a module of its own, outside ./...: test and race reach
# its generator, statistics and smoke tests with a second invocation.
test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...
	$(GO) test -C benchmark -race ./...

# race-matrix is the concurrency gate: tier-1 (both modules) at four core
# counts in shuffled test order — a test that leans on what an earlier
# one left in a process-wide collector fails, and go test prints the
# -shuffle seed that reproduces it — then the packages whose state
# several goroutines reach under the race detector three times over — a
# flake that shows once in four runs does not get past it. flowtable
# runs with -short, which shrinks its model test's seed range instead of
# skipping it. The allocation budgets (TestMediatedCallAllocs) run in
# every core-count pass and skip under -race (the raceEnabled build-tag
# constant), where the detector itself allocates.
RACE_PKGS ?= ./internal/permengine ./internal/isolation ./internal/market ./internal/obs/... ./internal/tenant ./internal/jobs
race-matrix:
	for procs in 1 2 4 8; do \
		GOMAXPROCS=$$procs $(GO) test -count=1 -shuffle=on ./... || exit 1; \
		GOMAXPROCS=$$procs $(GO) test -C benchmark -count=1 -shuffle=on ./... || exit 1; \
	done
	$(GO) test -race -count=3 $(RACE_PKGS)
	$(GO) test -race -short -count=3 ./internal/flowtable

# check is the CI gate: formatting, static analysis, then the full suite
# under the race detector.
check: fmt-check vet race

# bench runs the paper's benchmarks at the repo root (one per table and
# figure of §IX, plus the mediated call and reconciliation) and the obs
# instrument micro-benchmarks, each instrument enabled vs disabled.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -bench=. -benchtime=1000000x -run=^$$ ./internal/obs/

# bench-overhead enforces the 5% budget of the audit, span and heat
# switches on the mediated call: with every instrument at its shipping
# default, each is toggled in interleaved on/off chunk pairs on a shield
# of its own, and the median ratio must stay within 1.05 (DESIGN.md §10).
# SHORT=1 drops to 5 rounds for CI.
bench-overhead:
	SDNSHIELD_OVERHEAD_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestInstrumentOverheadBudget -v .

# bench-compare runs the protocol of benchmark/README.md between BASE and
# the working tree: PAIRS interleaved parent/change runs per workload
# (alternating order, one seed per pair), then per workload and metric the
# medians with quartiles, pairs won, the gap against the parent's IQR and
# the bound from BENCHMARK.json. TRACE=1 adds the per-layer metrics.
# Ten pairs of all five workloads take about half an hour.
PAIRS ?= 10
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<ref> [PAIRS=10] [WORKLOADS=a,b] [TRACE=1]"; exit 2; }
	$(GO) run ./scripts/benchcompare -base $(BASE) -pairs $(PAIRS) \
		$(if $(WORKLOADS),-workloads $(WORKLOADS)) $(if $(TRACE),-trace $(TRACE))

attacksim:
	$(GO) run ./cmd/attacksim -v

# fuzz-smoke runs the native fuzz targets briefly — enough for CI to
# catch parser panics and round-trip regressions on mutated market
# packages without the cost of a long fuzzing campaign.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseManifest -fuzztime=$(FUZZTIME) ./internal/permlang/
	$(GO) test -run=^$$ -fuzz=FuzzParsePolicy -fuzztime=$(FUZZTIME) ./internal/policylang/
	$(GO) test -run=^$$ -fuzz=FuzzJobDecode -fuzztime=$(FUZZTIME) ./internal/jobs/
	$(GO) test -run=^$$ -fuzz=FuzzTenantID -fuzztime=$(FUZZTIME) ./internal/tenant/
