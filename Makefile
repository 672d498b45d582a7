GO ?= go
GOFMT ?= gofmt

.PHONY: build test race race-matrix vet fmt-check check bench bench-obs bench-audit bench-recorder bench-market bench-trace bench-tenants bench-heat bench-all bench-compare attacksim fuzz-smoke

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
	$(GO) test -race -C benchmark ./...

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

bench: bench-obs
	$(GO) test -bench=. -benchtime=100x -run=^$$ ./internal/bench/

# bench-obs bounds the telemetry overhead: obs micro-benchmarks (each
# instrument enabled vs disabled) plus the end-to-end mediated-call pair,
# whose On/Off delta must stay within the 5% budget (DESIGN.md §10). The
# mediated-call benchmarks print allocs/op too.
bench-obs:
	$(GO) test -bench=. -benchtime=1000000x -run=^$$ ./internal/obs/
	$(GO) test -bench=BenchmarkMediatedCallObs -benchtime=1s -count=4 -run=^$$ .

# bench-audit bounds the audit-pipeline overhead on the same mediated
# call: the AuditOn/AuditOff delta must stay within the 5% budget
# (DESIGN.md §11).
bench-audit:
	$(GO) test -bench=BenchmarkMediatedCallAudit -benchtime=1s -count=4 -run=^$$ .

# bench-recorder enforces the flight recorder's 5% budget: the guard
# runs RecorderOn/RecorderOff pairs and fails when the median ratio
# exceeds 1.05 (DESIGN.md §13). SHORT=1 drops to 3 pairs for CI.
bench-recorder:
	SDNSHIELD_RECORDER_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestRecorderOverheadBudget -v .

# bench-market measures the app-market pipeline — installs/sec with a
# cold vs warm verdict cache (the warm rate must hold ≥1000/s) and the
# job spine's throughput/latency — and writes BENCH_market.json.
# SHORT=1 shrinks the workload for CI.
bench-market:
	SDNSHIELD_MARKET_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestMarketBenchTrajectory -v ./internal/bench/

# bench-tenants is the multi-tenant flatness guard: a thousand tenants
# (two hundred with SHORT=1) install their apps and issue mediated calls
# across shard counts {1,4,16}, and the 16-shard call p95 must stay
# within 10% of the single-tenant baseline (DESIGN.md §16). Writes
# BENCH_tenants.json.
bench-tenants:
	SDNSHIELD_TENANT_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestTenantBenchFlatness -v ./internal/bench/

# bench-trace enforces the span layer's 5% budget on the mediated-call
# hot path: the guard runs SpanOn/SpanOff chunk pairs and fails when
# the median ratio exceeds 1.05 (DESIGN.md §15). The span throughput
# and per-stage install breakdown (BENCH_trace.json) ride bench-market.
# SHORT=1 drops to 5 rounds for CI.
bench-trace:
	SDNSHIELD_SPAN_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestSpanOverheadBudget -v .

# bench-heat enforces the decision-heat profiler's 5% budget on the
# mediated-call hot path (HeatOn/HeatOff chunk pairs, median ratio
# ≤1.05, DESIGN.md §17) and writes BENCH_heat.json: the per-clause heat
# distribution and check latency percentiles at sampling 1. SHORT=1
# shrinks both for CI.
bench-heat:
	SDNSHIELD_HEAT_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestHeatOverheadBudget -v .
	SDNSHIELD_HEAT_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestHeatBenchTrajectory -v ./internal/bench/

# bench-all runs every bench gate in one pass, refreshing every
# BENCH_*.json trajectory file. SHORT=1 propagates to each gate.
bench-all: bench-recorder bench-trace bench-heat bench-market bench-tenants

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
