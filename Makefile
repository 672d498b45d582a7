GO ?= go
GOFMT ?= gofmt

.PHONY: build test race race-matrix vet fmt-check check bench bench-smoke bench-overhead bench-compare attacksim fuzz-smoke loc

build:
	$(GO) build ./...

# benchmark/ is a module of its own, outside ./...: test and race reach
# its generator, statistics and smoke tests with a second invocation.
test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

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
RACE_PKGS ?= ./internal/permengine ./internal/isolation ./internal/controller ./internal/market ./internal/obs/... ./internal/tenant ./internal/jobs ./internal/durable
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
# figure of §IX, plus the mediated call and reconciliation), the obs
# instrument micro-benchmarks, each instrument enabled vs disabled, the
# audit journal's emit and drain (whose ns/event must stay flat across
# batch sizes), the hosted-tenant call (Tenant.Do) on an idle and a
# shared shard, the engine's check of an insert against 1 024
# resident rules under grants that read no stateful value, the owner or
# the rule count, and the market's verdict-cache miss and hit and a
# Submit + Upgrade that keeps its manifest. BENCHTIME, when set, comes
# last and overrides each line's own -benchtime.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCHTIME) .
	$(GO) test -bench=. -benchtime=1000000x -run=^$$ $(BENCHTIME) ./internal/obs/
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCHTIME) ./internal/obs/audit/
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCHTIME) ./internal/tenant/
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCHTIME) ./internal/permengine/
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCHTIME) ./internal/market/

# bench-smoke runs every bench benchmark once, so CI sees that each still
# compiles and runs; the timings it prints mean nothing.
bench-smoke:
	$(MAKE) bench BENCHTIME=-benchtime=1x

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

# attacksim runs Table I (§IX-B1) clean, then under the duplicate and the
# delay fault plans on fault seeds 1-3. Each run prints the whole table and
# exits non-zero if an attack gets past SDNShield or a row goes unmeasured.
# The drop plan stays out: it still loses handshakes (ROADMAP item 3).
attacksim:
	$(GO) run ./cmd/attacksim -v
	for seed in 1 2 3; do \
		$(GO) run ./cmd/attacksim -fault-dup 0.2 -fault-seed $$seed || exit 1; \
		$(GO) run ./cmd/attacksim -fault-delay-ms 5 -fault-seed $$seed || exit 1; \
	done

# loc prints the non-test Go lines of every package of both modules (all
# of a package directory's .go files but its _test.go ones), then the total.
loc:
	@for m in . benchmark; do $(GO) list -C $$m -f '{{.ImportPath}} {{.Dir}}' ./...; done | \
	while read pkg dir; do \
		printf '%6d %s\n' $$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$pkg; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# fuzz-smoke runs the native fuzz targets briefly — enough for CI to
# catch parser panics (manifest, policy, IPv4), round-trip regressions on
# mutated market packages, replay of damaged logs and a market lifecycle
# whose runtime drifts from its active release, without the cost of a
# long fuzzing campaign.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseManifest -fuzztime=$(FUZZTIME) ./internal/permlang/
	$(GO) test -run=^$$ -fuzz=FuzzParsePolicy -fuzztime=$(FUZZTIME) ./internal/policylang/
	$(GO) test -run=^$$ -fuzz=FuzzJobDecode -fuzztime=$(FUZZTIME) ./internal/jobs/
	$(GO) test -run=^$$ -fuzz=FuzzLogReplay -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -run=^$$ -fuzz=FuzzTenantID -fuzztime=$(FUZZTIME) ./internal/tenant/
	$(GO) test -run=^$$ -fuzz=FuzzAdmission -fuzztime=$(FUZZTIME) ./internal/market/
	$(GO) test -run=^$$ -fuzz=FuzzParseIPv4 -fuzztime=$(FUZZTIME) ./internal/of/
