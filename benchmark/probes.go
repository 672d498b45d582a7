package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/isolation"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	obsspan "sdnshield/internal/obs/span"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
	"sdnshield/internal/reconcile"
	"sdnshield/internal/tenant"
)

// The probes time each layer's public functions from outside, on the
// same generated inputs the workloads use. Every timing is per operation
// (two clock reads around one call, so a probe of a sub-microsecond
// function carries those reads in its figure) and reported as the median.

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// timeEach runs fn n times, timing each call, and returns the durations
// in nanoseconds, sorted.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	return sortedCopy(out)
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	m0 := mallocCount()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(mallocCount()-m0) / float64(n)
}

// probeSubset is how many corpus releases the slower corpus probes use,
// at the most.
const probeSubset = 500

// runProbes fills m with every probe-measured layer metric.
func runProbes(seed int64, opts options, m metricSet) error {
	p := &prober{seed: seed, opts: opts, m: m}
	if err := p.admission(); err != nil {
		return fmt.Errorf("admission probes: %w", err)
	}
	if err := p.callPath(); err != nil {
		return fmt.Errorf("call-path probes: %w", err)
	}
	if err := p.kernel(); err != nil {
		return fmt.Errorf("kernel probes: %w", err)
	}
	p.flowtable()
	if err := p.pipe(); err != nil {
		return fmt.Errorf("pipe probe: %w", err)
	}
	if err := p.tenantDo(); err != nil {
		return fmt.Errorf("tenant probe: %w", err)
	}
	return nil
}

// prober runs the probes of one traced run.
type prober struct {
	seed int64
	opts options
	m    metricSet
}

// n scales an iteration count by the run's probe divisor.
func (p *prober) n(count int) int { return max(count/max(p.opts.probeDiv, 1), 16) }

// admission times the layers under market_install on the corpus.
func (p *prober) admission() error {
	m := p.m
	sc := &marketScenario{size: p.opts.corpus}
	if err := sc.setup(p.seed, nil); err != nil {
		return err
	}
	corpus := sc.corpus
	subset := min(p.n(probeSubset), len(corpus))

	ns := timeEach(subset, func(i int) {
		if _, err := permlang.Parse(corpus[i].sr.Manifest); err != nil {
			panic(err) // the generator only emits manifests that parse
		}
	})
	m.put("permlang.parse_us", percentile(ns, 0.5)/1e3, "us")

	policySrc := sitePolicy()
	ns = timeEach(p.n(200), func(int) { policylang.MustParse(policySrc) })
	m.put("policylang.parse_us", percentile(ns, 0.5)/1e3, "us")

	policy := policylang.MustParse(policySrc)
	engine := reconcile.New()
	repaired := 0
	var recErr error
	ns = timeEach(len(corpus), func(i int) {
		res, err := engine.Reconcile(appName, corpus[i].manifest, policy)
		if err != nil {
			recErr = err
			return
		}
		if !res.Clean && res.Reconciled.Len() > 0 {
			repaired++
		}
	})
	if recErr != nil {
		return recErr
	}
	m.put("reconcile.reconcile_us", percentile(ns, 0.5)/1e3, "us")
	m.put("reconcile.repaired_share", float64(repaired)/float64(len(corpus)), "ratio")

	var incErr error
	ns = timeEach(len(corpus), func(i int) {
		if _, err := sc.boundary.Includes(corpus[i].requested); err != nil {
			incErr = err
		}
	})
	if incErr != nil {
		return incErr
	}
	m.put("core.includes_us", percentile(ns, 0.5)/1e3, "us")

	// SetPermissions of what a corpus install activates (the figure the
	// derived market.install_self_us subtracts) and of the large set.
	kernel := controller.New(nil, nil)
	shield := isolation.NewShield(kernel, isolation.Config{})
	ns = timeEach(subset, func(i int) { shield.SetPermissions("probe", corpus[i].requested.Clone()) })
	m.put("permengine.set_permissions_corpus_us", percentile(ns, 0.5)/1e3, "us")
	largeSet := permlang.MustParse(complexityManifest(large, 0)).Set()
	ns = timeEach(subset, func(int) { shield.SetPermissions("probe", largeSet.Clone()) })
	m.put("permengine.set_permissions_us", percentile(ns, 0.5)/1e3, "us")
	shield.Stop()
	kernel.Stop()

	// Submit on a fresh registry, then a cold and a warm pass of Install
	// on fresh markets that share one verdict cache.
	sc.corpus = corpus[:subset]
	cache := market.NewVerdictCache()
	var submitNs, warmNs []float64
	for pass := 0; pass < 2; pass++ {
		kernel, shield, sites, err := sc.buildSites(cache)
		if err != nil {
			closeSites(kernel, shield, sites)
			return err
		}
		hits0, misses0 := cache.Stats()
		for i := range sc.corpus {
			rel := &sc.corpus[i]
			if rel.class == classTampered {
				continue
			}
			t0 := time.Now()
			d, err := sites[i].reg.Submit(rel.sr)
			submitNs = append(submitNs, float64(time.Since(t0)))
			if err != nil {
				closeSites(kernel, shield, sites)
				return err
			}
			t0 = time.Now()
			_, _ = sites[i].mkt.Install(d) // rejected releases return ErrRejected by design
			if pass == 1 {
				warmNs = append(warmNs, float64(time.Since(t0)))
			}
		}
		if pass == 1 {
			hits, misses := cache.Stats()
			m.put("market.cache_hit_ratio", float64(hits-hits0)/float64(hits-hits0+misses-misses0), "ratio")
		}
		closeSites(kernel, shield, sites)
	}
	m.put("market.submit_us", median(submitNs)/1e3, "us")
	m.put("market.install_warm_us", median(warmNs)/1e3, "us")
	return nil
}

// callPath times the layers under api_large on its own world: the
// check, the stateful-filter resolution, the mediated hop and what the
// instruments add to it.
func (p *prober) callPath() error {
	m := p.m
	sc := &apiScenario{}
	defer sc.close()
	if err := sc.setup(p.seed, nil); err != nil {
		return err
	}
	m.put("core.leaves_api_large", float64(sc.leaves), "count")
	engine := sc.shield.Engine()
	d := sc.drivers[0]

	// Engine.Check on the pre-resolved trace: owner and rule count are
	// marked resolved, so the check does no table scan.
	calls := make([]*core.Call, 4096)
	for i := range calls {
		c := &d.trace[i]
		calls[i] = oracleCall(d.dpid, c.insert, c.spec.Match)
	}
	check := func(i int) { _ = engine.Check(calls[i%len(calls)]) }
	ns := timeEach(p.n(50_000), check)
	m.put("permengine.check_ns", percentile(ns, 0.5), "ns")
	m.put("tail.check_p99_ns", percentile(ns, 0.99), "ns")
	m.put("permengine.check_allocs", allocsPer(p.n(20_000), check), "count")

	rate := func(goroutines int) float64 {
		var total atomic.Int64
		deadline := time.Now().Add(150 * time.Millisecond)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 0
				for i := g; time.Now().Before(deadline); i++ {
					for k := 0; k < 64; k++ {
						_ = engine.Check(calls[(i*64+k)%len(calls)])
					}
					n += 64
				}
				total.Add(int64(n))
			}()
		}
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds()
	}
	one := rate(1)
	m.put("permengine.check_scaling", rate(runtime.NumCPU())/one, "ratio")

	// What InsertFlow mediation resolves before the check, against the
	// 1024-rule shadow table.
	ns = timeEach(p.n(5000), func(i int) {
		c := &d.trace[i%len(d.trace)]
		sc.kernel.ForeignFlowOwner(appName, d.dpid, c.spec.Match, callPriority)
		sc.kernel.RuleCount(appName, d.dpid)
	})
	m.put("controller.resolve_state_ns", percentile(ns, 0.5), "ns")

	// The mediated hop: Switches() under PERM visible_topology.
	hop := &callerApp{name: "hop"}
	sc.shield.SetPermissions(hop.name, permlang.MustParse("PERM visible_topology").Set())
	if err := sc.shield.Launch(hop); err != nil {
		return err
	}
	var hopErr error
	call := func(int) {
		if _, err := hop.api.Switches(); err != nil {
			hopErr = err
		}
	}
	ns = timeEach(p.n(20_000), call)
	m.put("isolation.hop_ns", percentile(ns, 0.5), "ns")
	m.put("isolation.hop_allocs", allocsPer(p.n(20_000), call), "count")

	// The same hop with every instrument at its default and with all of
	// them off, in interleaved 10 ms chunks; what was found is restored.
	chunk := func() float64 {
		n := 0
		start := time.Now()
		for time.Since(start) < 10*time.Millisecond {
			for k := 0; k < 32; k++ {
				call(0)
			}
			n += 32
		}
		return float64(time.Since(start)) / float64(n)
	}
	var on, off []float64
	for i := 0; i < 20; i++ {
		on = append(on, chunk())
		restore := instrumentsOff()
		off = append(off, chunk())
		restore()
	}
	m.put("obs.call_overhead_ratio", median(on)/median(off), "ratio")
	return hopErr
}

// instrumentsOff switches obs, audit, recorder, span and heat off and
// returns a function that restores what it found.
func instrumentsOff() (restore func()) {
	o, a, r, s, h := obs.SetEnabled(false), audit.SetEnabled(false), recorder.SetEnabled(false),
		obsspan.SetEnabled(false), permengine.SetHeatEnabled(false)
	return func() {
		obs.SetEnabled(o)
		audit.SetEnabled(a)
		recorder.SetEnabled(r)
		obsspan.SetEnabled(s)
		permengine.SetHeatEnabled(h)
	}
}

// instrumentStates reports the process-wide instrument switches for the
// run header.
func instrumentStates() map[string]bool {
	return map[string]bool{
		"obs": obs.On(), "audit": audit.On(), "recorder": recorder.On(),
		"span": obsspan.On(), "heat": permengine.HeatEnabled(),
	}
}

// kernel times the unshielded kernel operations through the
// monolith's direct API at 256 and at 1024 resident rules.
func (p *prober) kernel() error {
	m := p.m
	kernel := controller.New(nil, nil)
	defer kernel.Stop()
	fs, err := cbench.Connect(kernel, 1, 4)
	if err != nil {
		return err
	}
	defer fs.Close()
	app := &callerApp{name: appName}
	if err := isolation.NewMonolith(kernel).Launch(app); err != nil {
		return err
	}
	specs := make([]controller.FlowSpec, apiKeys)
	for k := range specs {
		specs[k] = controller.FlowSpec{Match: keyMatch(0, k), Priority: callPriority, Actions: forward}
	}
	var opErr error
	fill := func(from, to int) {
		for k := from; k < to; k++ {
			if err := app.api.InsertFlow(1, specs[k]); err != nil {
				opErr = err
			}
		}
	}
	replace := func(n int) func(int) {
		return func(i int) {
			if err := app.api.InsertFlow(1, specs[(i*7)%n]); err != nil {
				opErr = err
			}
		}
	}
	fill(0, 256)
	ns := timeEach(p.n(10_000), replace(256))
	m.put("controller.insert_flow_256_ns", percentile(ns, 0.5), "ns")
	fill(256, apiKeys)
	ns = timeEach(p.n(10_000), replace(apiKeys))
	m.put("controller.insert_flow_1024_ns", percentile(ns, 0.5), "ns")
	ns = timeEach(p.n(5000), func(i int) {
		if _, err := app.api.FlowStats(1, specs[i%apiKeys].Match); err != nil {
			opErr = err
		}
	})
	m.put("controller.stats_rtt_us", percentile(ns, 0.5)/1e3, "us")
	return opErr
}

// flowtable times the table operations a mediated insert runs, at
// 1024 rules all owned by the caller (so both scans walk the whole table).
func (p *prober) flowtable() {
	m := p.m
	t := flowtable.New(0)
	entries := make([]flowtable.Entry, apiKeys)
	for k := range entries {
		entries[k] = flowtable.Entry{Match: keyMatch(0, k), Priority: callPriority, Actions: forward, Owner: appName}
		_ = t.Add(entries[k]) // unbounded table: Add cannot fail
	}
	ns := timeEach(p.n(10_000), func(i int) { _ = t.Add(entries[(i*7)%apiKeys]) })
	m.put("flowtable.add_ns", percentile(ns, 0.5), "ns")
	ns = timeEach(p.n(10_000), func(i int) { t.ForeignOverlapOwner(appName, entries[(i*7)%apiKeys].Match, callPriority) })
	m.put("flowtable.foreign_owner_ns", percentile(ns, 0.5), "ns")
	ns = timeEach(p.n(10_000), func(int) { t.CountByOwner(appName) })
	m.put("flowtable.count_by_owner_ns", percentile(ns, 0.5), "ns")
}

// pipe times one message through of.Pipe, Send then Recv on one
// goroutine: the channel operations without a scheduler hand-off.
func (p *prober) pipe() error {
	m := p.m
	a, b := of.Pipe()
	defer a.Close()
	defer b.Close()
	msg := &of.BarrierRequest{}
	var opErr error
	ns := timeEach(p.n(50_000), func(int) {
		if err := a.Send(msg); err != nil {
			opErr = err
		}
		if _, err := b.Recv(); err != nil {
			opErr = err
		}
	})
	m.put("of.pipe_hop_ns", percentile(ns, 0.5), "ns")
	return opErr
}

// tenantDo times Tenant.Do of an empty function: admission, shard
// dispatch and the wake-up, nothing else.
func (p *prober) tenantDo() error {
	m := p.m
	mgr, err := tenant.NewManager(tenant.Config{})
	if err != nil {
		return err
	}
	defer mgr.Close()
	t, err := mgr.Create("probe")
	if err != nil {
		return err
	}
	var opErr error
	noop := func() error { return nil }
	ns := timeEach(p.n(20_000), func(int) {
		if err := t.Do("noop", noop); err != nil {
			opErr = err
		}
	})
	m.put("tenant.do_ns", percentile(ns, 0.5), "ns")
	return opErr
}
