package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/market"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
)

// api_large: app-originated calls, the paper's Fig. 5 lifted to the full
// call path. One app holds the "large" manifest (15 tokens × 20 filters),
// admitted through market.Install → reconcile → Shield.SetPermissions so
// that whatever normalisation ships is what gets checked; 1024 rules are
// resident on each of two switches; two app goroutines (one per switch)
// issue 80 % InsertFlow (replace in place) and 20 % FlowStats, 5 % of the
// calls violating.
const (
	apiSwitches = 2
	apiKeys     = 1024
	traceLen    = 1 << 15
)

// callerApp is an app that only keeps its API handle; the workload's
// driver goroutines are its threads.
type callerApp struct {
	name string
	api  isolation.API
}

func (a *callerApp) Name() string { return a.name }

func (a *callerApp) Init(api isolation.API) error {
	a.api = api
	return nil
}

// issue makes one generated call.
func issue(api isolation.API, dpid of.DPID, c *callSpec) error {
	if c.insert {
		return api.InsertFlow(dpid, c.spec)
	}
	_, err := api.FlowStats(dpid, c.spec.Match)
	return err
}

// checkVerdict holds a call's outcome against the oracle: allowed calls
// return nil, violating ones a *permengine.DeniedError, nothing else.
func checkVerdict(c *callSpec, err error) error {
	var denied *permengine.DeniedError
	switch {
	case err == nil && c.allowed, errors.As(err, &denied) && !c.allowed:
		return nil
	case err == nil:
		return fmt.Errorf("call the oracle denies was allowed (insert=%v %s)", c.insert, c.spec.Match)
	case denied != nil:
		return fmt.Errorf("call the oracle allows was denied: %v", err)
	default:
		return fmt.Errorf("unexpected error: %v", err)
	}
}

// apiDriver is one app goroutine's state.
type apiDriver struct {
	dpid    of.DPID
	fs      *cbench.FakeSwitch
	api     isolation.API
	trace   []callSpec
	pos     int
	ops     uint32        // traced operations started
	op      atomic.Uint32 // the one outstanding, read by the API decorator
	samples []int64
	failed  int64
	inserts uint64 // allowed inserts issued, pre-fill included
	log     failureLog
}

type apiScenario struct {
	tr      *tracer
	kernel  *controller.Kernel
	shield  *isolation.Shield
	mkt     *market.Market
	app     *callerApp
	drivers []*apiDriver
	leaves  int
}

// admit submits and installs one release of the app and returns the set
// the oracle holds calls against: the manifest's own set, which a clean
// approval enforces unchanged.
func admit(reg *market.Registry, m *market.Market, seed int64, version, manifest string) (*core.Set, error) {
	pub, priv := vendorKey(seed)
	if err := reg.TrustVendor(vendor, pub); err != nil {
		return nil, err
	}
	d, err := reg.Submit(market.Sign(market.Release{
		Name: appName, Vendor: vendor, Version: version, Manifest: manifest,
	}, priv))
	if err != nil {
		return nil, err
	}
	res, err := m.Install(d)
	if err != nil {
		return nil, err
	}
	if res.Verdict != market.VerdictApproved || res.Status != market.StatusActive {
		return nil, fmt.Errorf("release %s: verdict %s, status %s; want approved and active", version, res.Verdict, res.Status)
	}
	return permlang.MustParse(manifest).Set(), nil
}

func (s *apiScenario) setup(seed int64, tr *tracer) error {
	s.tr = tr
	s.kernel = controller.New(nil, nil)
	s.shield = isolation.NewShield(s.kernel, isolation.Config{})
	reg := market.NewRegistry()
	var err error
	if s.mkt, err = market.New(reg, s.shield, market.Config{PolicySrc: sitePolicy()}); err != nil {
		return err
	}
	oracle, err := admit(reg, s.mkt, seed, "1.0.0", complexityManifest(large, 0))
	if err != nil {
		return err
	}
	enforced, ok := s.shield.Engine().Permissions(appName)
	if !ok {
		return errors.New("the shield holds no permissions for the app after install")
	}
	s.leaves = countLeaves(enforced)

	s.app = &callerApp{name: appName}
	if err := s.shield.Launch(s.app); err != nil {
		return err
	}
	for i := 1; i <= apiSwitches; i++ {
		dpid := of.DPID(i)
		fs, err := cbench.Connect(s.kernel, dpid, 4)
		if err != nil {
			return err
		}
		d := &apiDriver{
			dpid: dpid, fs: fs, api: s.app.api,
			trace:   genCalls(rand.New(rand.NewSource(seed+int64(i))), traceLen, 0, apiKeys, dpid, oracle),
			samples: make([]int64, 0, 1<<18),
		}
		if tr != nil {
			d.api = &tracedAPI{API: s.app.api, tr: tr, arm: armShield, op: &d.op}
		}
		s.drivers = append(s.drivers, d)
		for k := 0; k < apiKeys; k++ {
			spec := controller.FlowSpec{Match: keyMatch(0, k), Priority: callPriority, Actions: forward}
			if err := s.app.api.InsertFlow(dpid, spec); err != nil {
				return fmt.Errorf("pre-fill key %d on %v: %w", k, dpid, err)
			}
			d.inserts++
		}
	}
	return nil
}

// countLeaves counts the singleton-filter leaves of a permission set.
func countLeaves(set *core.Set) int {
	var walk func(e core.Expr) int
	walk = func(e core.Expr) int {
		switch v := e.(type) {
		case *core.Leaf:
			return 1
		case *core.Not:
			return walk(v.X)
		case *core.And:
			return walk(v.L) + walk(v.R)
		case *core.Or:
			return walk(v.L) + walk(v.R)
		}
		return 0
	}
	n := 0
	for _, p := range set.Permissions() {
		n += walk(p.Filter)
	}
	return n
}

// run issues calls until the deadline, timing each from call to return.
func (d *apiDriver) run(tr *tracer, deadline time.Time) {
	for time.Now().Before(deadline) {
		c := &d.trace[d.pos%len(d.trace)]
		d.pos++
		var op uint32
		if tr.active() {
			d.ops++
			op = uint32(d.dpid)<<28 | d.ops&(1<<28-1)
			d.op.Store(op)
		}
		start := time.Now()
		err := issue(d.api, d.dpid, c)
		lat := time.Since(start)
		tr.addTimed(spanCall, armShield, op, start, lat)
		if verr := checkVerdict(c, err); verr != nil {
			d.failed++
			d.log.addf("%v: %v", d.dpid, verr)
			continue
		}
		if c.insert && c.allowed {
			d.inserts++
		}
		d.samples = append(d.samples, int64(lat))
	}
}

func (s *apiScenario) round(_ int, dur time.Duration) (map[string]opStat, uint64, int64) {
	m0 := mallocCount()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, d := range s.drivers {
		d.samples, d.failed = d.samples[:0], 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.run(s.tr, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	mallocs := mallocCount() - m0

	var all []int64
	var failed int64
	for _, d := range s.drivers {
		all = append(all, d.samples...)
		failed += d.failed
	}
	st := latencyStat(all, wall, failed)
	return map[string]opStat{"call": st}, mallocs, st.Ops
}

func (s *apiScenario) verify() []string {
	var bad []string
	for _, d := range s.drivers {
		if err := s.kernel.Barrier(d.dpid); err != nil {
			bad = append(bad, fmt.Sprintf("%v: barrier: %v", d.dpid, err))
			continue
		}
		if got := d.fs.FlowMods(); got != d.inserts {
			bad = append(bad, fmt.Sprintf("%v: switch saw %d flow-mods for %d allowed inserts", d.dpid, got, d.inserts))
		}
		if n := s.kernel.RuleCount(appName, d.dpid); n != apiKeys {
			bad = append(bad, fmt.Sprintf("%v: %d rules resident, want a constant %d", d.dpid, n, apiKeys))
		}
	}
	return bad
}

func (s *apiScenario) failures() []string {
	var out []string
	for _, d := range s.drivers {
		out = append(out, d.log.msgs...)
	}
	return out
}

func (s *apiScenario) inputs() map[string]any {
	traces := make([][]callSpec, len(s.drivers))
	for i, d := range s.drivers {
		traces[i] = d.trace
	}
	return map[string]any{
		"transport":            "of.Pipe (in-memory; no socket is crossed)",
		"manifest":             "large (15 tokens x 20 filters), admitted through market.Install",
		"resident_rules":       apiKeys,
		"driver_goroutines":    len(s.drivers),
		"call_trace_hash":      fmt.Sprintf("%016x", hashCalls(traces...)),
		"core.leaves_enforced": s.leaves,
	}
}

func (s *apiScenario) spanTree() map[spanName]spanName {
	return map[spanName]spanName{spanInsertFlow: spanCall, spanFlowStats: spanCall}
}

func (s *apiScenario) close() {
	if s.mkt != nil {
		s.mkt.Close()
	}
	if s.shield != nil {
		s.shield.Stop()
	}
	if s.kernel != nil {
		s.kernel.Stop()
	}
	for _, d := range s.drivers {
		d.fs.Close()
	}
}
