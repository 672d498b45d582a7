package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
	"sdnshield/internal/market"
	"sdnshield/internal/of"
	"sdnshield/internal/tenant"
)

// hosted_churn / hosted_upgrade: reads beside writes on the same layers.
// A tenant.Manager (in memory, Config.Runtime → one shared shield) hosts
// 64 tenants, each with one launched app (<tenant>/app, medium manifest,
// 64 resident rules). One reader goroutine issues Tenant.Do(… InsertFlow /
// FlowStats …) round-robin across tenants with api_large's mix; one writer
// goroutine upgrades tenants round-robin through AdmitInstall →
// Registry.Submit → Market.Upgrade with a fixed 10 ms think time (closed
// loop, timed from send). Successive versions alternately grant and drop
// one /16; reader calls aim only at ranges granted, or denied, in every
// version, so their oracle is exact whatever the timing, and after each
// upgrade returns the writer issues one marker call in the flipped range
// that must already see the new verdict.
const (
	hostedTenants  = 64
	hostedKeys     = 64
	hostedSwitches = 2
	hostedTraceLen = 512
	thinkTime      = 10 * time.Millisecond
)

// hostedTenant is one tenant with its app and generated calls.
type hostedTenant struct {
	t       *tenant.Tenant
	app     *callerApp
	api     isolation.API // the app's handle, decorated on a traced run
	dpid    of.DPID
	trace   []callSpec
	pos     int
	version int
	marker  callSpec
}

type hostedScenario struct {
	tr       *tracer
	kernel   *controller.Kernel
	shield   *isolation.Shield
	mgr      *tenant.Manager
	switches []*cbench.FakeSwitch
	tenants  []*hostedTenant
	priv     ed25519.PrivateKey

	readerOp atomic.Uint32
	nextRead int
	nextWrt  int
	wrtOps   uint32

	inserts   [hostedSwitches]uint64 // allowed inserts per switch, pre-fill included
	throttled int64
	readLog   failureLog
	writeLog  failureLog
}

// versionManifest is the manifest of the app's n-th release: odd versions
// also grant the flip range.
func versionManifest(n int) string {
	subnets := subnetCycle(medium.filters-2, 0)
	if n%2 == 1 {
		subnets[len(subnets)-1] = flipSubnet
	}
	return manifestText(medium, subnets)
}

func (s *hostedScenario) setup(seed int64, tr *tracer) error {
	s.tr = tr
	_, s.priv = vendorKey(seed)
	s.kernel = controller.New(nil, nil)
	s.shield = isolation.NewShield(s.kernel, isolation.Config{})
	for i := 1; i <= hostedSwitches; i++ {
		fs, err := cbench.Connect(s.kernel, of.DPID(i), 4)
		if err != nil {
			return err
		}
		s.switches = append(s.switches, fs)
	}
	var err error
	s.mgr, err = tenant.NewManager(tenant.Config{
		PolicySrc: sitePolicy(),
		Runtime:   func(string) market.Runtime { return s.shield },
	})
	if err != nil {
		return err
	}

	r := rand.New(rand.NewSource(seed))
	for i := 0; i < hostedTenants; i++ {
		id := fmt.Sprintf("t%02d", i)
		t, err := s.mgr.Create(id)
		if err != nil {
			return err
		}
		oracle, err := admit(t.Market().Registry(), t.Market(), seed, "1.0.0", versionManifest(0))
		if err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		ht := &hostedTenant{
			t: t, app: &callerApp{name: id + "/" + appName}, dpid: of.DPID(i%hostedSwitches + 1),
		}
		if err := s.shield.Launch(ht.app); err != nil {
			return err
		}
		ht.api = ht.app.api
		if tr != nil {
			ht.api = &tracedAPI{API: ht.app.api, tr: tr, arm: armShield, op: &s.readerOp}
		}
		space := 100 + i
		ht.trace = genCalls(r, hostedTraceLen, space, hostedKeys, ht.dpid, oracle)
		ht.marker = callSpec{spec: controller.FlowSpec{
			Match: ipMatch(of.IPv4FromOctets(10, flipSubnet, byte(space), 1)),
		}}
		for k := 0; k < hostedKeys; k++ {
			spec := controller.FlowSpec{Match: keyMatch(space, k), Priority: callPriority, Actions: forward}
			if err := ht.app.api.InsertFlow(ht.dpid, spec); err != nil {
				return fmt.Errorf("tenant %s: pre-fill key %d: %w", id, k, err)
			}
			s.inserts[ht.dpid-1]++
		}
		s.tenants = append(s.tenants, ht)
	}
	return nil
}

// do runs one generated call of a tenant through Tenant.Do and checks
// it. op 0 marks a call outside the span tree (the writer's marker).
func (s *hostedScenario) do(ht *hostedTenant, api isolation.API, c *callSpec, op uint32, log *failureLog) bool {
	tr := s.tr
	err := ht.t.Do("call", func() error {
		if op == 0 {
			return issue(api, ht.dpid, c)
		}
		t0 := tr.begin()
		err := issue(api, ht.dpid, c)
		tr.end(spanTenantDo, armShield, op, t0)
		return err
	})
	if errors.Is(err, tenant.ErrTenantThrottled) {
		atomic.AddInt64(&s.throttled, 1)
	}
	if verr := checkVerdict(c, err); verr != nil {
		log.addf("tenant %s: %v", ht.t.ID, verr)
		return false
	}
	return true
}

// reader issues calls round-robin across tenants until the deadline.
func (s *hostedScenario) reader(deadline time.Time, samples *[]int64) (failed int64) {
	for time.Now().Before(deadline) {
		ht := s.tenants[s.nextRead%len(s.tenants)]
		s.nextRead++
		c := &ht.trace[ht.pos%len(ht.trace)]
		ht.pos++
		var op uint32
		if s.tr.active() {
			op = s.readerOp.Add(1)
		}
		start := time.Now()
		ok := s.do(ht, ht.api, c, op, &s.readLog)
		lat := time.Since(start)
		s.tr.addTimed(spanCall, armShield, op, start, lat)
		if !ok {
			failed++
			continue
		}
		if c.insert && c.allowed {
			s.inserts[ht.dpid-1]++
		}
		*samples = append(*samples, int64(lat))
	}
	return failed
}

// upgrade admits the tenant's next release and returns how long it took
// from the administrator's request to Upgrade returning.
func (s *hostedScenario) upgrade(ht *hostedTenant, sr *market.SignedRelease, op uint32) (time.Duration, error) {
	tr := s.tr
	start := time.Now()
	if err := ht.t.AdmitInstall(); err != nil {
		if errors.Is(err, tenant.ErrTenantThrottled) {
			atomic.AddInt64(&s.throttled, 1)
		}
		return 0, err
	}
	t0 := tr.begin()
	d, err := ht.t.Market().Registry().Submit(sr)
	tr.end(spanSubmit, armShield, op, t0)
	if err != nil {
		return 0, err
	}
	t0 = tr.begin()
	res, err := ht.t.Market().Upgrade(d)
	tr.end(spanUpgrade, armShield, op, t0)
	lat := time.Since(start)
	tr.addTimed(spanAdmit, armShield, op, start, lat)
	if err != nil {
		return lat, err
	}
	if res.Verdict != market.VerdictApproved || res.Status != market.StatusProbation {
		return lat, fmt.Errorf("verdict %s, status %s; want approved and on probation", res.Verdict, res.Status)
	}
	return lat, nil
}

// writer upgrades tenants round-robin until the deadline, thinking
// between upgrades; the next release is signed during the think time, as
// a vendor would have done beforehand.
func (s *hostedScenario) writer(deadline time.Time, samples *[]int64) (failed int64) {
	for {
		ht := s.tenants[s.nextWrt%len(s.tenants)]
		s.nextWrt++
		next := ht.version + 1
		sr := market.Sign(market.Release{
			Name: appName, Vendor: vendor, Version: fmt.Sprintf("1.0.%d", next), Manifest: versionManifest(next),
		}, s.priv)
		time.Sleep(thinkTime)
		if !time.Now().Before(deadline) {
			s.nextWrt-- // nothing was sent for this tenant
			return failed
		}
		s.wrtOps++
		lat, err := s.upgrade(ht, sr, 1<<31|s.wrtOps)
		if err != nil {
			failed++
			s.writeLog.addf("tenant %s: upgrade to 1.0.%d: %v", ht.t.ID, next, err)
			continue
		}
		ht.version = next
		// The new permissions must already be enforced: the flipped range
		// is granted by odd versions only.
		ht.marker.allowed = next%2 == 1
		if !s.do(ht, ht.app.api, &ht.marker, 0, &s.writeLog) {
			failed++
			continue
		}
		*samples = append(*samples, int64(lat))
	}
}

func (s *hostedScenario) round(_ int, d time.Duration) (map[string]opStat, uint64, int64) {
	var calls, upgrades []int64
	var readFailed, writeFailed int64
	m0 := mallocCount()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		readFailed = s.reader(deadline, &calls)
	}()
	go func() {
		defer wg.Done()
		writeFailed = s.writer(deadline, &upgrades)
	}()
	wg.Wait()
	wall := time.Since(start)
	mallocs := mallocCount() - m0
	stats := map[string]opStat{
		"call":    latencyStat(calls, wall, readFailed),
		"upgrade": latencyStat(upgrades, wall, writeFailed),
	}
	return stats, mallocs, stats["call"].Ops + stats["upgrade"].Ops
}

func (s *hostedScenario) verify() []string {
	var bad []string
	if n := atomic.LoadInt64(&s.throttled); n != 0 {
		bad = append(bad, fmt.Sprintf("%d operations were throttled by tenant admission, want 0", n))
	}
	for i, fs := range s.switches {
		dpid := of.DPID(i + 1)
		if err := s.kernel.Barrier(dpid); err != nil {
			bad = append(bad, fmt.Sprintf("%v: barrier: %v", dpid, err))
			continue
		}
		if got := fs.FlowMods(); got != s.inserts[i] {
			bad = append(bad, fmt.Sprintf("%v: switch saw %d flow-mods for %d allowed inserts", dpid, got, s.inserts[i]))
		}
	}
	for _, ht := range s.tenants {
		if n := s.kernel.RuleCount(ht.app.name, ht.dpid); n != hostedKeys {
			bad = append(bad, fmt.Sprintf("tenant %s: %d rules resident, want a constant %d", ht.t.ID, n, hostedKeys))
		}
	}
	return bad
}

func (s *hostedScenario) failures() []string {
	return append(append([]string(nil), s.readLog.msgs...), s.writeLog.msgs...)
}

func (s *hostedScenario) inputs() map[string]any {
	traces := make([][]callSpec, len(s.tenants))
	for i, ht := range s.tenants {
		traces[i] = ht.trace
	}
	return map[string]any{
		"transport":         "of.Pipe (in-memory; no socket is crossed)",
		"tenants":           hostedTenants,
		"rules_per_tenant":  hostedKeys,
		"manifest":          "medium (5 tokens x 15 filters), versions alternately grant and drop 10.9.0.0/16",
		"think_time_ms":     thinkTime.Milliseconds(),
		"driver_goroutines": 2,
		"call_trace_hash":   fmt.Sprintf("%016x", hashCalls(traces...)),
	}
}

func (s *hostedScenario) spanTree() map[spanName]spanName {
	return map[spanName]spanName{
		spanTenantDo: spanCall, spanInsertFlow: spanTenantDo, spanFlowStats: spanTenantDo,
		spanSubmit: spanAdmit, spanUpgrade: spanAdmit,
	}
}

func (s *hostedScenario) close() {
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.shield != nil {
		s.shield.Stop()
	}
	if s.kernel != nil {
		s.kernel.Stop()
	}
	for _, fs := range s.switches {
		fs.Close()
	}
}
