package market

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/obs/span"
)

// heavyManifest builds a manifest whose insert_flow filter is a wide OR
// of IP ranges, so Algorithm 1 has real CNF/DNF work to do.
func heavyManifest(n int) string {
	var b strings.Builder
	b.WriteString("PERM read_statistics LIMITING PORT_LEVEL\n")
	b.WriteString("PERM visible_topology\n")
	b.WriteString("PERM insert_flow LIMITING ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" OR ")
		}
		fmt.Fprintf(&b, "IP_DST 10.%d.0.0 MASK 255.255.0.0", i)
	}
	b.WriteString("\n")
	return b.String()
}

// heavyPolicy bounds the app's insert_flow to a strict subset of the
// manifest's ranges, so reconciliation both runs the expensive inclusion
// comparison and exercises the MEET repair path.
func heavyPolicy(app string, n int) string {
	var b strings.Builder
	b.WriteString("LET Bound = { PERM read_statistics PERM visible_topology PERM insert_flow LIMITING ")
	for i := 0; i < n-2; i++ {
		if i > 0 {
			b.WriteString(" OR ")
		}
		fmt.Fprintf(&b, "IP_DST 10.%d.0.0 MASK 255.255.0.0", i)
	}
	b.WriteString(" }\nASSERT " + app + " <= Bound\n")
	return b.String()
}

func heavyMarket(t testing.TB, n int) (*Market, *SignedRelease) {
	t.Helper()
	pub, priv := genKey(t)
	reg := NewRegistry()
	if err := reg.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	sr := Sign(Release{Name: "heavyapp", Vendor: "acme", Version: "1.0.0",
		Manifest: heavyManifest(n)}, priv)
	if _, err := reg.Submit(sr); err != nil {
		t.Fatal(err)
	}
	m, err := New(reg, nil, Config{PolicySrc: heavyPolicy("heavyapp", n)})
	if err != nil {
		t.Fatal(err)
	}
	return m, sr
}

func TestPolicyDigestDistinguishesPolicies(t *testing.T) {
	a := PolicyDigest("ASSERT EITHER { PERM insert_flow } OR { PERM network_access }")
	b := PolicyDigest("ASSERT EITHER { PERM insert_flow } OR { PERM read_statistics }")
	if a == b {
		t.Fatal("different policies share a digest")
	}
	if PolicyDigest("") == PolicyDigest("\x00") {
		t.Fatal("empty-policy digest collides")
	}
}

func TestVerdictCacheHitMissCounters(t *testing.T) {
	c := NewVerdictCache()
	k := verdictKey{app: "m", manifest: "PERM read_statistics", policy: PolicyDigest("")}

	h0, m0 := c.Stats()
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, VerdictApproved, nil, core.NewSet(), core.NewSet(), core.Budget{})
	if _, ok := c.Get(k); !ok {
		t.Fatal("warm cache reported a miss")
	}
	h1, m1 := c.Stats()
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Fatalf("counter deltas hits=%d misses=%d, want 1 and 1", h1-h0, m1-m0)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestVerdictCacheIsolatesStoredSets(t *testing.T) {
	c := NewVerdictCache()
	k := verdictKey{app: "m", manifest: "PERM read_statistics", policy: PolicyDigest("")}

	eff := core.NewSet()
	eff.Grant(core.TokenReadStatistics, nil)
	c.Put(k, VerdictApproved, nil, eff, eff, core.Budget{})

	// Mutating the caller's set after Put must not reach the cache.
	eff.Grant(core.TokenInsertFlow, nil)
	cv, _ := c.Get(k)
	if cv.Effective().Has(core.TokenInsertFlow) {
		t.Fatal("cache entry aliased the caller's set")
	}
	// Mutating an accessor's result must not either.
	got := cv.Effective()
	got.Grant(core.TokenProcessRuntime, nil)
	cv2, _ := c.Get(k)
	if cv2.Effective().Has(core.TokenProcessRuntime) {
		t.Fatal("accessor leaked a mutable reference into the cache")
	}
}

// TestVerdictKeyCoversWhatReconcileReads checks that the verdict cache
// keys on what reconciliation reads — app name, manifest text, policy —
// and not on the release: a version bump with a byte-identical manifest
// is not parsed and replays the earlier verdict, enforcing the set a
// cache-less market computes for it, while a changed manifest, another
// app name or another policy on a shared cache misses.
func TestVerdictKeyCoversWhatReconcileReads(t *testing.T) {
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{PolicySrc: testPolicy, Probation: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	const manifest = "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"
	submit := func(app, version, text string) Digest {
		t.Helper()
		d, err := reg.Submit(sign(Release{Name: app, Vendor: "acme", Version: version, Manifest: text}))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	evaluate := func(m *Market, d Digest) *InstallResult {
		t.Helper()
		res, err := m.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res, err := m.Install(submit("mon", "1.0.0", manifest)); err != nil || res.CacheHit {
		t.Fatalf("install: %v %+v, want a cache miss", err, res)
	}
	bump := submit("mon", "1.1.0", manifest)
	if n := vettedLen(reg); n != 0 {
		t.Fatalf("Submit parsed a manifest the app already shipped: %d parses held", n)
	}
	res, err := m.Upgrade(bump)
	if err != nil || !res.CacheHit || res.Status != StatusProbation {
		t.Fatalf("upgrade: %v %+v, want a cache hit on probation", err, res)
	}
	stages := map[string]bool{}
	for _, rec := range span.DefaultCollector().Trace(res.Corr) {
		stages[rec.Name] = true
	}
	if !stages["stage:cache_hit"] || stages["stage:parse"] || stages["stage:reconcile"] {
		t.Fatalf("upgrade stages %v, want stage:cache_hit and neither stage:parse nor stage:reconcile", stages)
	}
	cold, err := New(reg, nil, Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if want := evaluate(cold, bump); want.CacheHit || want.Verdict != res.Verdict || want.Effective != res.Effective {
		t.Fatalf("cache-less market: %+v, want a miss with the upgrade's verdict %q and set %q", want, res.Verdict, res.Effective)
	}
	sr, err := reg.Release(bump)
	if err != nil {
		t.Fatal(err)
	}
	cv, _ := cold.Cache().Get(cold.keyOf(sr))
	if same, err := rt.permsOf("mon").Equal(cv.Effective()); err != nil || !same {
		t.Fatalf("enforced %v, a cache-less market computes %v (%v)", rt.permsOf("mon"), cv.Effective(), err)
	}

	if evaluate(m, submit("mon", "1.2.0", "PERM read_statistics")).CacheHit {
		t.Fatal("a changed manifest hit the cache")
	}
	if evaluate(m, submit("probe", "1.0.0", manifest)).CacheHit {
		t.Fatal("the same manifest under another app name hit the cache")
	}
	other, err := New(reg, nil, Config{PolicySrc: heavyPolicy("mon", 4), Cache: m.Cache()})
	if err != nil {
		t.Fatal(err)
	}
	if evaluate(other, bump).CacheHit {
		t.Fatal("the same manifest under another policy hit a shared cache")
	}
	if !evaluate(m, bump).CacheHit {
		t.Fatal("the shared cache lost the first policy's verdict")
	}
}

func TestReconcileReleaseMemoizes(t *testing.T) {
	m, sr := heavyMarket(t, 8)
	cv1, hit1, err := m.reconcileTraced(sr, sr.Digest(), span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first reconciliation reported a cache hit")
	}
	if cv1.Verdict != VerdictRepaired {
		t.Fatalf("verdict = %q, want repaired", cv1.Verdict)
	}
	cv2, hit2, err := m.reconcileTraced(sr, sr.Digest(), span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second reconciliation missed the cache")
	}
	if cv2 != cv1 {
		t.Fatal("cache returned a different entry for the same pair")
	}
	// The repaired set must sit inside the boundary: it lost the ranges
	// the policy excluded.
	same, err := cv1.Effective().Equal(cv1.Requested())
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("repair did not narrow the requested set")
	}
}

// TestCacheHitSpeedup is the acceptance check: replaying a memoized
// verdict must be at least an order of magnitude faster than running
// parse + Algorithm 1.
func TestCacheHitSpeedup(t *testing.T) {
	m, sr := heavyMarket(t, 16)
	const rounds = 50
	// Each side is its fastest round: a mean over 50 rounds turns one
	// preemption of a few milliseconds into a 5x "slowdown" of the
	// microsecond-scale hit path.
	fastest := func(wantHit bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			if !wantHit {
				m.cache = NewVerdictCache() // force the full pipeline
			}
			start := time.Now()
			_, hit, err := m.reconcileTraced(sr, sr.Digest(), span.Context{})
			if d := time.Since(start); d < best {
				best = d
			}
			if err != nil || hit != wantHit {
				t.Fatalf("round %d: hit=%v (want %v) err=%v", i, hit, wantHit, err)
			}
		}
		return best
	}
	missPer := fastest(false)
	if _, _, err := m.reconcileTraced(sr, sr.Digest(), span.Context{}); err != nil { // warm
		t.Fatal(err)
	}
	hitPer := fastest(true)

	if hitPer <= 0 {
		hitPer = 1
	}
	ratio := float64(missPer) / float64(hitPer)
	t.Logf("miss %v/op, hit %v/op, speedup %.0fx", missPer, hitPer, ratio)
	if ratio < 10 {
		t.Fatalf("cache hit speedup %.1fx, want >= 10x (miss %v, hit %v)", ratio, missPer, hitPer)
	}
}

func BenchmarkReconcileVerdictMiss(b *testing.B) {
	m, sr := heavyMarket(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.cache = NewVerdictCache()
		if _, _, err := m.reconcileTraced(sr, sr.Digest(), span.Context{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconcileVerdictHit(b *testing.B) {
	m, sr := heavyMarket(b, 16)
	if _, _, err := m.reconcileTraced(sr, sr.Digest(), span.Context{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := m.reconcileTraced(sr, sr.Digest(), span.Context{}); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkUpgradeSameManifest times Submit + Upgrade of a version bump
// that keeps the medium manifest: the verify, the version checks and the
// activation run, the parse and Algorithm 1 do not.
func BenchmarkUpgradeSameManifest(b *testing.B) {
	pub, priv := genKey(b)
	kernel := controller.New(nil, nil)
	shield := isolation.NewShield(kernel, isolation.Config{})
	b.Cleanup(func() {
		shield.Stop()
		kernel.Stop()
	})
	reg := NewRegistry()
	if err := reg.TrustVendor("acme", pub); err != nil {
		b.Fatal(err)
	}
	m, err := New(reg, shield, Config{PolicySrc: mediumPolicy})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	releases := make([]*SignedRelease, b.N+1)
	for i := range releases {
		releases[i] = Sign(Release{Name: "netapp", Vendor: "acme", Version: fmt.Sprintf("1.0.%d", i),
			Manifest: mediumManifest()}, priv)
	}
	d, err := reg.Submit(releases[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Install(d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for _, sr := range releases[1:] {
		d, err := reg.Submit(sr)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := m.Upgrade(d); err != nil || !res.CacheHit {
			b.Fatalf("upgrade: %v %+v, want a cache hit", err, res)
		}
	}
}
