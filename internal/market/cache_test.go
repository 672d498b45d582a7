package market

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/core"
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
	rel := Release{Name: "m", Vendor: "v", Version: "1.0.0", Manifest: "PERM read_statistics"}
	mk := rel.Digest()
	pol := PolicyDigest("")

	h0, m0 := c.Stats()
	if _, ok := c.Get(mk, pol); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(mk, pol, VerdictApproved, nil, core.NewSet(), core.NewSet(), core.Budget{})
	if _, ok := c.Get(mk, pol); !ok {
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
	rel := Release{Name: "m", Vendor: "v", Version: "1.0.0", Manifest: "PERM read_statistics"}
	mk := rel.Digest()
	pol := PolicyDigest("")

	eff := core.NewSet()
	eff.Grant(core.TokenReadStatistics, nil)
	c.Put(mk, pol, VerdictApproved, nil, eff, eff, core.Budget{})

	// Mutating the caller's set after Put must not reach the cache.
	eff.Grant(core.TokenInsertFlow, nil)
	cv, _ := c.Get(mk, pol)
	if cv.Effective().Has(core.TokenInsertFlow) {
		t.Fatal("cache entry aliased the caller's set")
	}
	// Mutating an accessor's result must not either.
	got := cv.Effective()
	got.Grant(core.TokenProcessRuntime, nil)
	cv2, _ := c.Get(mk, pol)
	if cv2.Effective().Has(core.TokenProcessRuntime) {
		t.Fatal("accessor leaked a mutable reference into the cache")
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
