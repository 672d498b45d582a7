package market

import (
	"fmt"
	"strings"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
)

// mediumManifest is the benchmark corpus's medium release: five tokens,
// each limited to a 13-way OR of IP_DST /16s conjoined with a priority cap
// and an ownership filter.
func mediumManifest() string {
	var sb strings.Builder
	for _, tok := range []string{"insert_flow", "read_statistics", "read_flow_table", "delete_flow", "send_pkt_out"} {
		fmt.Fprintf(&sb, "PERM %s LIMITING (", tok)
		for j := 0; j < 13; j++ {
			if j > 0 {
				sb.WriteString(" OR ")
			}
			fmt.Fprintf(&sb, "IP_DST 10.%d.0.0 MASK 255.255.0.0", 1+j%8)
		}
		sb.WriteString(") AND MAX_PRIORITY 60000 AND ALL_FLOWS\n")
	}
	return sb.String()
}

// mediumPolicy bounds the app to 10.0.0.0/12 on the same tokens, so the
// medium manifest reconciles clean through a full inclusion check.
const mediumPolicy = `LET Bound = {
PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0
PERM read_statistics LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0
PERM read_flow_table LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0
PERM delete_flow LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0
PERM send_pkt_out LIMITING IP_DST 10.0.0.0 MASK 255.240.0.0
}
ASSERT EITHER { PERM process_runtime } OR { PERM host_network }
ASSERT netapp <= Bound
`

// admissionAllocBudget is the measured allocation count of one Submit +
// Install of the medium manifest (1 006 with go1.24 on linux/amd64) plus
// 10 %. Most of it is Algorithm 1's normal forms, the engine's compile and
// the one parse; a second parse of the manifest alone costs about 230.
const admissionAllocBudget = 1107

// TestAdmissionAllocs holds one admission — signature check, parse,
// reconcile, activation into a shield — to its allocation budget.
func TestAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	pub, priv := genKey(t)
	kernel := controller.New(nil, nil)
	shield := isolation.NewShield(kernel, isolation.Config{})
	t.Cleanup(func() {
		shield.Stop()
		kernel.Stop()
	})
	sr := Sign(Release{Name: "netapp", Vendor: "acme", Version: "1.0.0", Manifest: mediumManifest()}, priv)

	// Every admission meets a fresh registry and market, built outside the
	// measured function; AllocsPerRun calls it once more than runs.
	const runs = 40
	type site struct {
		reg *Registry
		mkt *Market
	}
	sites := make([]site, runs+1)
	for i := range sites {
		reg := NewRegistry()
		if err := reg.TrustVendor("acme", pub); err != nil {
			t.Fatal(err)
		}
		mkt, err := New(reg, shield, Config{PolicySrc: mediumPolicy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mkt.Close)
		sites[i] = site{reg, mkt}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		st := sites[next]
		next++
		d, err := st.reg.Submit(sr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.mkt.Install(d)
		if err != nil || res.Verdict != VerdictApproved || res.CacheHit {
			t.Fatalf("install: %v %+v, want an approved cache miss", err, res)
		}
	})
	t.Logf("%.0f allocations per admission (budget %d)", allocs, admissionAllocBudget)
	if allocs > admissionAllocBudget {
		t.Fatalf("%.0f allocations per admission, budget %d", allocs, admissionAllocBudget)
	}
}

func vettedLen(reg *Registry) int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return len(reg.vetted)
}

// TestVettedManifestHandOff checks that the parse Submit made reaches the
// first reconciliation and is then forgotten, that a second market on the
// same registry still reconciles by parsing, and that the hand-off is
// bounded.
func TestVettedManifestHandOff(t *testing.T) {
	reg, sign := newTestRegistry(t)
	d, err := reg.Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nBUDGET CPU_MS_PER_SEC 250"}))
	if err != nil {
		t.Fatal(err)
	}
	if vettedLen(reg) != 1 {
		t.Fatalf("Submit kept %d parsed manifests, want 1", vettedLen(reg))
	}

	want := core.Budget{CPUMillisPerSec: 250}
	for i := 0; i < 2; i++ {
		rt := newBudgetFakeRuntime()
		m, err := New(reg, rt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		res, err := m.Install(d)
		if err != nil || res.Verdict != VerdictApproved || res.CacheHit {
			t.Fatalf("market %d: install %v %+v, want an approved cache miss", i, err, res)
		}
		if n := vettedLen(reg); n != 0 {
			t.Fatalf("market %d: registry holds %d parsed manifests after Install, want 0", i, n)
		}
		if got := rt.budgetOf("mon"); got != want {
			t.Fatalf("market %d: budget %q, want %q", i, got, want)
		}
		if got := rt.permsOf("mon"); got == nil || !got.Has(core.TokenReadStatistics) {
			t.Fatalf("market %d: permissions %v", i, got)
		}
	}

	for i := 0; i < maxVetted+5; i++ {
		if _, err := reg.Submit(sign(Release{Name: fmt.Sprintf("app%d", i), Vendor: "acme",
			Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
			t.Fatal(err)
		}
	}
	if n := vettedLen(reg); n != maxVetted {
		t.Fatalf("registry holds %d parsed manifests, want the bound %d", n, maxVetted)
	}
}

// TestRecomputeKeepsBudget checks that a verdict Recompute stored carries
// the manifest's budget to a later cache-hit install.
func TestRecomputeKeepsBudget(t *testing.T) {
	reg, sign := newTestRegistry(t)
	rt := newBudgetFakeRuntime()
	m, err := New(reg, rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	d, err := reg.Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nBUDGET MAX_GOROUTINES 4"}))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Recompute("mon"); err != nil || n != 1 {
		t.Fatalf("Recompute = %d, %v", n, err)
	}
	res, err := m.Install(d)
	if err != nil || !res.CacheHit {
		t.Fatalf("install: %v %+v, want a cache hit", err, res)
	}
	if got, want := rt.budgetOf("mon"), (core.Budget{MaxGoroutines: 4}); got != want {
		t.Fatalf("budget %q, want %q", got, want)
	}
}
