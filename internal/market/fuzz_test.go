package market

import (
	"testing"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/permlang"
)

// FuzzAdmission drives two fuzzed manifests, signed by a trusted vendor,
// through the whole lifecycle of one app: Submit, Install, Approve if
// pending, Upgrade to a higher version carrying the second manifest,
// Approve if pending, Revoke. No step may panic, and after each one the
// runtime holds what the market says is active: the last pushed set is
// ActivePermissions (empty after Revoke) and the last pushed budget is
// the active release's parsed BUDGET (zero when none is active).
func FuzzAdmission(f *testing.F) {
	seeds := []string{
		"PERM read_statistics",
		"PERM read_statistics LIMITING PORT_LEVEL",
		"PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0",
		"PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0",
		"PERM pkt_in_event\nPERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0",
		"PERM read_statistics\nBUDGET CPU_MS_PER_SEC 250",
		"PERM read_statistics\nBUDGET MAX_GOROUTINES 4",
		"PERM process_runtime",
		mediumManifest(),
	}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
	}
	pub, priv := genKey(f)
	const app = "netapp" // the name mediumPolicy's ASSERT bounds
	f.Fuzz(func(t *testing.T, first, second string) {
		if len(first) > 4096 || len(second) > 4096 {
			return // keep one reconciliation cheap
		}
		reg := NewRegistry()
		if err := reg.TrustVendor("acme", pub); err != nil {
			t.Fatal(err)
		}
		rt := newBudgetFakeRuntime()
		m, err := New(reg, rt, Config{PolicySrc: mediumPolicy, Probation: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		check := func(step string) {
			t.Helper()
			got := rt.permsOf(app)
			snap, _ := m.Status(app)
			var budget core.Budget
			switch want, active := m.ActivePermissions(app); {
			case snap.Status == StatusRevoked:
				if got == nil || got.Len() != 0 {
					t.Fatalf("after %s: revoked app holds %v", step, got)
				}
			case !active:
				if got != nil {
					t.Fatalf("after %s: nothing active, runtime holds %v", step, got)
				}
			default:
				if got == nil || got.SortedString() != want.SortedString() {
					t.Fatalf("after %s: runtime holds %v, active is %v", step, got, want)
				}
				d, err := ParseDigest(snap.Digest)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := reg.Release(d)
				if err != nil {
					t.Fatal(err)
				}
				manifest, err := permlang.Parse(sr.Manifest)
				if err != nil {
					t.Fatalf("after %s: active release does not parse: %v", step, err)
				}
				budget = manifest.Budget
			}
			if b := rt.budgetOf(app); b != budget {
				t.Fatalf("after %s: runtime budget %v, active release declares %v", step, b, budget)
			}
		}
		approveIfPending := func() {
			if snap, _ := m.Status(app); snap.PendingVersion != "" {
				if _, err := m.Approve(app); err != nil {
					t.Fatalf("approve: %v", err)
				}
				check("approve")
			}
		}

		d1, err := reg.Submit(Sign(Release{Name: app, Vendor: "acme", Version: "1.0.0", Manifest: first}, priv))
		if err != nil {
			return // the vet refused the manifest
		}
		_, _ = m.Install(d1)
		check("install")
		approveIfPending()
		if d2, err := reg.Submit(Sign(Release{Name: app, Vendor: "acme", Version: "2.0.0", Manifest: second}, priv)); err == nil {
			_, _ = m.Upgrade(d2)
			check("upgrade")
			approveIfPending()
		}
		_ = m.Revoke(app)
		check("revoke")
	})
}
