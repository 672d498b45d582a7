package market

import (
	"errors"
	"testing"

	"sdnshield/internal/obs/audit"
)

func newTestRegistry(t *testing.T) (*Registry, func(r Release) *SignedRelease) {
	t.Helper()
	pub, priv := genKey(t)
	reg := NewRegistry()
	if err := reg.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	return reg, func(r Release) *SignedRelease { return Sign(r, priv) }
}

func TestSubmitAcceptsValidPackage(t *testing.T) {
	reg, sign := newTestRegistry(t)
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	d, err := reg.Submit(sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg.Release(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest != sr.Manifest {
		t.Fatal("stored manifest differs")
	}
	// Identical resubmission is idempotent.
	if _, err := reg.Submit(sr); err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
}

func TestSubmitRejectsUnknownVendor(t *testing.T) {
	reg, _ := newTestRegistry(t)
	_, priv := genKey(t)
	sr := Sign(Release{Name: "mon", Vendor: "shady", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	if _, err := reg.Submit(sr); !errors.Is(err, ErrUnknownVendor) {
		t.Fatalf("err = %v, want ErrUnknownVendor", err)
	}
}

func TestSubmitRejectsTamperedPackage(t *testing.T) {
	reg, sign := newTestRegistry(t)
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	// Tamper after signing: the classic supply-chain rewrite.
	sr.Manifest = "PERM read_statistics\nPERM process_runtime"
	if _, err := reg.Submit(sr); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	if len(reg.Releases("mon")) != 0 {
		t.Fatal("tampered release was stored")
	}
}

func TestSubmitRejectsGarbageManifestAndBadVersion(t *testing.T) {
	reg, sign := newTestRegistry(t)
	if _, err := reg.Submit(sign(Release{Name: "m", Vendor: "acme", Version: "1.0.0", Manifest: "PERM not_a_token"})); err == nil {
		t.Fatal("garbage manifest accepted")
	}
	if _, err := reg.Submit(sign(Release{Name: "m", Vendor: "acme", Version: "one", Manifest: "PERM read_statistics"})); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestSubmitRejectsConflictingVersion(t *testing.T) {
	reg, sign := newTestRegistry(t)
	if _, err := reg.Submit(sign(Release{Name: "m", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}
	conflicting := sign(Release{Name: "m", Vendor: "acme", Version: "1.0.0", Manifest: "PERM insert_flow"})
	if _, err := reg.Submit(conflicting); !errors.Is(err, ErrDuplicateRelease) {
		t.Fatalf("err = %v, want ErrDuplicateRelease", err)
	}
}

// TestSubmitStoresOneReleasePerVersion is the regression test for one
// semantic version stored under several spellings: a signed, leading-zero
// or zero-padded component does not parse, and a spelling that parses to
// a stored version is a duplicate.
func TestSubmitStoresOneReleasePerVersion(t *testing.T) {
	reg, sign := newTestRegistry(t)
	if _, err := reg.Submit(sign(Release{Name: "a", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"01.0.0", "+1.0.0", "1.0.00"} {
		if _, err := reg.Submit(sign(Release{Name: "a", Vendor: "acme", Version: v, Manifest: "PERM read_statistics"})); err == nil {
			t.Errorf("version %q accepted", v)
		}
	}
	respelled := sign(Release{Name: "a", Vendor: "acme", Version: " 1.0.0", Manifest: "PERM read_statistics"})
	if _, err := reg.Submit(respelled); !errors.Is(err, ErrDuplicateRelease) {
		t.Errorf("version %q: err = %v, want ErrDuplicateRelease", respelled.Version, err)
	}
	if n := len(reg.Releases("a")); n != 1 {
		t.Fatalf("registry stores %d releases of a, want 1", n)
	}
}

func TestReleasesSortedBySemverAndLatest(t *testing.T) {
	reg, sign := newTestRegistry(t)
	for _, v := range []string{"2.0.0", "1.0.0", "1.10.0", "1.2.0"} {
		if _, err := reg.Submit(sign(Release{Name: "m", Vendor: "acme", Version: v, Manifest: "PERM read_statistics LIMITING PORT_LEVEL"})); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, r := range reg.Releases("m") {
		got = append(got, r.Version)
	}
	want := []string{"1.0.0", "1.2.0", "1.10.0", "2.0.0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	latest, ok := reg.Latest("m")
	if !ok || latest.Version != "2.0.0" {
		t.Fatalf("Latest = %v", latest)
	}
}

func TestSubmitRejectionAudited(t *testing.T) {
	reg, _ := newTestRegistry(t)
	_, priv := genKey(t)
	sr := Sign(Release{Name: "evil", Vendor: "shady", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	before := audit.Default().LastSeq()
	if _, err := reg.Submit(sr); err == nil {
		t.Fatal("expected rejection")
	}
	audit.Default().DrainNow()
	evs := audit.Default().Query(audit.Filter{App: "evil", Kind: audit.KindMarket, Verdict: audit.VerdictReject, AfterSeq: before})
	if len(evs) == 0 {
		t.Fatal("no audit event for rejected submission")
	}
}
