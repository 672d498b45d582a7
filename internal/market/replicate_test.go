package market

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
)

func TestLeaderLeaseEpochs(t *testing.T) {
	l := NewLeaderLease("node-a", 50*time.Millisecond)
	v := l.View()
	if v.Holder != "node-a" || v.Epoch != 1 || v.Expired {
		t.Fatalf("fresh lease = %+v", v)
	}
	// Renewal inside the TTL keeps the epoch.
	if v = l.Renew(); v.Epoch != 1 {
		t.Fatalf("in-TTL renew bumped epoch to %d", v.Epoch)
	}
	// A competing node cannot take a live lease.
	if _, ok := l.Acquire("node-b"); ok {
		t.Fatal("live lease acquired by another node")
	}
	time.Sleep(60 * time.Millisecond)
	if v = l.View(); !v.Expired {
		t.Fatal("lease did not expire")
	}
	// Expired lease renews under a bumped epoch — the visible gap.
	if v = l.Renew(); v.Epoch != 2 {
		t.Fatalf("post-expiry renew epoch = %d, want 2", v.Epoch)
	}
	time.Sleep(60 * time.Millisecond)
	v2, ok := l.Acquire("node-b")
	if !ok || v2.Holder != "node-b" || v2.Epoch != 3 {
		t.Fatalf("takeover = %+v ok=%v", v2, ok)
	}
}

// TestHeartbeatKeepsLeaseAlive: the leader's heartbeat renews inside
// the TTL; stopping it lets the lease expire on schedule. The TTL leaves
// the heartbeat goroutine two missed ticks (160ms) of scheduling slack:
// under -race on a loaded machine a 60ms lease expired between beats.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	const ttl = 240 * time.Millisecond
	l := NewLeaderLease("node-a", ttl)
	stop := l.Heartbeat()
	time.Sleep(5 * ttl / 2)
	if v := l.View(); v.Expired || v.Epoch != 1 {
		t.Fatalf("heartbeated lease = %+v, want live at epoch 1", v)
	}
	stop()
	time.Sleep(ttl + 20*time.Millisecond)
	if v := l.View(); !v.Expired {
		t.Fatalf("lease after heartbeat stop = %+v, want expired", v)
	}
}

// TestReadsDoNotRenewLease: polling /market/lease and /market/log must
// not keep the lease fresh — otherwise a follower (or any monitoring
// probe) pins a dead leader's lease forever and a successor can never
// acquire it.
func TestReadsDoNotRenewLease(t *testing.T) {
	reg, sign := newTestRegistry(t)
	m, err := New(reg, newFakeRuntime(), Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := reg.Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}
	lease := NewLeaderLease("old-leader", 50*time.Millisecond)
	m.SetLeaderLease(lease) // no heartbeat: the "leader" is effectively dead
	MountHTTP(m)
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	t.Cleanup(srv.Close)

	// Poll well past the TTL; each read must leave the expiry untouched.
	deadline := time.Now().Add(120 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, path := range []string{"/market/lease", "/market/log?after=0"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	var view LeaseView
	resp, err := http.Get(srv.URL + "/market/lease")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !view.Expired {
		t.Fatalf("lease still live after polling past TTL: %+v", view)
	}
	if v, ok := lease.Acquire("new-leader"); !ok {
		t.Fatalf("takeover of an expired, polled lease failed: %+v", v)
	}
}

// leaderEnv builds a market with releases, a lease, and a live httptest
// server over its mounted routes.
func leaderEnv(t *testing.T) (*Market, *httptest.Server, func(r Release) *SignedRelease) {
	t.Helper()
	reg, sign := newTestRegistry(t)
	m, err := New(reg, newFakeRuntime(), Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.SetLeaderLease(NewLeaderLease("leader-1", time.Minute))
	MountHTTP(m)
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	t.Cleanup(srv.Close)
	return m, srv, sign
}

func TestReplicaFollowsReleaseLog(t *testing.T) {
	m, srv, sign := leaderEnv(t)
	for _, v := range []string{"1.0.0", "1.1.0"} {
		if _, err := m.Registry().Submit(sign(Release{Name: "mon", Vendor: "acme", Version: v, Manifest: "PERM read_statistics"})); err != nil {
			t.Fatal(err)
		}
	}

	followerDir := t.TempDir()
	follower := NewRegistry()
	s := NewSyncer(follower, SyncConfig{
		Upstream: srv.URL, Mode: SyncReplica, Dir: followerDir, TrustUpstreamKeys: true,
	})
	n, err := s.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("first round admitted %d, want 2", n)
	}
	if got, want := follower.RootDigest(), m.Registry().RootDigest(); got != want {
		t.Fatalf("root digests diverge after sync: %s vs %s", got, want)
	}
	st := s.Stats()
	if !st.InSync || st.LastSeq != 2 || st.LastEpoch == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// New leader release: the next round ships only the suffix.
	if _, err := m.Registry().Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "2.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}
	if n, err = s.SyncOnce(); err != nil || n != 1 {
		t.Fatalf("incremental round = (%d, %v), want (1, nil)", n, err)
	}

	// Admitted releases were persisted for restart durability.
	entries, err := os.ReadDir(filepath.Join(followerDir, "releases"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("follower store holds %d releases (%v), want 3", len(entries), err)
	}

	// A restarted follower reloads from its own store, no upstream needed.
	reloaded := NewRegistry()
	pub, _ := m.Registry().VendorKey("acme")
	if err := reloaded.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	loaded, problems, err := LoadDir(followerDir, reloaded)
	if err != nil || len(problems) > 0 || loaded != 3 {
		t.Fatalf("reload = (%d, %v, %v)", loaded, problems, err)
	}
}

func TestFederationReverifiesAndRejectsUntrustedVendors(t *testing.T) {
	m, srv, sign := leaderEnv(t)
	if _, err := m.Registry().Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}
	// A second vendor the downstream does NOT provision.
	pubEvil, privEvil := genKey(t)
	if err := m.Registry().TrustVendor("shady", pubEvil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Registry().Submit(Sign(Release{Name: "tap", Vendor: "shady", Version: "1.0.0", Manifest: "PERM read_statistics"}, privEvil)); err != nil {
		t.Fatal(err)
	}

	// Downstream trusts only acme, provisioned locally — keys are NOT
	// imported from the upstream in federate mode.
	downstream := NewRegistry()
	pub, _ := m.Registry().VendorKey("acme")
	if err := downstream.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	before := audit.Default().Query(audit.Filter{})
	var afterSeq uint64
	if len(before) > 0 {
		afterSeq = before[len(before)-1].Seq
	}
	s := NewSyncer(downstream, SyncConfig{Upstream: srv.URL, Mode: SyncFederate})
	n, err := s.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("admitted %d, want 1 (only the trusted vendor's release)", n)
	}
	st := s.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if st.InSync {
		t.Fatal("a filtering federation boundary must not claim full sync")
	}
	if len(downstream.Releases("tap")) != 0 {
		t.Fatal("untrusted vendor's release crossed the federation boundary")
	}
	// The refusal is audited as a federation event.
	waitCond(t, "federation reject audit event", func() bool {
		evs := audit.Default().Query(audit.Filter{
			Kind: audit.KindFederation, Verdict: audit.VerdictReject, AfterSeq: afterSeq,
		})
		for _, ev := range evs {
			if strings.Contains(ev.Detail, "unknown vendor") {
				return true
			}
		}
		return false
	})
}

// TestTamperedUpstreamRejected serves a release whose body does not hash
// to its claimed digest — a poisoned mirror — and proves the follower
// refuses it with a correlated audit trail while the stream continues.
func TestTamperedUpstreamRejected(t *testing.T) {
	pub, priv := genKey(t)
	good := Sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	tampered := *good
	tampered.Manifest = "PERM network_access" // body no longer matches its digest claim

	mux := http.NewServeMux()
	mux.HandleFunc("/market/lease", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no lease", http.StatusNotFound)
	})
	mux.HandleFunc("/market/log", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"last_seq": 1,
			"entries":  []LogEntry{{Seq: 1, Digest: good.Digest().String(), App: "mon", Version: "1.0.0"}},
		})
	})
	mux.HandleFunc("/market/release", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(&tampered)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	follower := NewRegistry()
	if err := follower.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	var afterSeq uint64
	if evs := audit.Default().Query(audit.Filter{}); len(evs) > 0 {
		afterSeq = evs[len(evs)-1].Seq
	}
	s := NewSyncer(follower, SyncConfig{Upstream: srv.URL, Mode: SyncReplica})
	n, err := s.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("admitted %d tampered releases, want 0", n)
	}
	if len(follower.Digests()) != 0 {
		t.Fatal("tampered release entered the registry")
	}
	st := s.Stats()
	if st.Rejected != 1 || st.LastSeq != 1 {
		t.Fatalf("stats = %+v (stream must advance past the poisoned entry)", st)
	}
	var corr uint64
	waitCond(t, "tamper reject audit event", func() bool {
		evs := audit.Default().Query(audit.Filter{
			Kind: audit.KindFederation, Verdict: audit.VerdictReject, AfterSeq: afterSeq,
		})
		for _, ev := range evs {
			if strings.Contains(ev.Detail, "tampered") {
				corr = ev.Corr
				return true
			}
		}
		return false
	})
	if corr == 0 {
		t.Fatal("federation reject event carries no correlation ID")
	}
}

// TestPersistFailureStillAdmits: a release that enters the registry but
// cannot be written to the follower store is admitted exactly once in
// the stats — not double-counted as rejected — with a distinct
// persist_failed audit event.
func TestPersistFailureStillAdmits(t *testing.T) {
	m, srv, sign := leaderEnv(t)
	if _, err := m.Registry().Submit(sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})); err != nil {
		t.Fatal(err)
	}

	// Dir is a plain file, so SaveRelease's MkdirAll fails every time.
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var afterSeq uint64
	if evs := audit.Default().Query(audit.Filter{}); len(evs) > 0 {
		afterSeq = evs[len(evs)-1].Seq
	}
	follower := NewRegistry()
	s := NewSyncer(follower, SyncConfig{
		Upstream: srv.URL, Mode: SyncReplica, Dir: notADir, TrustUpstreamKeys: true,
	})
	n, err := s.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("admitted %d, want 1", n)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want admitted 1 / rejected 0", st)
	}
	if len(follower.Digests()) != 1 {
		t.Fatal("release did not enter the follower registry")
	}
	waitCond(t, "persist_failed audit event", func() bool {
		evs := audit.Default().Query(audit.Filter{
			Kind: audit.KindFederation, Verdict: audit.VerdictPersistFailed, AfterSeq: afterSeq,
		})
		return len(evs) == 1
	})
}

func TestSyncerRefusesLeaseEpochRegression(t *testing.T) {
	epoch := uint64(5)
	mux := http.NewServeMux()
	mux.HandleFunc("/market/lease", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(LeaseView{Holder: "x", Epoch: epoch})
	})
	mux.HandleFunc("/market/log", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"last_seq": 0, "entries": []LogEntry{}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	s := NewSyncer(NewRegistry(), SyncConfig{Upstream: srv.URL, Mode: SyncReplica})
	if _, err := s.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	epoch = 3 // a stale leader reappears
	if _, err := s.SyncOnce(); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("err = %v, want epoch regression refusal", err)
	}
}
