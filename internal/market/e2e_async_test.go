package market

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs"
)

// TestAsyncMarketEndToEnd drives the whole spine over real HTTP:
//
//  1. POST /market/install answers 202 with a job ID — nothing
//     reconciles on the request path;
//  2. the worker pipeline runs the install; polling /market/jobs/<id>
//     surfaces the verdict and the app goes active;
//  3. a follower replica ships the leader's release log, re-verifies
//     each package locally, and persists it to its own store;
//  4. a downstream registry federates from the leader with locally
//     provisioned keys and ends up with the same release.
//
// (The tampered-upstream and killed-worker halves of the acceptance
// scenario are TestTamperedUpstreamRejected and
// TestJobSurvivesManagerCrash.)
func TestAsyncMarketEndToEnd(t *testing.T) {
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.SetLeaderLease(NewLeaderLease("leader-e2e", time.Minute))
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jm.Close() })
	m.AttachJobs(jm, 2)
	MountHTTP(m)
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	t.Cleanup(srv.Close)

	// 1: install over HTTP is asynchronous.
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"})
	body, _ := json.Marshal(sr)
	resp, err := http.Post(srv.URL+"/market/install", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc jobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.JobID == 0 || acc.Poll == "" {
		t.Fatalf("install: status=%d body=%+v, want 202 with job ID", resp.StatusCode, acc)
	}

	// 2: the verdict becomes pollable and the app activates.
	var snap jobs.Snapshot
	waitCond(t, "job done over HTTP", func() bool {
		r, err := http.Get(srv.URL + acc.Poll)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return false
		}
		if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
			return false
		}
		return snap.State == jobs.StateDone
	})
	var res InstallResult
	// Snapshot strips Payload/Result from the struct fields; re-fetch the
	// raw body for the inlined result.
	r, err := http.Get(srv.URL + acc.Poll)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Result InstallResult `json:"result"`
	}
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	res = raw.Result
	if res.Verdict != VerdictApproved || res.Status != StatusActive {
		t.Fatalf("polled result = %+v", res)
	}
	if rt.permsOf("mon") == nil {
		t.Fatal("pipeline did not activate permissions")
	}

	// 3: a replica follows the log and persists to its own store.
	followerDir := t.TempDir()
	follower := NewRegistry()
	rep := NewSyncer(follower, SyncConfig{
		Upstream: srv.URL, Mode: SyncReplica, Dir: followerDir, TrustUpstreamKeys: true,
	})
	if n, err := rep.SyncOnce(); err != nil || n != 1 {
		t.Fatalf("replica round = (%d, %v), want (1, nil)", n, err)
	}
	if follower.RootDigest() != reg.RootDigest() {
		t.Fatal("replica diverges from leader")
	}
	if ents, err := os.ReadDir(filepath.Join(followerDir, "releases")); err != nil || len(ents) != 1 {
		t.Fatalf("follower store = (%v, %v), want 1 release", ents, err)
	}

	// 4: a downstream registry federates with its own trust anchor.
	downstream := NewRegistry()
	pub, _ := reg.VendorKey("acme")
	if err := downstream.TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	fed := NewSyncer(downstream, SyncConfig{Upstream: srv.URL, Mode: SyncFederate})
	if n, err := fed.SyncOnce(); err != nil || n != 1 {
		t.Fatalf("federation round = (%d, %v), want (1, nil)", n, err)
	}
	got, err := downstream.Release(sr.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest != sr.Manifest {
		t.Fatal("federated release drifted from the original")
	}
	if !fed.Stats().InSync {
		t.Fatalf("federation stats = %+v", fed.Stats())
	}
}
