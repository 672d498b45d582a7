package market

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/span"
)

// TestInstallTraceEndToEnd is the tracing acceptance scenario: one
// async install over HTTP yields ONE trace at /trace/<corr> — the 202's
// correlation ID — whose spans cover the ingress request, the enqueue,
// the queue wait, the worker execution and every pipeline stage; a
// replica sync pull then extends the same trace across the node
// boundary (leader and follower share this process's collector, so
// both sides' spans land in one timeline).
func TestInstallTraceEndToEnd(t *testing.T) {
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.SetLeaderLease(NewLeaderLease("leader-trace", time.Minute))
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jm.Close() })
	m.AttachJobs(jm, 2)
	MountHTTP(m)
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	t.Cleanup(srv.Close)

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
	if resp.StatusCode != http.StatusAccepted || acc.Corr == 0 {
		t.Fatalf("install: status=%d body=%+v, want 202 with a correlation ID", resp.StatusCode, acc)
	}
	if want := fmt.Sprintf("/trace/%d", acc.Corr); acc.Trace != want {
		t.Fatalf("202 trace link = %q, want %q", acc.Trace, want)
	}

	waitCond(t, "traced install done", func() bool {
		r, err := http.Get(srv.URL + acc.Poll)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var snap jobs.Snapshot
		if json.NewDecoder(r.Body).Decode(&snap) != nil {
			return false
		}
		return snap.State == jobs.StateDone
	})

	// fetchTrace pulls /trace/<corr> and folds it into a name → count
	// map, asserting along the way that every span belongs to the trace.
	fetchTrace := func() map[string]int {
		t.Helper()
		r, err := http.Get(srv.URL + acc.Trace)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", acc.Trace, r.StatusCode)
		}
		var got struct {
			TraceID uint64        `json:"trace_id"`
			Spans   []span.Record `json:"spans"`
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.TraceID != acc.Corr {
			t.Fatalf("trace ID = %d, want corr %d", got.TraceID, acc.Corr)
		}
		names := make(map[string]int)
		for _, sp := range got.Spans {
			if sp.TraceID != acc.Corr {
				t.Fatalf("span %q carries trace %d, want %d", sp.Name, sp.TraceID, acc.Corr)
			}
			names[sp.Name]++
		}
		return names
	}

	names := fetchTrace()
	for _, want := range []string{
		"http:market.install",        // ingress root
		"job:enqueue:market.install", // durable enqueue
		"job:queue_wait",             // backlog residency
		"job:exec:market.install",    // worker attempt
		"stage:verify",
		"stage:parse",
		"stage:reconcile",
		"stage:activate",
	} {
		if names[want] == 0 {
			t.Errorf("trace %d missing span %q (have %v)", acc.Corr, want, names)
		}
	}

	// A replica sync pull continues the SAME trace across the HTTP
	// boundary: the log entry carries the submission corr, the follower
	// admits under it, and the leader's serve side joins via the
	// propagated header.
	follower := NewRegistry()
	rep := NewSyncer(follower, SyncConfig{
		Upstream: srv.URL, Mode: SyncReplica, Dir: t.TempDir(), TrustUpstreamKeys: true,
	})
	if n, err := rep.SyncOnce(); err != nil || n != 1 {
		t.Fatalf("replica round = (%d, %v), want (1, nil)", n, err)
	}
	names = fetchTrace()
	if names["sync:admit"] == 0 {
		t.Errorf("trace missing the follower's sync:admit span (have %v)", names)
	}
	if names["serve:release"] == 0 {
		t.Errorf("trace missing the leader's serve:release span (have %v)", names)
	}
}

// TestTraceHeaderContinuesCallerTrace: a client that already holds a
// span context propagates it via X-Sdnshield-Trace, and the market
// continues that trace instead of minting a fresh correlation ID.
func TestTraceHeaderContinuesCallerTrace(t *testing.T) {
	reg, sign := newTestRegistry(t)
	m, err := New(reg, newFakeRuntime(), Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.SetLeaderLease(NewLeaderLease("leader-hdr", time.Minute))
	MountHTTP(m)
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	t.Cleanup(srv.Close)

	caller := span.Root(4_441_777, "client:op")
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"})
	body, _ := json.Marshal(sr)
	req, _ := http.NewRequest("POST", srv.URL+"/market/install", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(span.Header, caller.Context().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var res InstallResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	caller.End()
	if resp.StatusCode != http.StatusOK || res.Verdict != VerdictApproved {
		t.Fatalf("sync install = status %d %+v, want 200 approved", resp.StatusCode, res)
	}
	// No job spine attached: the install ran synchronously, and its
	// spans landed in the CALLER's trace — no fresh corr was minted.
	spans := span.DefaultCollector().Trace(4_441_777)
	names := make(map[string]int)
	var ingress *span.Record
	for i, sp := range spans {
		names[sp.Name]++
		if sp.Name == "http:market.install" {
			ingress = &spans[i]
		}
	}
	for _, want := range []string{"client:op", "http:market.install", "stage:verify", "stage:activate"} {
		if names[want] == 0 {
			t.Errorf("caller trace missing %q (have %v)", want, names)
		}
	}
	if ingress != nil && ingress.Parent != caller.Context().SpanID {
		t.Errorf("ingress span parent = %d, want the caller's span %d", ingress.Parent, caller.Context().SpanID)
	}
}
