package tenant

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/market"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
)

const testPolicy = `
LET Bound = { PERM pkt_in_event PERM read_statistics PERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0 }
`

func genKey(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

// do runs one request against the scoped handler.
func do(t *testing.T, h http.Handler, method, path string, body interface{}, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	r := httptest.NewRequest(method, path, rd)
	// Scoped routes require the tenant header (a trusted proxy's job in
	// production); derive it from the path so every call site doesn't
	// repeat it. An explicit hdr entry overrides; "" deletes.
	if strings.HasPrefix(path, PathPrefix) {
		id, _, _ := strings.Cut(strings.TrimPrefix(path, PathPrefix), "/")
		if i := strings.IndexAny(id, "?#"); i >= 0 {
			id = id[:i]
		}
		r.Header.Set(HeaderTenant, id)
	}
	for k, v := range hdr {
		if v == "" {
			r.Header.Del(k)
			continue
		}
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// installApp drives a signed release through a tenant's scoped market
// surface (async install job → pending → approve) and waits for the
// given status.
func installApp(t *testing.T, h http.Handler, tenant, app, version string, priv ed25519.PrivateKey) {
	t.Helper()
	sr := market.Sign(market.Release{
		Name: app, Vendor: "acme", Version: version,
		Manifest: "PERM pkt_in_event\nPERM read_statistics",
	}, priv)
	w := do(t, h, "POST", "/t/"+tenant+"/market/install", sr, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("install = %d: %s", w.Code, w.Body.String())
	}
	// A clean verdict activates directly; a repaired one parks pending
	// and needs sign-off.
	if st := waitStatus(t, h, tenant, app, "pending", "active"); st == "pending" {
		w = do(t, h, "POST", "/t/"+tenant+"/market/approve", map[string]string{"app": app}, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("approve = %d: %s", w.Code, w.Body.String())
		}
	}
	waitStatus(t, h, tenant, app, "active")
}

func waitStatus(t *testing.T, h http.Handler, tenant, app string, statuses ...string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := do(t, h, "GET", "/t/"+tenant+"/market/apps", nil, nil)
		var snaps []market.AppSnapshot
		if err := json.Unmarshal(w.Body.Bytes(), &snaps); err == nil {
			for _, s := range snaps {
				for _, status := range statuses {
					if s.App == app && string(s.Status) == status {
						return status
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("app %s/%s never reached %v: %s", tenant, app, statuses, w.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestScopedHTTPSurface(t *testing.T) {
	m := newTestManager(t, Config{Dir: t.TempDir(), PolicySrc: testPolicy})
	scoped := &scopedHandler{m: m}
	admin := &adminHandler{m: m}

	// Admin: create, list.
	w := do(t, admin, "POST", "/tenants", adminOp{Op: "create", Tenant: "acme"}, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("admin create = %d: %s", w.Code, w.Body.String())
	}
	w = do(t, admin, "GET", "/tenants", nil, nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"acme"`) {
		t.Fatalf("admin list = %d: %s", w.Code, w.Body.String())
	}
	w = do(t, admin, "POST", "/tenants", adminOp{Op: "create", Tenant: "acme"}, nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d", w.Code)
	}
	w = do(t, admin, "POST", "/tenants", adminOp{Op: "flip", Tenant: "acme"}, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown op = %d", w.Code)
	}

	// Identity enforcement at the scoped ingress.
	if w = do(t, scoped, "GET", "/t/ghost/market/apps", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d", w.Code)
	}
	if w = do(t, scoped, "GET", "/t/../market/apps", nil, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("traversal id = %d", w.Code)
	}
	w = do(t, scoped, "GET", "/t/acme/market/apps", nil, map[string]string{HeaderTenant: "evil"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("header mismatch = %d", w.Code)
	}
	w = do(t, scoped, "GET", "/t/acme/market/apps", nil, map[string]string{HeaderTenant: ""})
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("missing header = %d, want 401", w.Code)
	}
	w = do(t, scoped, "GET", "/t/acme/market/apps", nil, map[string]string{HeaderTenant: "acme"})
	if w.Code != http.StatusOK {
		t.Fatalf("agreeing header = %d: %s", w.Code, w.Body.String())
	}

	// The tenant's market works end to end through the scoped surface.
	pub, priv := genKey(t)
	at, err := m.Get("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Market().Registry().TrustVendor("acme", pub); err != nil {
		t.Fatal(err)
	}
	installApp(t, scoped, "acme", "sensor", "1.0.0", priv)

	// Scoped snapshot, jobs and audit answer for this tenant.
	if w = do(t, scoped, "GET", "/t/acme/", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("tenant root = %d", w.Code)
	}
	var info Info
	if err := json.Unmarshal(do(t, scoped, "GET", "/t/acme", nil, nil).Body.Bytes(), &info); err != nil || info.ID != "acme" || info.Apps != 1 {
		t.Fatalf("tenant snapshot = %+v, %v", info, err)
	}
	if w = do(t, scoped, "GET", "/t/acme/jobs", nil, nil); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "market.install") {
		t.Fatalf("scoped jobs = %d: %s", w.Code, w.Body.String())
	}
	waitAuditEvent(t, scoped, "acme", "install")

	// A malformed corr filter is refused, never silently widened to the
	// tenant's whole audit slice.
	if w = do(t, scoped, "GET", "/t/acme/audit?corr=abc", nil, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad corr = %d, want 400: %s", w.Code, w.Body.String())
	}
	// So is a malformed or negative limit, as on the shared /audit, and
	// without one the slice is capped at the shared default.
	for _, l := range []string{"abc", "-1"} {
		if w = do(t, scoped, "GET", "/t/acme/audit?limit="+l, nil, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("limit=%s = %d, want 400: %s", l, w.Code, w.Body.String())
		}
	}
	for i := 0; i <= audit.DefaultLimit; i++ {
		audit.Emit(audit.Event{Kind: audit.KindApp, App: "flood", Tenant: "acme"})
		if i%256 == 0 {
			audit.Default().Flush() // no shard fills and drops
		}
	}
	audit.Default().Flush()
	count := func(path string) int {
		t.Helper()
		var slice struct {
			Count int `json:"count"`
		}
		if w := do(t, scoped, "GET", path, nil, nil); w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &slice) != nil {
			t.Fatalf("%s = %d: %s", path, w.Code, w.Body.String())
		}
		return slice.Count
	}
	if n := count("/t/acme/audit"); n != audit.DefaultLimit {
		t.Errorf("unlimited scoped audit returned %d events, want the default cap %d", n, audit.DefaultLimit)
	}
	if n := count("/t/acme/audit?app=flood&limit=3"); n != 3 {
		t.Errorf("limit=3 returned %d events", n)
	}

	// Suspension closes the whole scoped surface.
	if w = do(t, admin, "POST", "/tenants", adminOp{Op: "suspend", Tenant: "acme"}, nil); w.Code != http.StatusOK {
		t.Fatalf("suspend = %d", w.Code)
	}
	if w = do(t, scoped, "GET", "/t/acme/market/apps", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("suspended scoped GET = %d", w.Code)
	}
	if w = do(t, admin, "POST", "/tenants", adminOp{Op: "resume", Tenant: "acme"}, nil); w.Code != http.StatusOK {
		t.Fatalf("resume = %d", w.Code)
	}
	if w = do(t, scoped, "GET", "/t/acme/market/apps", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("resumed scoped GET = %d", w.Code)
	}

	// Evict + rehydrate through HTTP: the market store was persisted, so
	// the app is still there.
	if w = do(t, admin, "POST", "/tenants", adminOp{Op: "evict", Tenant: "acme"}, nil); w.Code != http.StatusOK {
		t.Fatalf("evict = %d: %s", w.Code, w.Body.String())
	}
	if m.Resident() != 0 {
		t.Fatal("evict left tenant resident")
	}
}

func waitAuditEvent(t *testing.T, scoped http.Handler, tenant, op string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := do(t, scoped, "GET", "/t/"+tenant+"/audit", nil, nil)
		if w.Code == http.StatusOK && strings.Contains(w.Body.String(), fmt.Sprintf("%q", op)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q audit event for %s: %s", op, tenant, w.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceHeaderCannotHijack pins the trace-ownership boundary: the
// X-Sdnshield-Trace header is client-controlled, so replaying another
// tenant's (sequential, enumerable) trace ID must neither transfer
// ownership of the trace nor materialize collector entries for bogus
// IDs.
func TestTraceHeaderCannotHijack(t *testing.T) {
	prevSpan := span.SetEnabled(true)
	defer span.SetEnabled(prevSpan)

	m := newTestManager(t, Config{PolicySrc: testPolicy})
	scoped := &scopedHandler{m: m}
	for _, id := range []string{"alpha", "bravo"} {
		if _, err := m.Create(id); err != nil {
			t.Fatal(err)
		}
	}

	// Alpha's request mints a trace tagged alpha.
	if w := do(t, scoped, "GET", "/t/alpha/market/apps", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("alpha request = %d", w.Code)
	}
	var idx struct {
		Traces []span.TraceInfo `json:"traces"`
	}
	w := do(t, scoped, "GET", "/t/alpha/trace", nil, nil)
	if err := json.Unmarshal(w.Body.Bytes(), &idx); err != nil || len(idx.Traces) == 0 {
		t.Fatalf("alpha has no retained trace: %v %s", err, w.Body.String())
	}
	stolen := idx.Traces[0].TraceID

	// Bravo replays alpha's trace ID in the header. The request succeeds
	// (a fresh bravo-tagged trace replaces the header), but alpha keeps
	// ownership and bravo still cannot read the trace.
	hdr := map[string]string{span.Header: fmt.Sprintf("%d-1-0", stolen)}
	if w := do(t, scoped, "GET", "/t/bravo/market/apps", nil, hdr); w.Code != http.StatusOK {
		t.Fatalf("bravo replay request = %d", w.Code)
	}
	if got := span.TenantOf(stolen); got != "alpha" {
		t.Fatalf("trace %d owner = %q after replay, want alpha", stolen, got)
	}
	if w := do(t, scoped, "GET", fmt.Sprintf("/t/bravo/trace/%d", stolen), nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("bravo reads alpha's trace after replay: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, scoped, "GET", fmt.Sprintf("/t/alpha/trace/%d", stolen), nil, nil); w.Code != http.StatusOK {
		t.Fatalf("alpha lost its own trace: %d", w.Code)
	}

	// A bogus unseen inbound ID creates no collector entry, so a header
	// flood cannot evict legitimately retained traces.
	const bogus = uint64(1)<<62 + 12345
	hdr = map[string]string{span.Header: fmt.Sprintf("%d-1-0", bogus)}
	if w := do(t, scoped, "GET", "/t/bravo/market/apps", nil, hdr); w.Code != http.StatusOK {
		t.Fatalf("bravo bogus-header request = %d", w.Code)
	}
	if span.DefaultCollector().Trace(bogus) != nil || span.TenantOf(bogus) != "" {
		t.Fatalf("bogus inbound trace ID %d materialized a collector entry", bogus)
	}
}

// TestAdminToken gates the /tenants lifecycle API behind the configured
// bearer token.
func TestAdminToken(t *testing.T) {
	m := newTestManager(t, Config{AdminToken: "s3cret"})
	admin := &adminHandler{m: m}

	op := adminOp{Op: "create", Tenant: "acme"}
	if w := do(t, admin, "POST", "/tenants", op, nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless create = %d, want 401", w.Code)
	}
	if w := do(t, admin, "GET", "/tenants", nil, nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless list = %d, want 401", w.Code)
	}
	wrong := map[string]string{"Authorization": "Bearer nope"}
	if w := do(t, admin, "POST", "/tenants", op, wrong); w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", w.Code)
	}
	good := map[string]string{"Authorization": "Bearer s3cret"}
	if w := do(t, admin, "POST", "/tenants", op, good); w.Code != http.StatusCreated {
		t.Fatalf("authorized create = %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, admin, "GET", "/tenants", nil, good); w.Code != http.StatusOK {
		t.Fatalf("authorized list = %d", w.Code)
	}
}

func TestScopedHTTPInstallThrottle(t *testing.T) {
	m := newTestManager(t, Config{PolicySrc: testPolicy})
	scoped := &scopedHandler{m: m}
	if _, err := m.CreateWith("acme", AdmissionConfig{
		InstallsPerSec: 0.0001, InstallBurst: 1,
	}); err != nil {
		t.Fatal(err)
	}

	body := map[string]string{"digest": strings.Repeat("0", 64)}
	// First install spends the burst token (the digest is unknown, but
	// admission runs before the market ever sees the request body).
	w := do(t, scoped, "POST", "/t/acme/market/install", body, nil)
	if w.Code == http.StatusTooManyRequests {
		t.Fatalf("burst install throttled: %s", w.Body.String())
	}
	w = do(t, scoped, "POST", "/t/acme/market/install", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("drained install = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var refusal struct {
		Tenant  string `json:"tenant"`
		Path    string `json:"path"`
		RetryMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &refusal); err != nil ||
		refusal.Tenant != "acme" || refusal.Path != "install" || refusal.RetryMS <= 0 {
		t.Fatalf("throttle body = %+v, %v: %s", refusal, err, w.Body.String())
	}

	// Reads are not install-gated.
	if w = do(t, scoped, "GET", "/t/acme/market/apps", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("read while install-throttled = %d", w.Code)
	}
}

// TestShardsEndpoint gates the shard-telemetry surface behind the same
// bearer token as the lifecycle API and serves a read-only snapshot.
func TestShardsEndpoint(t *testing.T) {
	m := newTestManager(t, Config{AdminToken: "s3cret", PolicySrc: testPolicy})
	h := &shardsHandler{m: m}

	if w := do(t, h, "GET", "/tenants/shards", nil, nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless shards = %d, want 401", w.Code)
	}
	good := map[string]string{"Authorization": "Bearer s3cret"}
	if w := do(t, h, "POST", "/tenants/shards", nil, good); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST shards = %d, want 405", w.Code)
	}

	// Drive a little work so the snapshot has non-zero counters.
	if _, err := m.Create("acme"); err != nil {
		t.Fatal(err)
	}
	tn, release, err := m.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Do("noop", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	release()

	w := do(t, h, "GET", "/tenants/shards", nil, good)
	if w.Code != http.StatusOK {
		t.Fatalf("authorized shards = %d: %s", w.Code, w.Body.String())
	}
	var out struct {
		Shards    []ShardStat `json:"shards"`
		Imbalance float64     `json:"imbalance"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("shards body: %v: %s", err, w.Body.String())
	}
	if len(out.Shards) != m.pool.Shards() {
		t.Fatalf("snapshot has %d shards, pool has %d", len(out.Shards), m.pool.Shards())
	}
	var completed uint64
	for _, st := range out.Shards {
		completed += st.Completed
	}
	if completed == 0 {
		t.Fatalf("no completed calls in snapshot: %s", w.Body.String())
	}
	if out.Imbalance < 0 {
		t.Fatalf("imbalance = %v", out.Imbalance)
	}
}
