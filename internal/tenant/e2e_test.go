package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/jobs"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/span"
)

// TestCrossTenantIsolation is the acceptance scenario: two tenants on
// one manager, and every surface tenant A touches — installs, audit
// events, traces, recorder state — is invisible through tenant B's
// scoped view, while B exhausting its quota never throttles A or moves
// A's SLO off "ok".
func TestCrossTenantIsolation(t *testing.T) {
	prevSpan := span.SetEnabled(true)
	defer span.SetEnabled(prevSpan)

	shared := &recordingRuntime{}
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{
		Dir:       t.TempDir(),
		PolicySrc: testPolicy,
		Runtime:   func(id string) market.Runtime { return shared },
		Registry:  reg,
	})
	scoped := &scopedHandler{m: m}

	ta, err := m.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := m.CreateWith("bravo", AdmissionConfig{CallsPerSec: 0.0001, CallBurst: 3})
	if err != nil {
		t.Fatal(err)
	}

	pub, priv := genKey(t)
	for _, tt := range []*Tenant{ta, tb} {
		if err := tt.Market().Registry().TrustVendor("acme", pub); err != nil {
			t.Fatal(err)
		}
	}
	installApp(t, scoped, "alpha", "sensor", "1.0.0", priv)
	installApp(t, scoped, "bravo", "telemetry", "1.0.0", priv)

	// --- Market isolation: each tenant sees only its own catalog.
	appsOf := func(tenant string) string {
		w := do(t, scoped, "GET", "/t/"+tenant+"/market/apps", nil, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("apps(%s) = %d", tenant, w.Code)
		}
		return w.Body.String()
	}
	if body := appsOf("bravo"); strings.Contains(body, "sensor") {
		t.Fatalf("bravo sees alpha's app: %s", body)
	}
	if body := appsOf("alpha"); strings.Contains(body, "telemetry") {
		t.Fatalf("alpha sees bravo's app: %s", body)
	}

	// --- Runtime namespacing: the shared runtime was crossed into with
	// tenant-prefixed names only.
	shared.mu.Lock()
	_, alphaScoped := shared.perms["alpha/sensor"]
	_, bare := shared.perms["sensor"]
	shared.mu.Unlock()
	if !alphaScoped || bare {
		t.Fatalf("runtime namespacing: alpha/sensor=%v sensor=%v", alphaScoped, bare)
	}

	// --- Audit isolation: alpha's install trail is absent from bravo's
	// scoped journal (and vice versa bravo's own slice is intact).
	waitAuditEvent(t, scoped, "alpha", "install")
	waitAuditEvent(t, scoped, "bravo", "install")
	w := do(t, scoped, "GET", "/t/bravo/audit", nil, nil)
	if strings.Contains(w.Body.String(), "sensor") {
		t.Fatalf("bravo's audit leaks alpha events: %s", w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "telemetry") {
		t.Fatalf("bravo's audit lost its own events: %s", w.Body.String())
	}

	// --- Trace isolation: alpha's retained traces 404 through bravo's
	// scoped view (indistinguishable from absent).
	var traceIdx struct {
		Traces []span.TraceInfo `json:"traces"`
	}
	w = do(t, scoped, "GET", "/t/alpha/trace", nil, nil)
	if err := json.Unmarshal(w.Body.Bytes(), &traceIdx); err != nil || len(traceIdx.Traces) == 0 {
		t.Fatalf("alpha has no retained traces: %v %s", err, w.Body.String())
	}
	id := traceIdx.Traces[0].TraceID
	if w = do(t, scoped, "GET", fmt.Sprintf("/t/alpha/trace/%d", id), nil, nil); w.Code != http.StatusOK {
		t.Fatalf("alpha's own trace = %d", w.Code)
	}
	if w = do(t, scoped, "GET", fmt.Sprintf("/t/bravo/trace/%d", id), nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("bravo reads alpha's trace: %d %s", w.Code, w.Body.String())
	}
	w = do(t, scoped, "GET", "/t/bravo/trace", nil, nil)
	if strings.Contains(w.Body.String(), fmt.Sprintf("%d", id)) {
		t.Fatalf("bravo's trace index lists alpha's trace: %s", w.Body.String())
	}

	// --- Noisy neighbour: bravo burns through its call quota and gets
	// the typed refusal; alpha is untouched and its SLO stays ok.
	eng := obs.NewEngine(obs.EngineConfig{}, ta.LatencyObjective(time.Second, 0.99))
	t0 := time.Now()
	eng.Evaluate(t0)

	var throttled *ThrottleError
	for i := 0; i < 10; i++ {
		if err := tb.Do("op", func() error { return nil }); err != nil {
			if !errors.As(err, &throttled) {
				t.Fatalf("bravo refusal not typed: %v", err)
			}
			break
		}
	}
	if throttled == nil {
		t.Fatal("bravo never throttled")
	}
	if !errors.Is(error(throttled), ErrTenantThrottled) || throttled.RetryAfter <= 0 {
		t.Fatalf("throttle detail = %+v", throttled)
	}

	for i := 0; i < 20; i++ {
		if err := ta.Do("op", func() error { return nil }); err != nil {
			t.Fatalf("alpha call %d throttled by bravo's exhaustion: %v", i, err)
		}
	}
	st := eng.Evaluate(t0.Add(time.Minute))
	if len(st) != 1 || st[0].State != obs.StateOK {
		t.Fatalf("alpha SLO = %+v, want state ok", st)
	}
	// Alpha's own metrics saw no refusals.
	if n := ta.met.throttledCalls.Value(); n != 0 {
		t.Fatalf("alpha throttled count = %d", n)
	}
}

// TestDrainAllCoversTenantJobs is the shutdown regression: per-tenant
// job managers register in the process-wide open set, so the CLIs' one
// SIGINT hook (jobs.DrainAll) drains every tenant's queues.
func TestDrainAllCoversTenantJobs(t *testing.T) {
	m := newTestManager(t, Config{Dir: t.TempDir(), DurableJobs: true})
	ta, err := m.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := m.Create("bravo")
	if err != nil {
		t.Fatal(err)
	}

	jobs.DrainAll()

	for _, tt := range []*Tenant{ta, tb} {
		if _, err := tt.Jobs().Enqueue("q", nil); !errors.Is(err, jobs.ErrClosed) {
			t.Fatalf("tenant %s jobs survived DrainAll: %v", tt.ID, err)
		}
	}
}
