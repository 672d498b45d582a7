package tenant

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
	"sdnshield/internal/market"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/permlang"
)

// hostedApp is a tenant's app on the shared shield, launched under its
// namespaced name.
type hostedApp struct {
	name string
	api  isolation.API
}

func (a *hostedApp) Name() string                 { return a.name }
func (a *hostedApp) Init(api isolation.API) error { a.api = api; return nil }

// TestMediatedTracesAreAttributedToTheirTenant: a hosted tenant's traced
// mediated calls carry its tenant — taken from the "tenant/app" container
// name, as audit events do — so /traces?tenant= matches them and the
// tenant's scoped /trace surface lists and serves them, while another
// tenant gets the same 404 as for a trace that does not exist.
func TestMediatedTracesAreAttributedToTheirTenant(t *testing.T) {
	prevSampling := obs.SetLatencySampling(1)
	prevObs := obs.SetEnabled(true)
	prevSpan := span.SetEnabled(true)
	defer func() {
		obs.SetLatencySampling(prevSampling)
		obs.SetEnabled(prevObs)
		span.SetEnabled(prevSpan)
	}()

	kernel := controller.New(nil, nil)
	shield := isolation.NewShield(kernel, isolation.Config{})
	defer func() {
		shield.Stop()
		kernel.Stop()
	}()
	m := newTestManager(t, Config{
		PolicySrc: testPolicy,
		Runtime:   func(string) market.Runtime { return shield },
	})
	scoped := &scopedHandler{m: m}
	for _, id := range []string{"alpha", "bravo"} {
		if _, err := m.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	ScopedRuntime(shield, "alpha").SetPermissions("sensor", permlang.MustParse("PERM visible_topology").Set())
	app := &hostedApp{name: "alpha/sensor"}
	if err := shield.Launch(app); err != nil {
		t.Fatal(err)
	}
	// Every 16th measured call is traced; 32 calls make two. Their corrs
	// lie between two minted around them, which tells them from an
	// earlier -count iteration's.
	lo := audit.NextCorr()
	for i := 0; i < 32; i++ {
		if _, err := app.api.Switches(); err != nil {
			t.Fatal(err)
		}
	}
	hi := audit.NextCorr()

	telemetry := obs.NewHandler(obs.NewRegistry())
	traces := func(query string) (mine []span.MediatedCall) {
		t.Helper()
		rec := httptest.NewRecorder()
		telemetry.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces?"+query, nil))
		var calls []span.MediatedCall
		if err := json.Unmarshal(rec.Body.Bytes(), &calls); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("GET /traces?%s = %d (%v): %s", query, rec.Code, err, rec.Body)
		}
		for _, c := range calls {
			if lo < c.Corr && c.Corr < hi {
				mine = append(mine, c)
			}
		}
		return mine
	}
	calls := traces("tenant=alpha")
	if len(calls) != 2 {
		t.Fatalf("/traces?tenant=alpha lists %d of this run's calls, want 2: %+v", len(calls), calls)
	}
	if got := traces("tenant=bravo"); len(got) != 0 {
		t.Fatalf("/traces?tenant=bravo lists alpha's calls: %+v", got)
	}

	index := func(tenant string) map[uint64]int {
		t.Helper()
		var idx struct {
			Traces []span.TraceInfo `json:"traces"`
		}
		w := do(t, scoped, "GET", "/t/"+tenant+"/trace", nil, nil)
		if err := json.Unmarshal(w.Body.Bytes(), &idx); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET /t/%s/trace = %d (%v): %s", tenant, w.Code, err, w.Body)
		}
		spans := map[uint64]int{}
		for _, ti := range idx.Traces {
			spans[ti.TraceID] = ti.Spans
		}
		return spans
	}
	alphaIdx, bravoIdx := index("alpha"), index("bravo")
	for _, c := range calls {
		if c.Op != "switches" || c.Tenant != "alpha" || len(c.Spans) != 2 {
			t.Errorf("traced call = %+v, want alpha's switches with two stages", c)
		}
		if alphaIdx[c.Corr] != 3 {
			t.Errorf("/t/alpha/trace lists %d spans for its own call %d, want 3", alphaIdx[c.Corr], c.Corr)
		}
		if _, leaked := bravoIdx[c.Corr]; leaked {
			t.Errorf("/t/bravo/trace lists alpha's call %d", c.Corr)
		}
		w := do(t, scoped, "GET", fmt.Sprintf("/t/alpha/trace/%d", c.Corr), nil, nil)
		var timeline struct {
			Spans []span.Record `json:"spans"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &timeline); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET /t/alpha/trace/%d = %d (%v): %s", c.Corr, w.Code, err, w.Body)
		}
		if len(timeline.Spans) != 3 || timeline.Spans[0].Name != "mediated:switches" {
			t.Errorf("/t/alpha/trace/%d = %+v, want the call's root and two stages", c.Corr, timeline.Spans)
		}
		if w := do(t, scoped, "GET", fmt.Sprintf("/t/bravo/trace/%d", c.Corr), nil, nil); w.Code != http.StatusNotFound {
			t.Errorf("bravo reads alpha's mediated call %d: %d %s", c.Corr, w.Code, w.Body)
		}
	}
}
