package isolation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
)

// sampleAll turns on every sampled instrument, with latency sampling 1 in
// latency and the other rates at their shipping values, for the duration
// of a test.
func sampleAll(t *testing.T, latency int) {
	t.Helper()
	prevSampling := obs.SetLatencySampling(latency)
	prevObs, prevSpan, prevHeat := obs.SetEnabled(true), span.SetEnabled(true), permengine.SetHeatEnabled(true)
	t.Cleanup(func() {
		obs.SetLatencySampling(prevSampling)
		obs.SetEnabled(prevObs)
		span.SetEnabled(prevSpan)
		permengine.SetHeatEnabled(prevHeat)
	})
}

// TestSamplingIsPerApp: a call's sampling decision is its place among its
// own app's calls, so every app is measured, traced and heat-profiled at
// the shipping rates however the calls of many apps interleave. Eight
// tenants' apps call in strict round-robin, the shape of a reader
// looping over its tenants; with one process-wide count the period
// would line up with one app and the other seven would read nothing.
func TestSamplingIsPerApp(t *testing.T) {
	sampleAll(t, 8)
	env := newEnvCfg(t, 1, noQuotaLoop())
	const apps, rounds = 8, 800
	apis := make([]API, apps)
	for i := range apis {
		apis[i] = launchAPI(t, env, fmt.Sprintf("t%d/app", i), "PERM read_statistics")
	}
	for round := 0; round < rounds; round++ {
		for i, api := range apis {
			if _, err := api.PortStats(1, of.PortNone); err != nil {
				t.Fatalf("app %d, round %d: %v", i, round, err)
			}
		}
	}

	usage := env.shield.UsageSnapshot()
	heat := map[string]uint64{}
	for _, a := range env.shield.Engine().HeatSnapshot().Apps {
		for _, tok := range a.Tokens {
			heat[a.App] += tok.Allow + tok.Deny
		}
	}
	h := telemetryHandler(obs.Default())
	for i := 0; i < apps; i++ {
		name, tenant := fmt.Sprintf("t%d/app", i), fmt.Sprintf("t%d", i)
		u := usage[name]
		if u.MediatedCalls != rounds || u.CPUMillis <= 0 || u.KSDWaitMillis <= 0 {
			t.Errorf("%s: %d calls, cpu_ms %v, ksd_wait_ms %v; want %d calls with time charged",
				name, u.MediatedCalls, u.CPUMillis, u.KSDWaitMillis, rounds)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces?op=port_stats&tenant="+tenant, nil))
		var traces []tracesEntry
		if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil || len(traces) == 0 {
			t.Errorf("%s: no trace at /traces?tenant=%s (%v): %s", name, tenant, err, rec.Body)
		}
		if heat[name] == 0 {
			t.Errorf("%s: no heat samples", name)
		}
	}
}

// TestOneDecisionPerCall: one decision samples every layer of a call.
// At sampling 4, N inserts of one app leave exactly N/4 observations in
// the op's latency histogram, the permission check's and the kernel
// insert's — the same calls, measured end to end.
func TestOneDecisionPerCall(t *testing.T) {
	sampleAll(t, 4)
	env := newEnvCfg(t, 1, noQuotaLoop())
	api := launchAPI(t, env, "decided", "PERM insert_flow")
	reg := obs.Default()
	counts := func() [3]float64 {
		return [3]float64{
			float64(opInsertFlow.hist.Count()),
			reg.TotalOf("sdnshield_permengine_check_seconds"),
			reg.TotalOfLabeled("sdnshield_kernel_op_seconds", "op", "insert_flow"),
		}
	}
	const calls = 64
	before := counts()
	for i := 0; i < calls; i++ {
		spec := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, uint64(i+1)), Priority: 10,
			Actions: []of.Action{of.Output(1)}}
		if err := api.InsertFlow(1, spec); err != nil {
			t.Fatal(err)
		}
	}
	after := counts()
	for i, what := range []string{"mediated call", "permission check", "kernel insert"} {
		if got := after[i] - before[i]; got != calls/4 {
			t.Errorf("%s latency: %v observations of %d calls at sampling 4, want %d", what, got, calls, calls/4)
		}
	}
}
