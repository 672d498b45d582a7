package isolation

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/of"
)

// telemetryHandler builds the introspection endpoint the tests of this
// package query.
func telemetryHandler(reg *obs.Registry) http.Handler {
	return obs.NewHandler(reg)
}

// noQuotaLoop disables the background sweep so tests drive CheckQuotas
// with controlled clocks.
func noQuotaLoop() Config {
	return Config{KSDWorkers: 2, QuotaCheckInterval: -1}
}

func TestAccountingTracksMediatedCalls(t *testing.T) {
	// Durations ride the latency sampler; measure every call so the
	// accounting assertions are deterministic.
	prevSampling := obs.SetLatencySampling(1)
	defer obs.SetLatencySampling(prevSampling)
	env := newEnvCfg(t, 2, noQuotaLoop())
	grant(t, env.shield, "meter", "PERM visible_topology")
	var api API
	if err := env.shield.Launch(app("meter", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := api.Switches(); err != nil {
			t.Fatal(err)
		}
	}

	c, _ := env.shield.Container("meter")
	u := c.usage()
	if u.MediatedCalls < calls {
		t.Fatalf("mediated calls = %d, want >= %d", u.MediatedCalls, calls)
	}
	// Sampling is 1-in-1 above, so every call contributed execution time.
	if u.CPUMillis <= 0 {
		t.Fatalf("cpu ms = %v, want > 0", u.CPUMillis)
	}
	if u.Goroutines < 1 {
		t.Fatalf("goroutines = %d, want >= 1 (event loop)", u.Goroutines)
	}
	if u.Budget != nil {
		t.Fatalf("budget = %+v, want none", u.Budget)
	}

	// The same view flows through UsageSnapshot and HealthSnapshot.
	if got := env.shield.UsageSnapshot()["meter"]; got.MediatedCalls < calls {
		t.Fatalf("UsageSnapshot = %+v", got)
	}
	var found bool
	for _, a := range env.shield.HealthSnapshot().Apps {
		if a.App == "meter" && a.Usage.MediatedCalls >= calls {
			found = true
		}
	}
	if !found {
		t.Fatal("health snapshot lacks meter's usage")
	}
}

func TestSetBudgetBeforeLaunchApplies(t *testing.T) {
	env := newEnvCfg(t, 1, noQuotaLoop())
	env.shield.SetBudget("early", core.Budget{CPUMillisPerSec: 100})
	grant(t, env.shield, "early", "PERM visible_topology")
	if err := env.shield.Launch(app("early", func(API) error { return nil })); err != nil {
		t.Fatal(err)
	}
	u := env.shield.UsageSnapshot()["early"]
	if u.Budget == nil || u.Budget.CPUMillisPerSec != 100 {
		t.Fatalf("budget = %+v, want CPU_MS_PER_SEC 100 applied at launch", u.Budget)
	}
}

func TestCheckQuotasBreachEmitsAuditFrameAndBundle(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	defer recorder.SetCooldown(recorder.SetCooldown(0))

	env := newEnvCfg(t, 1, noQuotaLoop())
	grant(t, env.shield, "greedy", "PERM visible_topology")
	if err := env.shield.Launch(app("greedy", func(API) error { return nil })); err != nil {
		t.Fatal(err)
	}
	env.shield.SetBudget("greedy", core.Budget{CPUMillisPerSec: 10})
	c, _ := env.shield.Container("greedy")

	t0 := time.Now()
	if br := env.shield.CheckQuotas(t0); br != nil {
		t.Fatalf("baseline sweep reported breaches: %+v", br)
	}
	// 50 ms of charged execution over a 1 s window: 5x the budget.
	c.res.cpuNanos.Add(50e6)
	breaches := env.shield.CheckQuotas(t0.Add(time.Second))
	if len(breaches) != 1 {
		t.Fatalf("breaches = %+v, want 1", breaches)
	}
	br := breaches[0]
	if br.App != "greedy" || br.Dimension != "CPU_MS_PER_SEC" || br.Observed < 45 || br.Limit != 10 {
		t.Fatalf("breach = %+v", br)
	}
	if got := c.res.breaches.Load(); got != 1 {
		t.Fatalf("breach counter = %d, want 1", got)
	}
	// Soft quota: the app keeps running.
	if c.Health() != Running {
		t.Fatalf("health = %v, want running (no escalation configured)", c.Health())
	}

	// The breach landed in the audit journal...
	audit.Default().Flush()
	var audited bool
	for _, ev := range audit.Default().Query(audit.Filter{App: "greedy"}) {
		if ev.Kind == audit.KindResource && ev.Verdict == audit.VerdictBreach && ev.Op == "CPU_MS_PER_SEC" {
			audited = true
		}
	}
	if !audited {
		t.Fatal("no resource/quota_breach audit event")
	}
	// ...and a diagnostic bundle.
	var bundled bool
	for _, info := range recorder.Recent() {
		if info.Trigger == recorder.TriggerQuota && info.App == "greedy" {
			bundled = true
		}
	}
	if !bundled {
		t.Fatal("no quota-breach bundle captured")
	}
}

func TestQuotaEscalationQuarantines(t *testing.T) {
	cfg := noQuotaLoop()
	cfg.QuotaEscalateAfter = 2
	env := newEnvCfg(t, 1, cfg)
	grant(t, env.shield, "hog", "PERM visible_topology")
	var api API
	if err := env.shield.Launch(app("hog", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	env.shield.SetBudget("hog", core.Budget{CPUMillisPerSec: 1})
	c, _ := env.shield.Container("hog")

	now := time.Now()
	env.shield.CheckQuotas(now) // baseline
	c.res.cpuNanos.Add(20e6)
	env.shield.CheckQuotas(now.Add(time.Second)) // streak 1
	if c.Health() != Running {
		t.Fatalf("quarantined after a single breach, want escalation at 2")
	}
	c.res.cpuNanos.Add(20e6)
	env.shield.CheckQuotas(now.Add(2 * time.Second)) // streak 2 → quarantine
	if c.Health() != Quarantined {
		t.Fatalf("health = %v, want quarantined after %d consecutive breaches", c.Health(), 2)
	}
	if reason := c.QuarantineReason(); !strings.Contains(reason, "budget") {
		t.Fatalf("quarantine reason = %q", reason)
	}
	if _, err := api.Switches(); !errors.Is(err, ErrAppQuarantined) {
		t.Fatalf("quarantined API err = %v, want ErrAppQuarantined", err)
	}
	// A quarantined app is skipped by later sweeps.
	c.res.cpuNanos.Add(20e6)
	if br := env.shield.CheckQuotas(now.Add(3 * time.Second)); br != nil {
		t.Fatalf("quarantined app swept again: %+v", br)
	}
}

// TestQuotaBreachEndToEnd drives the full observability path: a quota
// breach emits an audit event and captures a diagnostic bundle, and
// /debug/bundle serves that bundle with the app's audit tail, its
// resource usage and its anomaly snapshot and, for the correlation ID of
// a decided call, that call's events.
func TestQuotaBreachEndToEnd(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	defer recorder.SetCooldown(recorder.SetCooldown(0))

	env := newEnvCfg(t, 2, noQuotaLoop())
	grant(t, env.shield, "e2e", "PERM visible_topology\nPERM read_statistics")
	var api API
	if err := env.shield.Launch(app("e2e", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := api.Switches(); err != nil {
			t.Fatal(err)
		}
	}
	// A listing an app holds the token for decides nothing; a stats read
	// is checked, so its permission event carries the call's corr.
	start := audit.Default().LastSeq()
	dpid := env.kernel.Topology().SwitchIDs()[0]
	if _, err := api.PortStats(dpid, of.PortNone); err != nil {
		t.Fatal(err)
	}
	audit.Default().Flush()
	decided := audit.Default().Query(audit.Filter{App: "e2e", Kind: audit.KindPermission, AfterSeq: start})
	if len(decided) != 1 || decided[0].Token != "read_statistics" || decided[0].Corr == 0 {
		t.Fatalf("port stats decisions = %+v, want one read_statistics decision with a corr", decided)
	}
	corr := decided[0].Corr

	env.shield.SetBudget("e2e", core.Budget{CPUMillisPerSec: 5})
	c, _ := env.shield.Container("e2e")
	t0 := time.Now()
	env.shield.CheckQuotas(t0)
	c.res.cpuNanos.Add(40e6)
	if br := env.shield.CheckQuotas(t0.Add(time.Second)); len(br) != 1 {
		t.Fatalf("breaches = %+v", br)
	}
	audit.Default().Flush()

	h := telemetryHandler(obs.NewRegistry())

	// /apps reports the app's live usage.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/apps", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"e2e"`) {
		t.Fatalf("/apps: %d %s", rec.Code, rec.Body.String())
	}

	// The breach bundle is listed on /debug/bundle.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	var list struct {
		Bundles []recorder.BundleInfo `json:"bundles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	var id string
	for _, info := range list.Bundles {
		if info.Trigger == recorder.TriggerQuota && info.App == "e2e" {
			id = info.ID
			break
		}
	}
	if id == "" {
		t.Fatalf("no quota bundle listed: %+v", list.Bundles)
	}

	// Fetching it yields the correlated capture.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle?id="+id, nil))
	var bundle recorder.Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Anomaly == nil || bundle.Anomaly.App != "e2e" {
		t.Fatalf("anomaly snapshot = %+v", bundle.Anomaly)
	}
	var audited bool
	for _, ev := range bundle.Audit {
		if ev.Kind == audit.KindResource && ev.Verdict == audit.VerdictBreach {
			audited = true
		}
	}
	if !audited {
		t.Fatal("bundle audit tail lacks the breach event")
	}
	usage, err := json.Marshal(bundle.Usage)
	if err != nil || !strings.Contains(string(usage), `"e2e"`) {
		t.Fatalf("bundle usage lacks the app: %s (%v)", usage, err)
	}

	// A capture scoped to the stats read's correlation ID carries that
	// call's events in corr_audit.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET",
		"/debug/bundle?capture=1&app=e2e&corr="+strconv.FormatUint(corr, 10), nil))
	if !strings.Contains(rec.Body.String(), `"corr_audit"`) {
		t.Fatalf("capture lacks corr_audit: %s", rec.Body.String())
	}
	var manual recorder.Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &manual); err != nil {
		t.Fatal(err)
	}
	if story := manual.CorrAudit; len(story) != 1 || story[0].Kind != audit.KindPermission ||
		story[0].Verdict != audit.VerdictAllow || story[0].Corr != corr {
		t.Fatalf("corr_audit = %+v, want the stats read's allow under corr %d", story, corr)
	}
}
