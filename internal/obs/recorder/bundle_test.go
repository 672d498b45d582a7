package recorder

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
)

func TestCaptureCorrelatesFramesUsageAndAudit(t *testing.T) {
	defer SetCooldown(SetCooldown(0))
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)

	unreg := RegisterUsage("test-shield", func() interface{} {
		return map[string]int{"greedy": 42}
	})
	defer unreg()
	unregHealth := obs.RegisterHealth("test-shield", func() interface{} { return "ok" })
	defer unregHealth()

	corr := audit.NextCorr()
	audit.Emit(audit.Event{Kind: audit.KindPermission, Verdict: audit.VerdictAllow, App: "greedy", Corr: corr, Token: "insert_flow"})
	audit.Emit(audit.Event{Kind: audit.KindFlowMod, Verdict: audit.VerdictSent, App: "greedy", Corr: corr, Op: "add", DPID: 3})
	audit.Emit(audit.Event{Kind: audit.KindResource, Verdict: audit.VerdictBreach, App: "greedy", Op: "cpu_ms_per_sec"})
	audit.Default().Flush()

	bundle := Capture(TriggerQuota, "greedy", corr, "cpu budget exceeded")
	if bundle == nil {
		t.Fatal("capture returned nil outside any cooldown")
	}
	if bundle.Trigger != TriggerQuota || bundle.App != "greedy" || bundle.Corr != corr {
		t.Fatalf("bundle header = %+v", bundle)
	}
	if story := bundle.CorrAudit; len(story) != 2 || story[0].Kind != audit.KindPermission || story[1].Kind != audit.KindFlowMod {
		t.Fatalf("corr_audit = %+v, want the decision and its flow-mod", story)
	}
	if u, ok := bundle.Usage["test-shield"].(map[string]int); !ok || u["greedy"] != 42 {
		t.Fatalf("usage = %+v", bundle.Usage)
	}
	if bundle.Anomaly == nil || bundle.Anomaly.App != "greedy" {
		t.Fatalf("anomaly = %+v", bundle.Anomaly)
	}
	foundBreach := false
	for _, ev := range bundle.Audit {
		if ev.Kind == audit.KindResource && ev.Verdict == audit.VerdictBreach {
			foundBreach = true
		}
	}
	if !foundBreach {
		t.Fatal("bundle audit tail lacks the breach event")
	}
	if bundle.Health["test-shield"] != "ok" {
		t.Fatalf("health = %+v", bundle.Health)
	}
	if len(bundle.Metrics) == 0 {
		t.Fatal("bundle has no metrics snapshot")
	}
	if bundle.Runtime.Goroutines < 1 || bundle.Runtime.HeapAlloc == 0 {
		t.Fatalf("runtime stats = %+v", bundle.Runtime)
	}
	if got := defBundler.Get(bundle.ID); got != bundle {
		t.Fatal("bundle not retrievable by id")
	}
}

func TestCaptureCooldownSuppressesBursts(t *testing.T) {
	b := &Bundler{last: make(map[string]time.Time), cooldown: time.Hour}
	if b.Capture(TriggerAnomaly, "flappy", 0, "first") == nil {
		t.Fatal("first capture suppressed")
	}
	if b.Capture(TriggerAnomaly, "flappy", 0, "second") != nil {
		t.Fatal("burst capture not suppressed by cooldown")
	}
	// Different trigger or app: separate cooldown keys.
	if b.Capture(TriggerQuota, "flappy", 0, "") == nil {
		t.Fatal("different trigger suppressed")
	}
	if b.Capture(TriggerAnomaly, "other", 0, "") == nil {
		t.Fatal("different app suppressed")
	}
	// Manual bypasses.
	if b.Capture(TriggerManual, "flappy", 0, "") == nil {
		t.Fatal("manual capture suppressed")
	}
}

// A trigger that fires for many apps at once builds a bundle per app; the
// registry snapshot, the same for all of them, is held once.
func TestStormCapturesShareMetricsSnapshot(t *testing.T) {
	obs.Default().Counter("storm_probe_total", "").Inc()
	b := &Bundler{last: make(map[string]time.Time), cooldown: time.Hour}
	first := b.Capture(TriggerAnomaly, "t1/app", 0, "")
	second := b.Capture(TriggerAnomaly, "t2/app", 0, "")
	manual := b.Capture(TriggerManual, "t2/app", 0, "")
	if len(first.Metrics) == 0 || &first.Metrics[0] != &second.Metrics[0] {
		t.Fatal("automatic captures in one burst do not share the metrics snapshot")
	}
	if &manual.Metrics[0] == &first.Metrics[0] {
		t.Fatal("a manual capture must take a fresh metrics snapshot")
	}
}

func TestCaptureWritesBundleDir(t *testing.T) {
	dir := t.TempDir()
	b := &Bundler{last: make(map[string]time.Time)}
	if err := b.SetDir(filepath.Join(dir, "bundles")); err != nil {
		t.Fatal(err)
	}
	bundle := b.Capture(TriggerQuarantine, "doomed", 0, "panic loop")
	if bundle == nil {
		t.Fatal("capture nil")
	}
	data, err := os.ReadFile(filepath.Join(dir, "bundles", bundle.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Bundle
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.ID != bundle.ID || onDisk.Trigger != TriggerQuarantine || onDisk.App != "doomed" {
		t.Fatalf("on-disk bundle = %+v", onDisk)
	}
	if b.WriteErrors() != 0 {
		t.Fatalf("write errors = %d", b.WriteErrors())
	}
}

func TestAppsAndBundleEndpoints(t *testing.T) {
	defer SetCooldown(SetCooldown(0))
	unreg := RegisterUsage("ep-shield", func() interface{} {
		return map[string]string{"appx": "usage"}
	})
	defer unreg()

	h := obs.NewHandler(obs.NewRegistry())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/apps", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ep-shield") {
		t.Fatalf("/apps: %d %s", rec.Code, rec.Body.String())
	}

	// Manual capture through the endpoint.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle?capture=1&app=appx&detail=ondemand", nil))
	var captured Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &captured); err != nil {
		t.Fatalf("capture response: %v", err)
	}
	if captured.Trigger != TriggerManual || captured.App != "appx" {
		t.Fatalf("captured = %+v", captured)
	}

	// Listed, then fetchable by id.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	var list struct {
		Bundles []BundleInfo `json:"bundles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Bundles) == 0 || list.Bundles[0].ID != captured.ID {
		t.Fatalf("bundle list = %+v", list.Bundles)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle?id="+captured.ID, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ondemand") {
		t.Fatalf("fetch by id: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("missing bundle status = %d", rec.Code)
	}
}

func TestAnomalyFlagTriggersFrameAndBundle(t *testing.T) {
	defer SetCooldown(SetCooldown(0))
	audit.DefaultDetector().Reset()

	prevEnabled := audit.SetEnabled(true)
	defer audit.SetEnabled(prevEnabled)
	t0 := time.Now()
	for i := 0; i < 200; i++ {
		audit.Emit(audit.Event{
			Kind: audit.KindPermission, Verdict: audit.VerdictDeny,
			App: "deny-storm", Time: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	audit.Default().Flush()

	// The bundle capture runs async off the drain goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, info := range defBundler.Recent() {
			if info.Trigger == TriggerAnomaly && info.App == "deny-storm" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no anomaly bundle captured")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
