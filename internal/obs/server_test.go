// The endpoint tests live outside package obs so they can link obs/span,
// which mounts /trace and /traces through the extension registry.
package obs_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/span"
)

// newTestServer builds a handler over a private registry so the
// assertions do not depend on whatever the process-wide default has
// accumulated.
func newTestServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(obs.NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestServerIndex pins the index page: 200 with the route listing on "/",
// 404 on anything unrouted.
func TestServerIndex(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := get(t, srv.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("index Content-Type = %q", ct)
	}
	idx := body(t, resp)
	for _, route := range []string{"/metrics", "/metrics.json", "/health", "/slo", "/trace", "/traces", "/debug/pprof/"} {
		if !strings.Contains(idx, route) {
			t.Errorf("index missing route %s", route)
		}
	}
	if resp := get(t, srv.URL+"/no-such-route"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /no-such-route status = %d, want 404", resp.StatusCode)
	}
}

// TestServerMetricsContentTypes asserts the two metrics views: Prometheus
// text exposition format 0.0.4 versus a JSON snapshot, both carrying a
// counter registered beforehand.
func TestServerMetricsContentTypes(t *testing.T) {
	srv, reg := newTestServer(t)
	reg.Counter("sdnshield_server_test_total", "Test counter.").Add(3)

	resp := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	text := body(t, resp)
	if !strings.Contains(text, "sdnshield_server_test_total 3") {
		t.Errorf("/metrics missing counter sample:\n%s", text)
	}

	resp = get(t, srv.URL+"/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.json status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics.json Content-Type = %q", ct)
	}
	var series []obs.SeriesSnapshot
	if err := json.Unmarshal([]byte(body(t, resp)), &series); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	found := false
	for _, s := range series {
		if s.Name == "sdnshield_server_test_total" && s.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("/metrics.json missing the registered counter: %+v", series)
	}
}

// TestServerHealthReflectsQuarantine registers a health provider shaped
// like a shield snapshot with one quarantined app and asserts /health
// surfaces it (and stops doing so after unregistering).
func TestServerHealthReflectsQuarantine(t *testing.T) {
	srv, _ := newTestServer(t)
	type appHealth struct {
		App              string `json:"app"`
		State            string `json:"state"`
		QuarantineReason string `json:"quarantine_reason,omitempty"`
	}
	unregister := obs.RegisterHealth("server-test-shield", func() interface{} {
		return map[string]interface{}{
			"apps": []appHealth{{
				App:              "crashy",
				State:            "quarantined",
				QuarantineReason: "5 panics within 30s (limit 5)",
			}},
		}
	})
	defer unregister()

	resp := get(t, srv.URL+"/health")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /health status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/health Content-Type = %q", ct)
	}
	var health map[string]struct {
		Apps []appHealth `json:"apps"`
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &health); err != nil {
		t.Fatalf("/health is not valid JSON: %v", err)
	}
	shield, ok := health["server-test-shield"]
	if !ok {
		t.Fatalf("/health missing registered provider: %v", health)
	}
	if len(shield.Apps) != 1 || shield.Apps[0].App != "crashy" ||
		shield.Apps[0].State != "quarantined" || shield.Apps[0].QuarantineReason == "" {
		t.Errorf("/health does not reflect the quarantined app: %+v", shield.Apps)
	}

	unregister()
	resp = get(t, srv.URL+"/health")
	var after map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body(t, resp)), &after); err != nil {
		t.Fatalf("/health after unregister: %v", err)
	}
	if _, still := after["server-test-shield"]; still {
		t.Error("/health still lists the provider after unregister")
	}
}

// TestServerTraces asserts /traces serves a JSON array even when no call
// matches, and that its id is the correlation ID /trace/<id> resolves.
func TestServerTraces(t *testing.T) {
	srv, _ := newTestServer(t)
	decode := func(query string) []span.MediatedCall {
		t.Helper()
		resp := get(t, srv.URL+"/traces"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /traces%s status = %d", query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("/traces Content-Type = %q", ct)
		}
		text := body(t, resp)
		if !strings.HasPrefix(text, "[") {
			t.Fatalf("/traces%s is not a JSON array: %s", query, text)
		}
		var calls []span.MediatedCall
		if err := json.Unmarshal([]byte(text), &calls); err != nil {
			t.Fatalf("/traces%s is not valid JSON: %v", query, err)
		}
		return calls
	}
	if calls := decode("?op=no-such-op"); len(calls) != 0 {
		t.Fatalf("/traces?op=no-such-op = %+v", calls)
	}
	corr := uint64(time.Now().UnixNano())
	span.Mediated(corr, "server_test", "", time.Now(), time.Millisecond)
	calls := decode("?corr=" + strconv.FormatUint(corr, 10))
	if len(calls) != 1 || calls[0].Op != "server_test" || calls[0].ID != strconv.FormatUint(corr, 10) {
		t.Fatalf("/traces?corr=%d = %+v, want that one call with id = corr", corr, calls)
	}
	if resp := get(t, srv.URL+"/trace/"+calls[0].ID); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /trace/<id of /traces> status = %d", resp.StatusCode)
	}
}

// TestServerEndpoints walks every route of one handler once.
func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sdnshield_demo_total", "Demo.").Add(42)
	span.Mediated(uint64(time.Now().UnixNano()), "demo", "", time.Now(), time.Millisecond)
	unreg := obs.RegisterHealth("test-shield", func() interface{} {
		return map[string]string{"state": "running"}
	})
	defer unreg()

	h := obs.NewHandler(reg)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "sdnshield_demo_total 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"sdnshield_demo_total"`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get("/health"); !strings.Contains(body, `"test-shield"`) || !strings.Contains(body, `"running"`) {
		t.Errorf("/health missing provider:\n%s", body)
	}
	if body := get("/traces"); !strings.Contains(body, `"demo"`) {
		t.Errorf("/traces missing trace:\n%s", body)
	}
	if body := get("/"); !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("index missing pprof route:\n%s", body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("pprof index = %d", rec.Code)
	}
}

func TestServeListensAndCloses(t *testing.T) {
	s, err := obs.Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerExtensionRoutes asserts routes registered via RegisterHandler
// (the hook obs/audit mounts /audit through) are served and listed on the
// index of handlers built afterwards.
func TestServerExtensionRoutes(t *testing.T) {
	obs.RegisterHandler("/server-test-ext", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	srv, _ := newTestServer(t)
	if resp := get(t, srv.URL+"/server-test-ext"); resp.StatusCode != http.StatusTeapot {
		t.Errorf("extension route status = %d, want %d", resp.StatusCode, http.StatusTeapot)
	}
	if idx := body(t, get(t, srv.URL+"/")); !strings.Contains(idx, "/server-test-ext") {
		t.Error("index does not list the extension route")
	}
}
