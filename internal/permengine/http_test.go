package permengine

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// httpTestEngine registers one engine with a denial retained under
// corr 777 and heat recorded at sampling 1.
func httpTestEngine(t *testing.T) *Engine {
	t.Helper()
	prevEnabled := SetHeatEnabled(true)
	prevEvery := setHeatOneIn(1)
	e := New(nil)
	unreg := RegisterEngine("http-test", e)
	t.Cleanup(func() {
		unreg()
		SetHeatEnabled(prevEnabled)
		setHeatOneIn(prevEvery)
	})
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 100 AND ACTION FORWARD").Set())
	allow := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	allow.Priority = 50
	if err := e.Check(allow); err != nil {
		t.Fatal(err)
	}
	deny := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	deny.Priority = 200
	deny.Corr = 777
	if err := e.Check(deny); err == nil {
		t.Fatal("deny call allowed")
	}
	return e
}

func TestHeatEndpoint(t *testing.T) {
	httpTestEngine(t)
	rec := httptest.NewRecorder()
	handleHeat(rec, httptest.NewRequest(http.MethodGet, "/heat?engine=http-test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Enabled bool                   `json:"enabled"`
		Engines map[string]HeatProfile `json:"engines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled {
		t.Fatal("heat reported disabled")
	}
	p, ok := out.Engines["http-test"]
	if !ok {
		t.Fatalf("engine missing from /heat: %s", rec.Body)
	}
	th := tokenHeatOf(t, p, "m", core.TokenInsertFlow)
	if th.Allow != 1 || th.Deny != 1 {
		t.Fatalf("heat over HTTP: allow=%d deny=%d", th.Allow, th.Deny)
	}

	rec = httptest.NewRecorder()
	handleHeat(rec, httptest.NewRequest(http.MethodGet, "/heat?engine=nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown engine status %d", rec.Code)
	}
}

func TestExplainEndpointByCorr(t *testing.T) {
	httpTestEngine(t)
	rec := httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodGet, "/explain?corr=777", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Engine != "http-test" {
		t.Fatalf("engine = %q", out.Engine)
	}
	ex := out.Explanation
	if ex.Allowed || ex.Reason != ReasonFilterRejected || len(ex.FailingClauses) == 0 {
		t.Fatalf("explanation: %+v", ex)
	}
	if ex.Corr != 777 {
		t.Fatalf("corr = %d", ex.Corr)
	}

	// Index lists the retained denial.
	rec = httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodGet, "/explain", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"corr": 777`) {
		t.Fatalf("index status %d body %s", rec.Code, rec.Body)
	}

	// Unknown corr is a 404.
	rec = httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodGet, "/explain?corr=31337", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown corr status %d", rec.Code)
	}
}

func TestExplainEndpointPost(t *testing.T) {
	httpTestEngine(t)
	body := `{
		"engine": "http-test",
		"app": "m",
		"token": "insert_flow",
		"dpid": 1,
		"match": {"IP_DST": "10.0.0.1"},
		"actions": ["OUTPUT:1"],
		"priority": 200,
		"flow_owner": "m"
	}`
	rec := httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Explanation.Allowed || out.Explanation.Reason != ReasonFilterRejected {
		t.Fatalf("hypothetical denial: %+v", out.Explanation)
	}

	// Same call under the priority bound is allowed.
	rec = httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodPost, "/explain",
		strings.NewReader(strings.Replace(body, `"priority": 200`, `"priority": 50`, 1))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	out = explainResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Explanation.Allowed {
		t.Fatalf("hypothetical allow: %+v", out.Explanation)
	}

	// A garbage body is a 400, not a panic.
	rec = httptest.NewRecorder()
	handleExplain(rec, httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", rec.Code)
	}
}
