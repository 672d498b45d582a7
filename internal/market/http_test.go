package market

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/obs"
)

// newHTTPEnv mounts a market on the obs extension routes and returns the
// composed handler plus the signing helper.
func newHTTPEnv(t *testing.T) (http.Handler, *Market, func(r Release) *SignedRelease) {
	t.Helper()
	reg, sign := newTestRegistry(t)
	rt := newFakeRuntime()
	m, err := New(reg, rt, Config{
		PolicySrc:     testPolicy,
		Probation:     50 * time.Millisecond,
		ProbationPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	MountHTTP(m)
	h := obs.NewHandler(obs.Default())
	return h, m, sign
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPInstallApproveFlow(t *testing.T) {
	h, _, sign := newHTTPEnv(t)

	// A clean release installs straight to active.
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"})
	w := postJSON(t, h, "/market/install", sr)
	if w.Code != http.StatusOK {
		t.Fatalf("install status = %d body=%s", w.Code, w.Body)
	}
	var res InstallResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusActive || res.Verdict != VerdictApproved {
		t.Fatalf("result = %+v", res)
	}

	// The apps listing shows it.
	req := httptest.NewRequest(http.MethodGet, "/market/apps", nil)
	lw := httptest.NewRecorder()
	h.ServeHTTP(lw, req)
	if lw.Code != http.StatusOK || !strings.Contains(lw.Body.String(), `"mon"`) {
		t.Fatalf("apps status=%d body=%s", lw.Code, lw.Body)
	}

	// Upgrade with an over-broad manifest parks pending; approve over HTTP.
	up := sign(Release{Name: "mon", Vendor: "acme", Version: "1.1.0",
		Manifest: "PERM read_statistics\nPERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0"})
	w = postJSON(t, h, "/market/upgrade", up)
	if w.Code != http.StatusOK {
		t.Fatalf("upgrade status = %d body=%s", w.Code, w.Body)
	}
	w = postJSON(t, h, "/market/approve", map[string]string{"app": "mon"})
	if w.Code != http.StatusOK {
		t.Fatalf("approve status = %d body=%s", w.Code, w.Body)
	}

	// Diff between the two registry releases.
	dreq := httptest.NewRequest(http.MethodGet, "/market/diff?app=mon", nil)
	dw := httptest.NewRecorder()
	h.ServeHTTP(dw, dreq)
	if dw.Code != http.StatusOK || !strings.Contains(dw.Body.String(), "insert_flow") {
		t.Fatalf("diff status=%d body=%s", dw.Code, dw.Body)
	}

	// Revoke over HTTP.
	w = postJSON(t, h, "/market/revoke", map[string]string{"app": "mon"})
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), string(StatusRevoked)) {
		t.Fatalf("revoke status=%d body=%s", w.Code, w.Body)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	h, _, sign := newHTTPEnv(t)

	// Unknown vendor: 403.
	_, priv := genKey(t)
	rogue := Sign(Release{Name: "mon", Vendor: "shady", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	if w := postJSON(t, h, "/market/install", rogue); w.Code != http.StatusForbidden {
		t.Fatalf("unknown vendor status = %d", w.Code)
	}

	// Tampered package: 403.
	tampered := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	tampered.Manifest = "PERM process_runtime"
	if w := postJSON(t, h, "/market/install", tampered); w.Code != http.StatusForbidden {
		t.Fatalf("tampered status = %d", w.Code)
	}

	// Rejected verdict: 409 with the result body.
	rej := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM process_runtime"})
	w := postJSON(t, h, "/market/install", rej)
	if w.Code != http.StatusConflict {
		t.Fatalf("rejected status = %d body=%s", w.Code, w.Body)
	}
	var res InstallResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictRejected {
		t.Fatalf("rejected body = %+v", res)
	}

	// Approve with nothing pending: 404.
	if w := postJSON(t, h, "/market/approve", map[string]string{"app": "ghost"}); w.Code != http.StatusNotFound {
		t.Fatalf("approve ghost status = %d", w.Code)
	}
	// Bad JSON: 400.
	req := httptest.NewRequest(http.MethodPost, "/market/install", strings.NewReader("{not json"))
	bw := httptest.NewRecorder()
	h.ServeHTTP(bw, req)
	if bw.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", bw.Code)
	}
	// GET on a POST route: 405.
	req = httptest.NewRequest(http.MethodGet, "/market/install", nil)
	gw := httptest.NewRecorder()
	h.ServeHTTP(gw, req)
	if gw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET install status = %d", gw.Code)
	}
}

// TestHTTPDigestOnlyInstall: the administrator's path — releases already
// sit in the registry (loaded from the on-disk store), so install and
// upgrade take just a content address.
func TestHTTPDigestOnlyInstall(t *testing.T) {
	h, m, sign := newHTTPEnv(t)

	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0",
		Manifest: "PERM read_statistics"})
	d, err := m.Registry().Submit(sr)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, h, "/market/install", map[string]string{"digest": d.String()})
	if w.Code != http.StatusOK {
		t.Fatalf("digest-only install status = %d body=%s", w.Code, w.Body)
	}
	var res InstallResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusActive {
		t.Fatalf("status = %s body=%s", res.Status, w.Body)
	}

	// Upgrade by digest too.
	sr2 := sign(Release{Name: "mon", Vendor: "acme", Version: "1.1.0",
		Manifest: "PERM read_statistics LIMITING PORT_LEVEL"})
	d2, err := m.Registry().Submit(sr2)
	if err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/market/upgrade", map[string]string{"digest": d2.String()})
	if w.Code != http.StatusOK {
		t.Fatalf("digest-only upgrade status = %d body=%s", w.Code, w.Body)
	}

	// A digest the registry has never seen maps to 404; a malformed one
	// to 400.
	ghost := Release{Name: "ghost", Vendor: "acme", Version: "9.9.9", Manifest: "PERM read_statistics\n# ghost"}
	w = postJSON(t, h, "/market/install", map[string]string{"digest": ghost.Digest().String()})
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown digest status = %d body=%s", w.Code, w.Body)
	}
	w = postJSON(t, h, "/market/install", map[string]string{"digest": "zz"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed digest status = %d body=%s", w.Code, w.Body)
	}
}
