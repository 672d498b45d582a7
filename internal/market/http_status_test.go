package market

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdnshield/internal/jobs"
	"sdnshield/internal/obs"
)

// getPath GETs a path on a composed handler.
func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// errBody asserts the response carries a JSON {"error": ...} body — the
// contract that replaced bare 500s.
func errBody(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("error response is not {\"error\": ...}: %s", w.Body)
	}
	return body.Error
}

// TestHTTPStatusCodes is the table-driven contract for every error
// shape the market surface can answer: correct status, JSON error body.
func TestHTTPStatusCodes(t *testing.T) {
	h, _, sign := newHTTPEnv(t)
	unknownDigest := PolicyDigest("no-such-release").String()
	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if w := postJSON(t, h, "/market/install", sr); w.Code != http.StatusOK {
		t.Fatalf("seed install = %d: %s", w.Code, w.Body)
	}

	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
		// substr, when set, must appear in the JSON error body.
		substr string
	}{
		{"install GET method", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/install")
		}, http.StatusMethodNotAllowed, ""},
		{"install malformed JSON", func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/market/install", strings.NewReader("{nope")))
			return w
		}, http.StatusBadRequest, "bad package JSON"},
		{"install bad digest string", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/install", map[string]string{"digest": "zz"})
		}, http.StatusBadRequest, ""},
		{"install unknown digest", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/install", map[string]string{"digest": unknownDigest})
		}, http.StatusNotFound, "unknown release"},
		{"approve nothing pending", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/approve", map[string]string{"app": "ghost"})
		}, http.StatusNotFound, "nothing pending"},
		{"revoke not installed", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/revoke", map[string]string{"app": "ghost"})
		}, http.StatusNotFound, "not installed"},
		{"approve empty body", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/approve", map[string]string{})
		}, http.StatusBadRequest, ""},
		{"diff no params", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/diff")
		}, http.StatusBadRequest, "need ?app=NAME"},
		{"diff unknown app", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/diff?app=ghost")
		}, http.StatusNotFound, "no stored releases"},
		{"diff single release", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/diff?app=mon")
		}, http.StatusBadRequest, "need two to diff"},
		{"diff bad from digest", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/diff?from=zz&to="+unknownDigest)
		}, http.StatusBadRequest, ""},
		{"release missing digest param", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/release")
		}, http.StatusBadRequest, "need ?digest"},
		{"release unknown digest", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/release?digest="+unknownDigest)
		}, http.StatusNotFound, "unknown release"},
		{"log bad after", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/log?after=banana")
		}, http.StatusBadRequest, ""},
		{"jobs without spine", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/jobs")
		}, http.StatusServiceUnavailable, "no job manager"},
		{"job by ID without spine", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/jobs/1")
		}, http.StatusServiceUnavailable, "no job manager"},
		{"lease not configured", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/market/lease")
		}, http.StatusNotFound, "no leader lease"},
		{"recompute unknown app", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/market/recompute", map[string]string{"app": "ghost"})
		}, http.StatusNotFound, "no stored releases"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.do()
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body)
			}
			got := errBody(t, w)
			if tc.substr != "" && !strings.Contains(got, tc.substr) {
				t.Fatalf("error %q does not mention %q", got, tc.substr)
			}
		})
	}
}

// TestHTTPAsyncStatusCodes covers the job-spine surface: 202 on
// submission, job polling, 404 on unknown jobs, 429 when the queue is
// at its admission bound.
func TestHTTPAsyncStatusCodes(t *testing.T) {
	reg, sign := newTestRegistry(t)
	m, err := New(reg, newFakeRuntime(), Config{PolicySrc: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	jm, err := jobs.Open(jobs.Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jm.Close() })
	// Deliberately no AttachJobs handlers for install: register the
	// manager but park the queue so enqueued jobs pile up against
	// MaxDepth. Handle is registered for no queue here.
	m.mu.Lock()
	m.jobsMgr = jm
	m.mu.Unlock()
	MountHTTP(m)
	h := obs.NewHandler(obs.Default())

	sr := sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"})
	if _, err := reg.Submit(sr); err != nil {
		t.Fatal(err)
	}
	dig := map[string]string{"digest": sr.Digest().String()}

	// First submission is accepted asynchronously.
	w := postJSON(t, h, "/market/install", dig)
	if w.Code != http.StatusAccepted {
		t.Fatalf("install = %d, want 202: %s", w.Code, w.Body)
	}
	var acc jobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Poll == "" || acc.Queue != QueueInstall {
		t.Fatalf("202 body = %+v", acc)
	}
	// The parked job polls as pending.
	if w := getPath(t, h, acc.Poll); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), string(jobs.StatePending)) {
		t.Fatalf("poll = %d %s", w.Code, w.Body)
	}
	// Queue depth 1 is exhausted: backpressure is 429, not 500.
	w = postJSON(t, h, "/market/install", dig)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-depth install = %d, want 429: %s", w.Code, w.Body)
	}
	errBody(t, w)
	// Unknown and malformed job IDs.
	if w := getPath(t, h, "/market/jobs/999999"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d", w.Code)
	}
	if w := getPath(t, h, "/market/jobs/banana"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad job ID = %d", w.Code)
	}
	// The dashboard lists the queue.
	if w := getPath(t, h, "/market/jobs"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), QueueInstall) {
		t.Fatalf("jobs index = %d %s", w.Code, w.Body)
	}

	// Attach workers: the parked job completes and the result is pollable.
	m.AttachJobs(jm, 1)
	waitCond(t, "parked job completes", func() bool {
		s, ok := jm.Status(acc.JobID)
		return ok && s.State == jobs.StateDone
	})
	if w := getPath(t, h, acc.Poll); !strings.Contains(w.Body.String(), string(StatusActive)) {
		t.Fatalf("completed poll body: %s", w.Body)
	}
}
