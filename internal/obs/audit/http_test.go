package audit

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

type auditResponse struct {
	Source  string  `json:"source"`
	Emitted uint64  `json:"emitted"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

func getAudit(t *testing.T, srv *httptest.Server, query string) auditResponse {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/audit" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /audit%s: status %d", query, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var out auditResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAuditEndpointFilters(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictDeny, App: "mal", Corr: 5, Token: "insert_flow"})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow, App: "good", Corr: 6})
	j.Emit(Event{Kind: KindFlowMod, Verdict: VerdictSent, App: "good", Corr: 6, DPID: 1})
	j.DrainNow()
	srv := httptest.NewServer(Handler(j))
	defer srv.Close()

	if got := getAudit(t, srv, ""); len(got.Events) != 3 || got.Source != "journal" {
		t.Fatalf("unfiltered: %+v", got)
	}
	if got := getAudit(t, srv, "?app=mal"); len(got.Events) != 1 || got.Events[0].Token != "insert_flow" {
		t.Fatalf("app filter: %+v", got.Events)
	}
	if got := getAudit(t, srv, "?verdict=deny"); len(got.Events) != 1 {
		t.Fatalf("verdict filter: %+v", got.Events)
	}
	if got := getAudit(t, srv, "?corr=6"); len(got.Events) != 2 {
		t.Fatalf("corr filter: %+v", got.Events)
	}
	if got := getAudit(t, srv, "?kind=flow_mod"); len(got.Events) != 1 || got.Events[0].DPID != 1 {
		t.Fatalf("kind filter: %+v", got.Events)
	}
	if got := getAudit(t, srv, "?limit=1"); len(got.Events) != 1 || got.Events[0].Kind != KindFlowMod {
		t.Fatalf("limit should keep newest: %+v", got.Events)
	}
	// Bad params are 400s.
	for _, q := range []string{"?corr=zebra", "?limit=-1"} {
		resp, err := srv.Client().Get(srv.URL + "/audit" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("GET /audit%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestAuditEndpointUnmatchedFiltersAnswerEmpty: a query the journal has
// no match for answers an empty list, never some other history.
func TestAuditEndpointUnmatchedFiltersAnswerEmpty(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictDeny, App: "a/mal", Corr: 5, Token: "insert_flow"})
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow, App: "a/good", Corr: 6})
	j.DrainNow()
	srv := httptest.NewServer(Handler(j))
	defer srv.Close()

	for _, q := range []string{"?corr=999", "?kind=tx", "?tenant=b", "?app=a/mal&verdict=allow"} {
		resp, err := srv.Client().Get(srv.URL + "/audit" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), `"source":"journal"`) || !strings.Contains(string(body), `"events":[]`) {
			t.Fatalf("GET /audit%s = %s, want the journal's empty answer", q, body)
		}
	}
}

func TestAuditStreamTailsNewEvents(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Start()
	defer j.Stop()
	j.Emit(Event{Kind: KindPermission, Verdict: VerdictAllow, App: "old"})
	j.Flush()
	srv := httptest.NewServer(Handler(j))
	defer srv.Close()

	type streamResult struct {
		events []Event
		cursor string
		ct     string
	}
	res := make(chan streamResult, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/audit/stream?wait=5")
		if err != nil {
			res <- streamResult{}
			return
		}
		defer resp.Body.Close()
		var events []Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events = append(events, ev)
			}
		}
		res <- streamResult{events, resp.Header.Get("X-Audit-Cursor"), resp.Header.Get("Content-Type")}
	}()
	time.Sleep(50 * time.Millisecond)
	j.Emit(Event{Kind: KindFlowMod, Verdict: VerdictSent, App: "new", Corr: 11})
	j.Flush()
	select {
	case got := <-res:
		if got.ct != "application/x-ndjson" {
			t.Fatalf("content type %q", got.ct)
		}
		if len(got.events) != 1 || got.events[0].App != "new" {
			t.Fatalf("stream should tail only new events: %+v", got.events)
		}
		if got.cursor == "" || got.cursor == "0" {
			t.Fatalf("cursor header %q", got.cursor)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never returned")
	}
}

func TestAuditStreamTimesOutEmpty(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Start()
	defer j.Stop()
	srv := httptest.NewServer(Handler(j))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/audit/stream?wait=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf [64]byte
	if n, _ := resp.Body.Read(buf[:]); n != 0 {
		t.Fatalf("expected empty body, got %q", buf[:n])
	}
}

func TestAuditStreamResumesFromCursor(t *testing.T) {
	j := NewJournal(JournalConfig{})
	j.Emit(Event{Kind: KindTx, Verdict: VerdictCommit, App: "a"})
	j.Emit(Event{Kind: KindTx, Verdict: VerdictAbort, App: "a"})
	j.DrainNow()
	srv := httptest.NewServer(Handler(j))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/audit/stream?after=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var events []Event
	for sc.Scan() {
		var ev Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil {
			events = append(events, ev)
		}
	}
	if len(events) != 1 || events[0].Verdict != VerdictAbort {
		t.Fatalf("cursor resume: %+v", events)
	}
}
