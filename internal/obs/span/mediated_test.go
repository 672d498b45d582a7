package span

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// mediatedCall records one traced mediated call the way the isolation
// layer does: the root, then its two stages.
func mediatedCall(corr uint64, op, tenant string, start time.Time) Context {
	root := Mediated(corr, op, tenant, start, 10*time.Microsecond)
	Add(root, "ksd_queue", start, 2*time.Microsecond)
	Add(root, "exec", start.Add(2*time.Microsecond), 7*time.Microsecond)
	return root
}

func getTraces(t *testing.T, query string) []MediatedCall {
	t.Helper()
	rec := httptest.NewRecorder()
	handleMediated(rec, httptest.NewRequest(http.MethodGet, "/traces?"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /traces?%s = %d: %s", query, rec.Code, rec.Body)
	}
	var calls []MediatedCall
	if err := json.Unmarshal(rec.Body.Bytes(), &calls); err != nil {
		t.Fatal(err)
	}
	return calls
}

// freshCorrs returns the first of a block of trace IDs no other test or
// earlier -count iteration has used in the process-wide collector.
func freshCorrs() uint64 { return uint64(time.Now().UnixNano()) }

// TestMediatedViewNewestFirstAndCapped: /traces is a view over the
// collector's mediated roots — newest first, at most 256, each with its
// stages offset from the call's start and the corr as its id.
func TestMediatedViewNewestFirstAndCapped(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	base := freshCorrs()
	op := fmt.Sprintf("view_%d", base)
	start := time.Now()
	for i := uint64(0); i < 300; i++ {
		mediatedCall(base+i, op, "", start)
	}
	// A root of another kind in the same store is not a mediated call.
	Root(base+300, "install:"+op).End()

	calls := getTraces(t, "op="+op)
	if len(calls) != maxMediatedListed {
		t.Fatalf("/traces?op= lists %d calls, want the cap %d", len(calls), maxMediatedListed)
	}
	for i, c := range calls {
		want := base + 299 - uint64(i)
		if c.Corr != want || c.ID != strconv.FormatUint(want, 10) || c.Op != op {
			t.Fatalf("element %d = %+v, want corr %d (newest first) with id = corr", i, c, want)
		}
		if !c.Start.Equal(start) || c.Duration != 10*time.Microsecond {
			t.Fatalf("element %d timing = %v +%v", i, c.Start, c.Duration)
		}
		if len(c.Spans) != 2 ||
			c.Spans[0] != (Stage{"ksd_queue", 0, 2 * time.Microsecond}) ||
			c.Spans[1] != (Stage{"exec", 2 * time.Microsecond, 7 * time.Microsecond}) {
			t.Fatalf("element %d stages = %+v", i, c.Spans)
		}
	}
	if got := getTraces(t, fmt.Sprintf("corr=%d", base+300)); len(got) != 0 {
		t.Fatalf("a non-mediated root is listed at /traces: %+v", got)
	}
	// The id resolves at /trace/<id>.
	rec := httptest.NewRecorder()
	handleTrace(rec, httptest.NewRequest(http.MethodGet, "/trace/"+calls[0].ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d", calls[0].ID, rec.Code)
	}
}

// TestMediatedTenantAndGates: the tenant a call is recorded with tags its
// trace and filters /traces; a zero corr or a disabled layer records
// nothing, stages included.
func TestMediatedTenantAndGates(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	base := freshCorrs()
	op := fmt.Sprintf("gate_%d", base)
	now := time.Now()

	mediatedCall(base, op, "acme", now)
	mediatedCall(base+1, op, "", now)
	if got := TenantOf(base); got != "acme" {
		t.Fatalf("TenantOf(tagged call) = %q", got)
	}
	if got := getTraces(t, "tenant=acme&op="+op); len(got) != 1 || got[0].Corr != base || got[0].Tenant != "acme" {
		t.Fatalf("/traces?tenant=acme = %+v, want the tagged call only", got)
	}
	if got := getTraces(t, "tenant=globex&op="+op); len(got) != 0 {
		t.Fatalf("/traces?tenant=globex = %+v", got)
	}

	if root := mediatedCall(0, op, "acme", now); root.Valid() {
		t.Fatalf("zero corr produced a trace context: %+v", root)
	}
	SetEnabled(false)
	root := mediatedCall(base+2, op, "acme", now)
	SetEnabled(true)
	if root.Valid() || def.Trace(base+2) != nil || TenantOf(base+2) != "" {
		t.Fatalf("disabled layer recorded a call: ctx %+v, spans %+v", root, def.Trace(base+2))
	}
	if got := getTraces(t, "op="+op); len(got) != 2 {
		t.Fatalf("/traces?op= lists %d calls, want the 2 recorded while enabled", len(got))
	}
}
