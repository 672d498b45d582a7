package isolation

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// tracedEvery is how the traced subset is cut from the measured calls:
// every 16th. At latency sampling 1 that is every 16th call, at the
// shipping default of 8 one call in 128.
const tracedEvery = 16

// traceProbe is one test's private view of the tracing surface: a
// shield, a launched app's container, a mediated op no other test (and
// no earlier -count iteration) has used, and the telemetry endpoint over
// the default registry. Everything process-wide it turns on is restored
// on cleanup.
type traceProbe struct {
	t      *testing.T
	shield *Shield
	c      *Container
	op     *mediatedOp
	h      http.Handler
}

func newTraceProbe(t *testing.T, sampling int) *traceProbe {
	t.Helper()
	prevSampling := obs.SetLatencySampling(sampling)
	prevObs := obs.SetEnabled(true)
	prevSpan := span.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetLatencySampling(prevSampling)
		obs.SetEnabled(prevObs)
		span.SetEnabled(prevSpan)
	})
	env := newEnvCfg(t, 1, noQuotaLoop())
	if err := env.shield.Launch(app("traced", func(API) error { return nil })); err != nil {
		t.Fatal(err)
	}
	c, ok := env.shield.Container("traced")
	if !ok {
		t.Fatal("launched app has no container")
	}
	return &traceProbe{
		t: t, shield: env.shield, c: c,
		op: newMediatedOp(fmt.Sprintf("probe_%d", audit.NextCorr())),
		h:  telemetryHandler(obs.Default()),
	}
}

// call drives one mediated call through Shield.do under a fresh
// correlation ID and returns that ID.
func (p *traceProbe) call() uint64 {
	corr := audit.NextCorr()
	if err := p.shield.do(p.c, p.op, controller.Origin{Corr: corr}, func(controller.Origin) error { return nil }); err != nil {
		p.t.Errorf("mediated call: %v", err)
	}
	return corr
}

func (p *traceProbe) get(target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// tracesEntry is one element of the /traces array.
type tracesEntry struct {
	ID       string        `json:"id"`
	Op       string        `json:"op"`
	Corr     uint64        `json:"corr"`
	Tenant   string        `json:"tenant"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []struct {
		Name     string        `json:"name"`
		Offset   time.Duration `json:"offset_ns"`
		Duration time.Duration `json:"duration_ns"`
	} `json:"spans"`
}

// traces fetches /traces?<query> and decodes the array. Failures are
// reported with Errorf: reader goroutines call it too.
func (p *traceProbe) traces(query string) []tracesEntry {
	p.t.Helper()
	rec := p.get("/traces?" + query)
	if rec.Code != http.StatusOK {
		p.t.Errorf("GET /traces?%s = %d: %s", query, rec.Code, rec.Body)
		return nil
	}
	var out []tracesEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		p.t.Errorf("/traces?%s is not a JSON array: %v\n%s", query, err, rec.Body)
	}
	return out
}

// timeline fetches /trace/<corr>: the spans, or nil on 404.
func (p *traceProbe) timeline(corr uint64) []span.Record {
	p.t.Helper()
	rec := p.get(fmt.Sprintf("/trace/%d", corr))
	if rec.Code == http.StatusNotFound {
		return nil
	}
	var body struct {
		TraceID uint64        `json:"trace_id"`
		Spans   []span.Record `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK || body.TraceID != corr {
		p.t.Errorf("GET /trace/%d = %d (%v): %s", corr, rec.Code, err, rec.Body)
		return nil
	}
	return body.Spans
}

// checkEntry asserts one /traces element is whole: the probe's op, a
// correlation ID, a start, and at most the two stages of a mediated call
// with sane timings.
func (p *traceProbe) checkEntry(e tracesEntry) {
	p.t.Helper()
	if e.ID == "" || e.Op != p.op.name || e.Corr == 0 || e.Start.IsZero() || e.Duration < 0 {
		p.t.Errorf("torn trace: %+v", e)
	}
	if len(e.Spans) > 2 {
		p.t.Errorf("trace %s has %d spans, want <= 2", e.ID, len(e.Spans))
	}
	for _, sp := range e.Spans {
		if sp.Name != "ksd_queue" && sp.Name != "exec" {
			p.t.Errorf("trace %s has torn span name %q", e.ID, sp.Name)
		}
		if sp.Offset < 0 || sp.Duration < 0 {
			p.t.Errorf("trace %s span %s: offset %v, duration %v", e.ID, sp.Name, sp.Offset, sp.Duration)
		}
	}
}

// TestMediatedTraceEndToEnd connects Shield.do to the two trace
// endpoints: of 64 measured calls every 16th is traced, and each traced
// call is one root mediated:<op> with its ksd_queue and exec children at
// /trace/<corr> and exactly one element of /traces?corr= and ?op=. The
// calls in between leave nothing at either endpoint.
func TestMediatedTraceEndToEnd(t *testing.T) {
	p := newTraceProbe(t, 1)
	const calls = 64
	var traced []uint64
	for i := 0; i < calls; i++ {
		corr := p.call()
		spans := p.timeline(corr)
		byCorr := p.traces(fmt.Sprintf("corr=%d", corr))
		if spans == nil {
			if len(byCorr) != 0 {
				t.Errorf("call %d: nothing at /trace/%d, yet /traces?corr= holds %+v", i, corr, byCorr)
			}
			continue
		}
		// The spans are complete when the call returns.
		traced = append(traced, corr)
		if len(spans) != 3 {
			t.Fatalf("call %d: /trace/%d holds %d spans, want root + 2 stages: %+v", i, corr, len(spans), spans)
		}
		var root span.Record
		children := map[string]span.Record{}
		for _, sp := range spans {
			if sp.Parent == 0 {
				root = sp
			} else {
				children[sp.Name] = sp
			}
		}
		if root.Name != "mediated:"+p.op.name || root.TraceID != corr {
			t.Fatalf("call %d: root span = %+v", i, root)
		}
		for _, name := range []string{"ksd_queue", "exec"} {
			ch, ok := children[name]
			if !ok {
				t.Fatalf("call %d: no %s span in %+v", i, name, spans)
			}
			if ch.Parent != root.SpanID || ch.TraceID != corr {
				t.Errorf("call %d: %s is not a child of the root: %+v", i, name, ch)
			}
			if ch.Duration < 0 || ch.Start.Before(root.Start) ||
				ch.Start.Add(ch.Duration).After(root.Start.Add(root.Duration)) {
				t.Errorf("call %d: %s [%v +%v] outside the root [%v +%v]",
					i, name, ch.Start, ch.Duration, root.Start, root.Duration)
			}
		}
		if children["exec"].Start.Before(children["ksd_queue"].Start) {
			t.Errorf("call %d: exec starts before the queue wait: %+v", i, spans)
		}

		if len(byCorr) != 1 || byCorr[0].Corr != corr {
			t.Fatalf("call %d: /traces?corr=%d = %+v, want exactly that call", i, corr, byCorr)
		}
		p.checkEntry(byCorr[0])
		if len(byCorr[0].Spans) != 2 || byCorr[0].Spans[0].Name != "ksd_queue" || byCorr[0].Spans[1].Name != "exec" {
			t.Errorf("call %d: /traces stages = %+v, want ksd_queue then exec", i, byCorr[0].Spans)
		}
		if both := p.traces(fmt.Sprintf("corr=%d&op=%s", corr, p.op.name)); len(both) != 1 {
			t.Errorf("call %d: ?corr=&op= returned %d traces, want 1", i, len(both))
		}
		if other := p.traces(fmt.Sprintf("corr=%d&op=insert_flow", corr)); len(other) != 0 {
			t.Errorf("call %d: ?op= of another op still matched: %+v", i, other)
		}
	}
	if len(traced) != calls/tracedEvery {
		t.Fatalf("%d of %d measured calls were traced, want every %dth: %v", len(traced), calls, tracedEvery, traced)
	}
	// ?op= lists exactly the traced calls, newest first.
	byOp := p.traces("op=" + p.op.name)
	if len(byOp) != len(traced) {
		t.Fatalf("/traces?op=%s holds %d traces, want %d", p.op.name, len(byOp), len(traced))
	}
	for i, e := range byOp {
		p.checkEntry(e)
		if want := traced[len(traced)-1-i]; e.Corr != want {
			t.Errorf("/traces?op= element %d is corr %d, want %d (newest first)", i, e.Corr, want)
		}
	}
	if rec := p.get("/traces?corr=not-a-number"); rec.Code != http.StatusBadRequest {
		t.Errorf("/traces?corr=not-a-number = %d, want 400", rec.Code)
	}
}

// TestTracedSubsetAtDefaultSampling pins the shipping rate: at latency
// sampling 8 one mediated call in 128 is traced.
func TestTracedSubsetAtDefaultSampling(t *testing.T) {
	p := newTraceProbe(t, 8)
	for i := 0; i < 8*tracedEvery; i++ {
		p.call()
	}
	if got := p.traces("op=" + p.op.name); len(got) != 1 {
		t.Fatalf("%d of %d calls traced at sampling 8, want 1", len(got), 8*tracedEvery)
	}
}

// TestUnsampledCallsLeaveNothing is the other side of the sampling
// decision: with instrumentation off no call is measured, so none is
// traced and neither endpoint learns of any.
func TestUnsampledCallsLeaveNothing(t *testing.T) {
	p := newTraceProbe(t, 1)
	obs.SetEnabled(false)
	var corrs []uint64
	for i := 0; i < 2*tracedEvery; i++ {
		corrs = append(corrs, p.call())
	}
	obs.SetEnabled(true)
	for _, corr := range corrs {
		if spans := p.timeline(corr); spans != nil {
			t.Errorf("/trace/%d holds %+v for an unmeasured call", corr, spans)
		}
	}
	if got := p.traces("op=" + p.op.name); len(got) != 0 {
		t.Errorf("/traces holds %+v for unmeasured calls", got)
	}
	if n := p.op.hist.Count(); n != 0 {
		t.Errorf("latency histogram counted %d unmeasured calls", n)
	}
}

// TestConcurrentTracingWhileTracesServed hammers Shield.do from many
// goroutines while /traces and /trace are being served. Under -race this
// flushes out torn traces; the assertions check that no response ever
// exposes a half-written one and that every traced call is retained
// exactly once.
func TestConcurrentTracingWhileTracesServed(t *testing.T) {
	p := newTraceProbe(t, 1)
	const workers = 8
	const perWorker = 16 * tracedEvery

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range p.traces("op=" + p.op.name) {
					p.checkEntry(e)
				}
				if rec := p.get("/trace"); rec.Code != http.StatusOK {
					t.Errorf("/trace status %d", rec.Code)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				p.call()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	got := p.traces("op=" + p.op.name)
	if want := workers * perWorker / tracedEvery; len(got) != want {
		t.Fatalf("/traces holds %d traces of %d calls, want %d", len(got), workers*perWorker, want)
	}
	seenID, seenCorr := map[string]bool{}, map[uint64]bool{}
	for _, e := range got {
		p.checkEntry(e)
		if seenID[e.ID] || seenCorr[e.Corr] {
			t.Fatalf("trace %s (corr %d) retained twice", e.ID, e.Corr)
		}
		seenID[e.ID], seenCorr[e.Corr] = true, true
		if len(p.timeline(e.Corr)) != 3 {
			t.Errorf("/trace/%d does not hold the call's three spans", e.Corr)
		}
	}
}

var (
	reTraceID   = regexp.MustCompile(`"(id|trace_id)": "[^"]*"`)
	reProbeOp   = regexp.MustCompile(`"op": "probe_\d+"`)
	reTraceCorr = regexp.MustCompile(`"corr": \d+`)
	reTraceTime = regexp.MustCompile(`"(start|time)": "[^"]*"`)
	reTraceNum  = regexp.MustCompile(`"(offset_ns|duration_ns|value|count|le)": [0-9.e+-]+`)
)

// normaliseTrace replaces what legitimately differs between runs: trace
// IDs, the probe's op name, correlation IDs, wall-clock times and every
// measured number. What is left is the wire shape.
func normaliseTrace(body []byte) []byte {
	body = reTraceID.ReplaceAll(body, []byte(`"$1": "ID"`))
	body = reProbeOp.ReplaceAll(body, []byte(`"op": "probe"`))
	body = reTraceCorr.ReplaceAll(body, []byte(`"corr": 0`))
	body = reTraceTime.ReplaceAll(body, []byte(`"$1": "T"`))
	return reTraceNum.ReplaceAll(body, []byte(`"$1": 0`))
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestTraceEndpointGoldens byte-compares the wire shape of one traced
// call at /traces and of the /metrics.json histogram bucket carrying its
// exemplar against testdata/*.golden (go test -run
// TestTraceEndpointGoldens -update rewrites them).
func TestTraceEndpointGoldens(t *testing.T) {
	p := newTraceProbe(t, 1)
	for i := 0; i < tracedEvery; i++ {
		p.call()
	}
	rec := p.get("/traces?op=" + p.op.name)
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/traces Content-Type = %q", ct)
	}
	compareGolden(t, "traces", normaliseTrace(rec.Body.Bytes()))

	var series []struct {
		Name      string `json:"name"`
		Labels    string `json:"labels"`
		Histogram *struct {
			Buckets []json.RawMessage `json:"buckets"`
		} `json:"histogram"`
	}
	if err := json.Unmarshal(p.get("/metrics.json").Body.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	var bucket json.RawMessage
	for _, s := range series {
		if s.Name != "sdnshield_mediated_call_seconds" || !strings.Contains(s.Labels, p.op.name) {
			continue
		}
		for _, b := range s.Histogram.Buckets {
			if bytes.Contains(b, []byte(`"exemplar"`)) {
				bucket = b
			}
		}
	}
	if bucket == nil {
		t.Fatalf("no bucket of %s carries an exemplar after a traced call", p.op.name)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, bucket, "", "  "); err != nil {
		t.Fatal(err)
	}
	indented.WriteByte('\n')
	compareGolden(t, "metrics_exemplar_bucket", normaliseTrace(indented.Bytes()))
}
