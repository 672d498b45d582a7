package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
	"sdnshield/internal/of"
)

// Spans are recorded by the harness, from outside the program: the
// driver stamps the root span of each operation, and two decorators the
// harness owns — an isolation.App that stamps handler entry and exit and
// an isolation.API that stamps each northbound call — stamp the layers
// under it, identically on the shield and on the monolith. Spans inside
// the program are a later change.

// spanName indexes spanNames; the span tree of every workload is fixed,
// so a span's parent follows from its name (scenario.spanTree).
type spanName uint8

const (
	spanFlowsetup spanName = iota
	spanDeliver
	spanHandler
	spanInsertFlow
	spanSendPktOut
	spanFlowStats
	spanCall
	spanTenantDo
	spanAdmit
	spanSubmit
	spanInstall
	spanApprove
	spanUpgrade
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"flowsetup", "deliver", "handler", "api.insert_flow", "api.send_pkt_out", "api.flow_stats",
	"call", "tenant.do", "admit", "market.submit", "market.install", "market.approve", "market.upgrade",
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer was made; Op is the operation the span belongs to and Arm the
// runtime it ran on (0 shield, 1 monolith).
type span struct {
	Name  spanName
	Arm   uint8
	Op    uint32
	Start int64
	End   int64
}

// tracer collects spans in memory: a preallocated slab claimed by atomic
// index, so recording from several goroutines takes no lock, and nothing
// is written out until the run ends. on gates recording, so traced and
// untraced rounds alternate on one set-up.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	next  atomic.Int64
	spans []span
}

// maxSpans bounds the slab (24 B a span); spans beyond it are counted as
// dropped rather than grown into.
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxSpans)}
}

// active reports whether spans are being recorded; a nil tracer (the
// untraced run) never records.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(name spanName, arm uint8, op uint32, start, end int64) {
	i := t.next.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = span{Name: name, Arm: arm, Op: op, Start: start, End: end}
	}
}

// begin returns the tracer's clock when spans are being recorded and 0
// otherwise; end records the span begun then, or nothing for a zero begin.
// Together they stamp a call with two lines and cost two atomic loads
// when recording is off.
func (t *tracer) begin() int64 {
	if t.active() {
		return t.now()
	}
	return 0
}

func (t *tracer) end(name spanName, arm uint8, op uint32, begun int64) {
	if begun != 0 {
		t.add(name, arm, op, begun, t.now())
	}
}

// addTimed records a span the driver timed itself with the wall clock, so
// that the span and the latency sample are the same interval.
func (t *tracer) addTimed(name spanName, arm uint8, op uint32, start time.Time, d time.Duration) {
	if t.active() {
		t0 := int64(start.Sub(t.base))
		t.add(name, arm, op, t0, t0+int64(d))
	}
}

// recorded returns the spans kept and how many were dropped. Call it
// only once every recording goroutine has stopped.
func (t *tracer) recorded() ([]span, int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// spanFileLimit caps the spans written to a trace file; the statistics
// use every recorded span.
const spanFileLimit = 100_000

// writeTrace writes the spans of one workload to out/trace-<name>.json.
func writeTrace(dir, workload string, spans []span, dropped int64, tree map[spanName]spanName) (string, error) {
	type fileSpan struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Arm    string `json:"arm"`
		Op     uint32 `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	total := len(spans)
	if len(spans) > spanFileLimit {
		spans = spans[:spanFileLimit]
	}
	doc := struct {
		Workload string     `json:"workload"`
		Recorded int        `json:"spans_recorded"`
		Dropped  int64      `json:"spans_dropped"`
		Written  int        `json:"spans_written"`
		Spans    []fileSpan `json:"spans"`
	}{Workload: workload, Recorded: total, Dropped: dropped, Written: len(spans)}
	doc.Spans = make([]fileSpan, len(spans))
	for i, s := range spans {
		fs := fileSpan{Name: spanNames[s.Name], Arm: armNames[s.Arm], Op: s.Op, Start: s.Start, End: s.End}
		if p, ok := tree[s.Name]; ok {
			fs.Parent = spanNames[p]
		}
		doc.Spans[i] = fs
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------------
// Span statistics

// spanDurations returns the durations (ns) of every span with the given
// name and arm.
func spanDurations(spans []span, name spanName, arm uint8) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name && spans[i].Arm == arm {
			out = append(out, float64(spans[i].End-spans[i].Start))
		}
	}
	return out
}

// selfTimes returns, per operation, the parent span's duration minus the
// part of its interval the child spans cover, plus the covered share.
// Children are clipped to the parent's interval; the children of one
// operation never overlap each other (they run one after another on the
// path the parent waits for).
func selfTimes(spans []span, parent spanName, arm uint8, children ...spanName) (self, cover []float64) {
	isChild := [numSpanNames]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	type iv struct{ start, end int64 }
	parents := make(map[uint32]iv)
	covered := make(map[uint32]int64)
	for i := range spans {
		if s := &spans[i]; s.Arm == arm && s.Name == parent {
			parents[s.Op] = iv{s.Start, s.End}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Arm != arm || !isChild[s.Name] {
			continue
		}
		p, ok := parents[s.Op]
		if !ok {
			continue
		}
		start, end := max(s.Start, p.start), min(s.End, p.end)
		if end > start {
			covered[s.Op] += end - start
		}
	}
	for op, p := range parents {
		d := p.end - p.start
		if d <= 0 {
			continue
		}
		self = append(self, float64(d-covered[op]))
		cover = append(cover, float64(covered[op])/float64(d))
	}
	return self, cover
}

// ---------------------------------------------------------------------------
// Decorators

const (
	armShield = 0
	armMono   = 1
)

var armNames = [2]string{"shield", "monolith"}

// tracedApp wraps an app so that its handlers and northbound calls are
// stamped. op is the operation the driver currently has outstanding and
// sentAt when the driver sent the event that starts it; the traced phases
// keep one operation outstanding per app, so the handler reads both at
// entry.
type tracedApp struct {
	inner  isolation.App
	tr     *tracer
	arm    uint8
	op     *atomic.Uint32
	sentAt *atomic.Int64
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) Init(api isolation.API) error {
	return a.inner.Init(&tracedAPI{API: api, tr: a.tr, arm: a.arm, op: a.op, sentAt: a.sentAt})
}

// tracedAPI stamps the northbound calls the workloads issue and wraps
// subscribed handlers; every other method is the embedded API's.
type tracedAPI struct {
	isolation.API
	tr     *tracer
	arm    uint8
	op     *atomic.Uint32
	sentAt *atomic.Int64 // nil when no event starts the operation
}

func (a *tracedAPI) Subscribe(kind controller.EventKind, fn controller.Handler) error {
	return a.API.Subscribe(kind, func(ev controller.Event) {
		op, t0 := a.op.Load(), a.tr.begin()
		if t0 != 0 && a.sentAt != nil {
			a.tr.add(spanDeliver, a.arm, op, a.sentAt.Load(), t0)
		}
		fn(ev)
		a.tr.end(spanHandler, a.arm, op, t0)
	})
}

func (a *tracedAPI) InsertFlow(dpid of.DPID, spec controller.FlowSpec) error {
	op, t0 := a.op.Load(), a.tr.begin()
	err := a.API.InsertFlow(dpid, spec)
	a.tr.end(spanInsertFlow, a.arm, op, t0)
	return err
}

func (a *tracedAPI) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	op, t0 := a.op.Load(), a.tr.begin()
	err := a.API.SendPacketOut(dpid, bufferID, inPort, actions, pkt)
	a.tr.end(spanSendPktOut, a.arm, op, t0)
	return err
}

func (a *tracedAPI) FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error) {
	op, t0 := a.op.Load(), a.tr.begin()
	rows, err := a.API.FlowStats(dpid, match)
	a.tr.end(spanFlowStats, a.arm, op, t0)
	return rows, err
}
