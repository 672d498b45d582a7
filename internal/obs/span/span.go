// Package span is SDNShield's tracer, the only one: it follows one
// *operation* — an async install, a replication round — across
// goroutines, WAL-persisted job executions and HTTP node boundaries, and
// it holds the queue-wait/execution breakdown of the sampled mediated
// calls (Mediated), which /traces lists.
//
// The unification that makes it forensic rather than merely diagnostic:
// a span's trace ID IS the audit correlation ID minted at the operation
// boundary (audit.NextCorr()). Every audit event and span of one
// install therefore share one number, so /trace/<corr>
// answers "where did the install behind this audit event spend its
// time" with no join table.
//
// Propagation is explicit: a Context {traceID, spanID, parent} travels
// in function arguments, in job WAL records (internal/jobs), and in the
// X-Sdnshield-Trace HTTP header. Spans land in a bounded process-wide
// collector served at /trace/<traceID>, and optionally in a rotating
// JSONL file sink alongside the audit journal.
//
// Layering: span imports only obs (for the file sink, the drop metrics
// and the extension-route registry); everything above — jobs, market,
// isolation, the CLIs — imports span, never the reverse.
package span

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/obs"
)

// Header is the HTTP header carrying a trace context across nodes, as
// rendered by Context.String and parsed by Parse.
const Header = "X-Sdnshield-Trace"

// Context is the propagating identity of one span: which trace it
// belongs to, its own ID, and its causal parent (0 for a root). The
// zero Context is "not traced" and makes every operation on it a no-op.
type Context struct {
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
	Parent  uint64 `json:"parent,omitempty"`
}

// Valid reports whether the context belongs to a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// String renders the context for the wire: "traceID-spanID-parent".
func (c Context) String() string {
	return strconv.FormatUint(c.TraceID, 10) + "-" +
		strconv.FormatUint(c.SpanID, 10) + "-" +
		strconv.FormatUint(c.Parent, 10)
}

// Parse decodes a Context rendered by String. Malformed or empty input
// returns (zero, false) — a missing header is not an error.
func Parse(s string) (Context, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 3 {
		return Context{}, false
	}
	var vals [3]uint64
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return Context{}, false
		}
		vals[i] = v
	}
	c := Context{TraceID: vals[0], SpanID: vals[1], Parent: vals[2]}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

// enabled gates the whole layer. Default on: span creation happens off
// the mediated-call fast path (HTTP ingress, job workers, and the
// already-sampled traced subset of mediated calls), so the steady-state
// cost is bounded by operation rate, not call rate.
var enabled atomic.Bool

func init() {
	enabled.Store(true)
}

// On reports whether the span layer is recording.
func On() bool { return enabled.Load() }

// SetEnabled flips the layer's recording gate and returns the previous
// state. Disabling stops new spans; retained traces stay queryable.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// spanSeq mints span IDs, process-wide so IDs stay unique across
// components recording into one collector.
var spanSeq atomic.Uint64

func nextSpanID() uint64 { return spanSeq.Add(1) }

// node is the name stamped on every record this process emits, so a
// multi-node trace shows which side of a sync pull each span ran on.
var nodeName atomic.Value // string

// SetNode names this process in emitted span records ("" omits it).
// The CLIs wire it to -market-node.
func SetNode(name string) { nodeName.Store(name) }

func node() string {
	if v, ok := nodeName.Load().(string); ok {
		return v
	}
	return ""
}

// Record is one finished span as retained and exported: self-contained
// (absolute start, duration, names) so the JSONL sink needs no
// surrounding state.
type Record struct {
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	Parent   uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Node     string        `json:"node,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Detail   string        `json:"detail,omitempty"`
}

// Span is one in-flight stage of a trace. A nil Span is valid and makes
// every method a no-op, so call sites never branch on sampling.
type Span struct {
	rec Record
}

// Root opens the root span of a new trace. traceID is the operation's
// audit correlation ID — minting it (audit.NextCorr) is the caller's
// job, which is exactly what keeps traces and audit events unified.
// Returns nil (a valid no-op span) when the layer is off or traceID is
// zero.
func Root(traceID uint64, name string) *Span {
	if traceID == 0 || !enabled.Load() {
		return nil
	}
	return &Span{rec: Record{
		TraceID: traceID, SpanID: nextSpanID(), Name: name, Start: time.Now(),
	}}
}

// Start opens a child span under parent. An invalid parent (zero
// Context) or a disabled layer returns nil — the no-op span.
func Start(parent Context, name string) *Span {
	if !parent.Valid() || !enabled.Load() {
		return nil
	}
	return &Span{rec: Record{
		TraceID: parent.TraceID, SpanID: nextSpanID(), Parent: parent.SpanID,
		Name: name, Start: time.Now(),
	}}
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID, Parent: s.rec.Parent}
}

// Annotate attaches a human-oriented detail string to the span.
func (s *Span) Annotate(detail string) {
	if s == nil {
		return
	}
	s.rec.Detail = detail
}

// End seals the span and hands it to the default collector. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.Duration = time.Since(s.rec.Start)
	s.rec.Node = node()
	def.Collect(s.rec)
}

// Add records an externally timed child span — used when the start and
// duration already exist for metric purposes (job queue wait, the
// stages of a mediated call), so tracing adds no clock reads of its
// own. It returns the recorded span's context — zero, having recorded
// nothing, on an invalid parent or a disabled layer.
func Add(parent Context, name string, start time.Time, d time.Duration) Context {
	if !parent.Valid() || !enabled.Load() {
		return Context{}
	}
	c := Context{TraceID: parent.TraceID, SpanID: nextSpanID(), Parent: parent.SpanID}
	def.Collect(Record{
		TraceID: c.TraceID, SpanID: c.SpanID, Parent: c.Parent,
		Name: name, Node: node(), Start: start, Duration: d,
	})
	return c
}

// mediatedPrefix starts the name of a traced mediated call's root span;
// the rest is the op.
const mediatedPrefix = "mediated:"

// Mediated records the root span of one traced mediated call —
// "mediated:<op>" over [start, start+d), its trace ID the call's
// correlation ID, tagged with the tenant when the call belongs to one —
// and returns its context for Add to hang the call's stages from. These
// roots are what /traces lists. The isolation layer calls it only for the
// traced subset, with timestamps it took for the latency histograms.
func Mediated(corr uint64, op, tenant string, start time.Time, d time.Duration) Context {
	root := Add(Context{TraceID: corr}, mediatedPrefix+op, start, d)
	if root.Valid() {
		def.Tag(corr, tenant)
	}
	return root
}

// ---------------------------------------------------------------------------
// Collector

// Sink receives every collected span record — the JSONL file export,
// obs.FileSink[Record].
type Sink interface {
	Write(Record) error
}

// Collector retains finished spans grouped by trace in a bounded
// store: at most maxTraces traces (oldest evicted first) of at most
// maxSpans spans each (further spans of a full trace are counted as
// dropped, not retained).
type Collector struct {
	mu        sync.Mutex
	traces    map[uint64]*traceEntry
	order     []uint64 // trace IDs in first-seen order, for eviction
	maxTraces int
	maxSpans  int
	sink      Sink
	dropped   uint64
}

type traceEntry struct {
	tenant string
	spans  []Record
}

// NewCollector builds a collector bounded to maxTraces traces of
// maxSpans spans each (defaults 512 and 256 for values <= 0).
func NewCollector(maxTraces, maxSpans int) *Collector {
	if maxTraces <= 0 {
		maxTraces = 512
	}
	if maxSpans <= 0 {
		maxSpans = 256
	}
	return &Collector{
		traces:    make(map[uint64]*traceEntry),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
	}
}

// def is the process-wide collector /trace/<id> serves.
var def = NewCollector(0, 0)

// mDropped mirrors the default collector's drop count into /metrics, so
// collector pressure shows up on dashboards without polling /trace.
var mDropped = obs.Default().Counter("sdnshield_span_dropped_total",
	"Spans the default collector refused because their trace hit the span bound.")

func init() {
	obs.Default().GaugeFunc("sdnshield_span_traces_resident",
		"Traces currently retained in the default span collector.",
		func() float64 { return float64(def.TracesResident()) })
}

// DefaultCollector returns the process-wide collector.
func DefaultCollector() *Collector { return def }

// Collect retains one finished span and forwards it to the sink, if
// attached.
func (c *Collector) Collect(rec Record) {
	c.mu.Lock()
	e := c.entryLocked(rec.TraceID)
	if len(e.spans) >= c.maxSpans {
		c.dropped++
		c.mu.Unlock()
		if c == def {
			mDropped.Inc()
		}
		return
	}
	e.spans = append(e.spans, rec)
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		_ = sink.Write(rec)
	}
}

// Tag stamps a tenant on a retained (or not-yet-seen) trace, so the
// /trace index and a tenant's scoped endpoints can tell whose operation
// each trace is. Tagging before the first span arrives is fine — the
// entry is created empty and the spans attach to it later.
//
// Trusted callers only: Tag overwrites any existing tag and
// materializes an entry in the bounded store, so it must never be fed a
// client-controlled trace ID (that would let one tenant take ownership
// of another's trace, or flood-evict retained traces). Ingress code
// must check TenantOf before continuing an inbound trace context.
func (c *Collector) Tag(traceID uint64, tenant string) {
	if traceID == 0 || tenant == "" {
		return
	}
	c.mu.Lock()
	c.entryLocked(traceID).tenant = tenant
	c.mu.Unlock()
}

// entryLocked returns the trace's entry, creating it — and evicting the
// oldest trace when the store is full — if it is new.
func (c *Collector) entryLocked(traceID uint64) *traceEntry {
	e, ok := c.traces[traceID]
	if !ok {
		if len(c.order) >= c.maxTraces {
			delete(c.traces, c.order[0])
			c.order = c.order[1:]
		}
		e = &traceEntry{}
		c.traces[traceID] = e
		c.order = append(c.order, traceID)
	}
	return e
}

// TenantOf returns the tenant tagged on a retained trace ("" when the
// trace is unknown or untagged).
func (c *Collector) TenantOf(traceID uint64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.traces[traceID]; ok {
		return e.tenant
	}
	return ""
}

// Tag stamps a tenant on a trace in the process-wide collector.
func Tag(traceID uint64, tenant string) { def.Tag(traceID, tenant) }

// TenantOf reports the tenant tagged on a trace in the process-wide
// collector.
func TenantOf(traceID uint64) string { return def.TenantOf(traceID) }

// Trace returns a trace's spans sorted by start time (ties broken by
// span ID, which is mint order), or nil when the trace is not retained.
func (c *Collector) Trace(traceID uint64) []Record {
	c.mu.Lock()
	e, ok := c.traces[traceID]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	out := append([]Record(nil), e.spans...)
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Start.Equal(out[k].Start) {
			return out[i].Start.Before(out[k].Start)
		}
		return out[i].SpanID < out[k].SpanID
	})
	return out
}

// TraceIDs returns the retained trace IDs, newest-first, with each
// trace's span count.
func (c *Collector) TraceIDs() []TraceInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceInfo, 0, len(c.order))
	for i := len(c.order) - 1; i >= 0; i-- {
		id := c.order[i]
		e := c.traces[id]
		out = append(out, TraceInfo{TraceID: id, Tenant: e.tenant, Spans: len(e.spans)})
	}
	return out
}

// TraceInfo is the /trace index listing of one retained trace.
type TraceInfo struct {
	TraceID uint64 `json:"trace_id"`
	Tenant  string `json:"tenant,omitempty"`
	Spans   int    `json:"spans"`
}

// Dropped reports spans refused because their trace hit the span bound.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// TracesResident reports how many traces the collector currently
// retains.
func (c *Collector) TracesResident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// SetSink attaches (or, with nil, detaches) the collector's export sink.
func (c *Collector) SetSink(s Sink) {
	c.mu.Lock()
	c.sink = s
	c.mu.Unlock()
}
