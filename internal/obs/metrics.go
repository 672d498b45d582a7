package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing sharded counter. Increments are
// single atomic adds on a cache-line-padded stripe; reads merge the
// stripes. The zero value is not usable — obtain counters from a
// Registry.
type Counter struct {
	shards []pad64
}

func newCounter() *Counter { return &Counter{shards: make([]pad64, nShards)} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op while instrumentation is disabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Value merges the stripes into the counter's total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is an instantaneous value (queue depth, session count). Unlike
// counters it is a single atomic cell: gauges are written far less often
// than hot-path counters, and Set semantics do not stripe.
type Gauge struct {
	v atomic.Int64
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ---------------------------------------------------------------------------
// Histogram

// defBoundsNanos are the default latency bucket upper bounds: exponential
// from 1µs to ~4.2s (1µs·2^22), which brackets everything from a bare
// permission check to a timed-out switch request. Stored as integer
// nanoseconds so the hot-path bucket search is integer compares.
var defBoundsNanos = func() []int64 {
	bounds := make([]int64, 23)
	b := int64(1000) // 1µs
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// Exemplar links a histogram bucket to a concrete trace that landed in
// it, so a slow bucket on the dashboard leads straight to the call-path
// breakdown that produced it: TraceID is the decimal trace ID, the one
// /trace/<id> and /audit?corr=<id> take. Time is the trace's start
// timestamp — the hot path never reads the clock just to stamp an
// exemplar.
type Exemplar struct {
	TraceID string        `json:"trace_id"`
	Value   time.Duration `json:"value"`
	Time    time.Time     `json:"time"`
}

// exemplarMinAge rate-limits exemplar replacement per bucket. Exemplars
// exist for a human reading a scrape, so refreshing more than a few
// times a second is waste: inside the window a traced observation costs
// one atomic load and a time comparison — no allocation, no clock read.
const exemplarMinAge = 250 * time.Millisecond

// hshard is one stripe of a histogram: per-bucket counts plus the sum of
// observed nanoseconds.
type hshard struct {
	counts   []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumNanos atomic.Int64
	_        [48]byte
}

// Histogram is a fixed-bucket latency histogram with sharded buckets and
// per-bucket exemplars. Observation cost is one bucket search (integer
// compares) plus two atomic adds on the caller's stripe.
type Histogram struct {
	boundsNanos []int64
	shards      []hshard
	exemplars   []atomic.Pointer[Exemplar] // len(bounds)+1, registry-level
}

func newHistogram() *Histogram {
	h := &Histogram{
		boundsNanos: defBoundsNanos,
		shards:      make([]hshard, nShards),
		exemplars:   make([]atomic.Pointer[Exemplar], len(defBoundsNanos)+1),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(defBoundsNanos)+1)
	}
	return h
}

// bucketIndex finds the first bound >= ns. Latencies on the mediated call
// path land in the low microsecond buckets, so a forward scan terminates
// after a handful of compares.
func (h *Histogram) bucketIndex(ns int64) int {
	for i, b := range h.boundsNanos {
		if ns <= b {
			return i
		}
	}
	return len(h.boundsNanos)
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveTraced(d, 0, time.Time{})
}

// ObserveTimer records the elapsed time of an active timer; inactive
// timers (obs disabled at StartTimer time) are ignored.
func (h *Histogram) ObserveTimer(t Timer) {
	if h == nil || t.start.IsZero() {
		return
	}
	h.ObserveTraced(time.Since(t.start), 0, time.Time{})
}

// ObserveTraced records one latency and, when the observation belongs to
// a trace (traceID != 0, started at start), publishes the trace as the
// bucket's exemplar. The trace ID is the one /trace/<id> serves.
func (h *Histogram) ObserveTraced(d time.Duration, traceID uint64, start time.Time) {
	if h == nil || !enabled.Load() {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := h.bucketIndex(ns)
	sh := &h.shards[shardIndex()]
	sh.counts[idx].Add(1)
	sh.sumNanos.Add(ns)
	if traceID != 0 {
		h.updateExemplar(idx, d, traceID, start)
	}
}

// updateExemplar publishes the trace as bucket idx's exemplar unless the
// current exemplar is still fresh. The timestamp is the trace's start
// time, already captured when the call was sampled, so the steady
// state inside exemplarMinAge does no allocation and no clock read.
// The CompareAndSwap means a lost race simply keeps the racer's equally
// fresh exemplar.
func (h *Histogram) updateExemplar(idx int, d time.Duration, traceID uint64, start time.Time) {
	cur := h.exemplars[idx].Load()
	if cur != nil && start.Sub(cur.Time) < exemplarMinAge {
		return
	}
	h.exemplars[idx].CompareAndSwap(cur, &Exemplar{TraceID: strconv.FormatUint(traceID, 10), Value: d, Time: start})
}

// HistogramBucket is one merged bucket of a histogram snapshot.
type HistogramBucket struct {
	// LE is the bucket's inclusive upper bound in seconds; +Inf for the
	// overflow bucket.
	LE float64 `json:"le"`
	// Count is the cumulative number of observations <= LE.
	Count uint64 `json:"count"`
	// Exemplar, when present, names a sampled trace that landed in this
	// bucket (non-cumulative).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the overflow bucket's bound as the string "+Inf"
// (the Prometheus text convention): encoding/json rejects non-finite
// numbers, and diagnostic bundles serialize snapshots as JSON.
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	type bucket struct {
		LE       interface{} `json:"le"`
		Count    uint64      `json:"count"`
		Exemplar *Exemplar   `json:"exemplar,omitempty"`
	}
	out := bucket{LE: b.LE, Count: b.Count, Exemplar: b.Exemplar}
	if math.IsInf(b.LE, 0) || math.IsNaN(b.LE) {
		out.LE = "+Inf"
	}
	return json.Marshal(out)
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string.
func (b *HistogramBucket) UnmarshalJSON(data []byte) error {
	var in struct {
		LE       json.RawMessage `json:"le"`
		Count    uint64          `json:"count"`
		Exemplar *Exemplar       `json:"exemplar,omitempty"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	b.Count, b.Exemplar = in.Count, in.Exemplar
	var f float64
	if err := json.Unmarshal(in.LE, &f); err == nil {
		b.LE = f
		return nil
	}
	var s string
	if err := json.Unmarshal(in.LE, &s); err != nil {
		return err
	}
	b.LE = math.Inf(1)
	return nil
}

// HistogramSnapshot is a merged, point-in-time view of a histogram.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets"`
	Sum     float64           `json:"sum_seconds"`
	Count   uint64            `json:"count"`
}

// Snapshot merges the stripes into cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	nb := len(h.boundsNanos) + 1
	counts := make([]uint64, nb)
	var sumNanos int64
	for i := range h.shards {
		sh := &h.shards[i]
		for j := 0; j < nb; j++ {
			counts[j] += sh.counts[j].Load()
		}
		sumNanos += sh.sumNanos.Load()
	}
	snap := HistogramSnapshot{Buckets: make([]HistogramBucket, nb)}
	var cum uint64
	for j := 0; j < nb; j++ {
		cum += counts[j]
		le := math.Inf(1)
		if j < len(h.boundsNanos) {
			le = float64(h.boundsNanos[j]) / 1e9
		}
		snap.Buckets[j] = HistogramBucket{LE: le, Count: cum, Exemplar: h.exemplars[j].Load()}
	}
	snap.Count = cum
	snap.Sum = float64(sumNanos) / 1e9
	return snap
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var cum uint64
	for i := range h.shards {
		sh := &h.shards[i]
		for j := range sh.counts {
			cum += sh.counts[j].Load()
		}
	}
	return cum
}
