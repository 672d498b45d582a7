// Package obs is the SDNShield telemetry subsystem: a dependency-free,
// sharded metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms built for the per-call hot path), the sampling
// decision the hot paths share, a rotating JSONL file sink, and an HTTP
// introspection endpoint serving Prometheus text exposition, JSON
// snapshots, per-app health and pprof. Tracing lives in obs/span.
//
// The paper's evaluation (§IX, Figures 5–8) is entirely about overhead on
// the mediated call path, so the instrumentation is designed to be cheap
// enough to leave on in production: increments are lock-free atomic adds
// striped across cache-line-padded shards (one per P, Go's per-CPU
// scheduler slot: Stripe), histograms use fixed exponential bucket
// bounds compared as integer nanoseconds, and clock reads are sampled. A
// single process-wide switch
// (SetEnabled(false)) turns every instrument into a near-free no-op; the
// ledger's obs.call_overhead_ratio is the mediated call with every
// instrument on over the call with all of them off.
//
// obs deliberately imports nothing from the rest of the repo: every other
// layer (internal/controller, internal/permengine, internal/isolation,
// internal/faults) imports obs, never the reverse.
package obs

import (
	"runtime"
	"sync/atomic"
)

// enabled gates every instrument. Default on: the whole point of the
// subsystem is that it is cheap enough to keep running.
var enabled atomic.Bool

func init() {
	enabled.Store(true)
	latEvery.Store(8)
}

// On reports whether instrumentation is live. Hot paths that need a
// timestamp should guard their time.Now() calls with it so the disabled
// mode really is free.
func On() bool { return enabled.Load() }

// SetEnabled flips the process-wide instrumentation switch and returns
// the previous state. Disabling does not reset any values; it only stops
// new observations.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// ---------------------------------------------------------------------------
// Sharding

// nShards is the number of stripes every sharded instrument carries,
// sized to the machine's parallelism (rounded up to a power of two,
// capped at 64) so each P writes a cache line of its own.
var (
	nShards   = shardCount()
	shardMask = uint64(nShards - 1)
)

func shardCount() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n {
		p <<= 1
	}
	if p > 64 {
		p = 64
	}
	return p
}

// pad64 is one cache-line-padded atomic counter cell. 64-byte padding
// keeps adjacent shards out of each other's cache lines (false sharing is
// exactly the contention the striping exists to avoid).
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIndex picks the caller's stripe of an obs instrument: its P's.
func shardIndex() uint64 { return uint64(Stripe()) & shardMask }

// ---------------------------------------------------------------------------
// Latency sampling

// latEvery is the process-wide 1-in-N rate for hot-path latency
// measurements. Counters stay exact on every call; clock reads and
// histogram observations — the expensive part of instrumenting a
// sub-microsecond path — are taken for one call in N. The default of 8
// keeps histograms statistically dense while the unsampled majority reads
// no clock. A call reads it once, when it is numbered (NewSample), and
// accounting scales its measurement by the N it carries.
var latEvery atomic.Int64

// SetLatencySampling sets the 1-in-N latency sampling rate; n <= 1
// measures every call (tests use this to make histogram counts exact).
// Returns the previous rate.
func SetLatencySampling(n int) int {
	return int(latEvery.Swap(int64(n)))
}

// Sample is a call's one sampling decision: its 1-based ordinal N among
// the calls of whoever numbered it (a mediated call's app), and the
// latency sampling period Every in force when it was numbered, 0 while
// instrumentation was off. Every sampled instrument cuts its share from
// N at a rate it keeps beside itself, so one count decides them all and
// the decision travels with the call. The zero Sample, a call nobody
// numbered, falls in no cut.
type Sample struct {
	N, Every uint64
}

// NewSample is the decision for the call numbered n.
func NewSample(n uint64) Sample {
	if !enabled.Load() {
		return Sample{N: n}
	}
	return Sample{N: n, Every: uint64(max(latEvery.Load(), 1))}
}

// Measured numbers the measured calls: 0 for a call whose latency is not
// measured, otherwise its 1-based position among the measured calls. A
// site that keeps more for a fraction of its measured calls (isolation
// traces every 16th) cuts that fraction from the position.
func (s Sample) Measured() uint64 {
	if s.Every == 0 || s.N%s.Every != 0 {
		return 0
	}
	return s.N / s.Every
}

// OneIn reports whether the call is the first of its block of k, the cut
// a side instrument takes (the heat walk, the allocation bracket). The
// measured calls end their blocks, so at the default period no measured
// latency carries a side instrument's cost. It does not look at Every:
// whether a side instrument follows the obs switch is its own decision.
func (s Sample) OneIn(k uint64) bool { return s.N != 0 && (s.N-1)%k == 0 }
