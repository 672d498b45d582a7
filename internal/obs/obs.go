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
// striped across cache-line-padded shards (per-CPU-ish striping keyed off
// the caller's goroutine stack), histograms use fixed exponential bucket
// bounds compared as integer nanoseconds, and clock reads are sampled. A
// single process-wide switch
// (SetEnabled(false)) turns every instrument into a near-free no-op; the
// `make bench` target compares the two modes to bound the overhead.
//
// obs deliberately imports nothing from the rest of the repo: every other
// layer (internal/controller, internal/permengine, internal/isolation,
// internal/faults) imports obs, never the reverse.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
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
// capped at 64) so concurrent writers on different Ps rarely collide on a
// cache line.
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

// StackHash is the stripe hint of every sharded structure in the repo.
// Go exposes no goroutine or CPU id, so the hint is the address of a
// stack variable: distinct goroutines live on distinct stacks, and a
// fibonacci-style multiply spreads the entropy into the high bits, which
// is where callers take their shard index from (shift, then mask). The
// same goroutine keeps hitting the same shard (good locality); different
// goroutines spread out.
func StackHash() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)))
	h ^= h >> 12
	return h * 0x9e3779b97f4a7c15
}

// shardIndex picks the caller's stripe of an obs instrument.
func shardIndex() uint64 { return (StackHash() >> 56) & shardMask }

// ---------------------------------------------------------------------------
// Timers

// Timer captures a start timestamp only when instrumentation is enabled,
// so disabled mode skips the clock reads entirely.
type Timer struct{ start time.Time }

// StartTimer begins a latency measurement; the zero Timer (returned when
// obs is disabled) makes every subsequent observation a no-op.
func StartTimer() Timer {
	if !On() {
		return Timer{}
	}
	return Timer{start: time.Now()}
}

// ---------------------------------------------------------------------------
// Latency sampling

// latEvery is the process-wide 1-in-N rate for hot-path latency
// measurements. Counters stay exact on every call; clock reads and
// histogram observations — the expensive part of instrumenting a
// sub-microsecond path — are taken for one call in N. The default of 8
// keeps histograms statistically dense while holding the per-call cost to
// a single atomic add for the unsampled majority.
var latEvery atomic.Int64

// SetLatencySampling sets the 1-in-N latency sampling rate; n <= 1
// measures every call (tests use this to make histogram counts exact).
// Returns the previous rate.
func SetLatencySampling(n int) int {
	return int(latEvery.Swap(int64(n)))
}

// LatencySampling returns the current 1-in-N latency sampling rate.
// Accounting built on sampled measurements scales them back to full
// rate with it.
func LatencySampling() int { return int(latEvery.Load()) }

// Sampler is a per-call-site tick counter deciding which calls get their
// latency measured. The zero value is ready to use.
type Sampler struct{ n atomic.Uint64 }

// Hit reports whether this call should be measured: false while
// instrumentation is disabled, one call in SetLatencySampling's N
// otherwise. Cost on the unsampled path is one atomic add.
func (s *Sampler) Hit() bool { return s.Tick() != 0 }

// Tick is Hit that also numbers the measured calls: 0 for a call that is
// not measured, otherwise the call's 1-based position among the calls
// this sampler has measured. A site that keeps more for a fraction of
// its measured calls (isolation traces every 16th) cuts that fraction
// from the position and needs no second counter.
func (s *Sampler) Tick() uint64 {
	if !enabled.Load() {
		return 0
	}
	every := uint64(max(latEvery.Load(), 1))
	if n := s.n.Add(1); n%every == 0 {
		return n / every
	}
	return 0
}
