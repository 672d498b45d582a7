package obs

import (
	"testing"
	"time"
)

// The micro-benchmarks below bound the cost of each instrument in both
// modes; `make bench` runs them after the repo root's benchmarks, the
// end-to-end BenchmarkMediatedCall among them.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "h")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() == 0 {
		b.Fatal("counter never incremented")
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "h")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "h")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3 * time.Microsecond)
		}
	})
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "h")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3 * time.Microsecond)
		}
	})
}

// BenchmarkSampleDecision is the whole tracing cost of an unsampled
// call: the one decision hot paths take, from an ordinal the caller
// already counts, before measuring anything.
func BenchmarkSampleDecision(b *testing.B) {
	var measured uint64
	for i := 0; i < b.N; i++ {
		measured += NewSample(uint64(i) + 1).Measured()
	}
	sampleSink = measured
}

var sampleSink uint64

// BenchmarkHistogramObserveTraced is the satellite guard for the
// exemplar hot path: a traced observation inside the exemplar refresh
// window must cost one atomic load and a time comparison over a plain
// Observe — no allocation, no clock read.
func BenchmarkHistogramObserveTraced(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "h")
	start := time.Now()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveTraced(3*time.Microsecond, 1, start)
		}
	})
}
