package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterMergesShards(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter value = %d, want 8000", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", "app", "fw", "op", "insert")
	b := r.Counter("x_total", "h", "op", "insert", "app", "fw") // label order must not matter
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", "h", "app", "other", "op", "insert")
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "h")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h")
	h.Observe(500 * time.Nanosecond) // below first bound -> bucket 0
	h.Observe(time.Microsecond)      // == first bound -> bucket 0
	h.Observe(3 * time.Microsecond)  // bucket le=4µs
	h.Observe(time.Hour)             // +Inf bucket
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.Buckets[0].Count != 2 {
		t.Fatalf("bucket[0] cumulative = %d, want 2", snap.Buckets[0].Count)
	}
	// le=2µs holds the same two; le=4µs adds the 3µs observation.
	if snap.Buckets[1].Count != 2 || snap.Buckets[2].Count != 3 {
		t.Fatalf("buckets[1,2] = %d,%d, want 2,3", snap.Buckets[1].Count, snap.Buckets[2].Count)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.Count != 4 {
		t.Fatalf("+Inf cumulative = %d, want 4", last.Count)
	}
	wantSum := (500*time.Nanosecond + time.Microsecond + 3*time.Microsecond + time.Hour).Seconds()
	if snap.Sum < wantSum*0.999 || snap.Sum > wantSum*1.001 {
		t.Fatalf("sum = %v, want ~%v", snap.Sum, wantSum)
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h")
	h.ObserveTraced(3*time.Microsecond, 42, time.Now())
	h.ObserveTraced(100*time.Microsecond, 0, time.Now()) // no trace, no exemplar
	snap := h.Snapshot()
	ex := snap.Buckets[2].Exemplar // le=4µs bucket
	if ex == nil || ex.TraceID != "42" {
		t.Fatalf("exemplar = %+v, want trace 42", ex)
	}
	for i, b := range snap.Buckets {
		if i != 2 && b.Exemplar != nil {
			t.Fatalf("bucket %d carries exemplar %+v of an untraced observation", i, b.Exemplar)
		}
	}
}

// TestSamplerTickNumbersMeasuredCalls pins what a site that keeps more
// for a fraction of its measured calls relies on: one call in N is
// measured, and the measured calls are numbered consecutively.
func TestSamplerTickNumbersMeasuredCalls(t *testing.T) {
	for _, every := range []int{1, 4} {
		prev := SetLatencySampling(every)
		var s Sampler
		var got []uint64
		for i := 0; i < 8*every; i++ {
			if n := s.Tick(); n != 0 {
				got = append(got, n)
			}
		}
		SetLatencySampling(prev)
		if len(got) != 8 {
			t.Fatalf("sampling %d: %d of %d calls measured, want 8", every, len(got), 8*every)
		}
		for i, n := range got {
			if n != uint64(i+1) {
				t.Fatalf("sampling %d: measured calls numbered %v, want 1..8", every, got)
			}
		}
	}
}

func TestDisabledInstrumentsAreNoops(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	h := r.Histogram("h_seconds", "h")
	g := r.Gauge("g", "h")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c.Inc()
	h.Observe(time.Millisecond)
	g.Set(9)
	tm := StartTimer()
	if tm != (Timer{}) {
		t.Fatal("timer started while disabled")
	}
	h.ObserveTimer(tm)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Fatalf("disabled instruments recorded: c=%d h=%d g=%d", c.Value(), h.Count(), g.Value())
	}
	var s Sampler
	if s.Hit() || s.Tick() != 0 {
		t.Fatal("sampler measured a call while disabled")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sdnshield_checks_total", "Total checks.", "decision", "allow").Add(3)
	r.Counter("sdnshield_checks_total", "Total checks.", "decision", "deny").Add(1)
	r.Gauge("sdnshield_sessions", "Sessions.").Set(2)
	r.GaugeFunc("sdnshield_pull", "Pulled.", func() float64 { return 1.5 })
	r.Histogram("sdnshield_lat_seconds", "Latency.").Observe(3 * time.Microsecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sdnshield_checks_total counter",
		`sdnshield_checks_total{decision="allow"} 3`,
		`sdnshield_checks_total{decision="deny"} 1`,
		"sdnshield_sessions 2",
		"sdnshield_pull 1.5",
		`sdnshield_lat_seconds_bucket{le="+Inf"} 1`,
		"sdnshield_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTotalOf(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "h", "kind", "a").Add(2)
	r.Counter("t_total", "h", "kind", "b").Add(5)
	r.Histogram("t_seconds", "h").Observe(time.Microsecond)
	if got := r.TotalOf("t_total"); got != 7 {
		t.Fatalf("TotalOf counter = %v, want 7", got)
	}
	if got := r.TotalOf("t_seconds"); got != 1 {
		t.Fatalf("TotalOf histogram = %v, want 1", got)
	}
	if got := r.TotalOfLabeled("t_total", "kind", "b"); got != 5 {
		t.Fatalf("TotalOfLabeled = %v, want 5", got)
	}
	if got := r.TotalOf("missing"); got != 0 {
		t.Fatalf("TotalOf missing = %v, want 0", got)
	}
}

func TestConcurrentRegistryAndScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("conc_total", "h", "g", string(rune('a'+g)))
			h := r.Histogram("conc_seconds", "h")
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				_ = r.WritePrometheus(&b)
				_ = r.Snapshot()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r.Counter("conc_total", "h", "g", string(rune('a'+g))).Add(1)
		}(g)
	}
	// Wait for the writers, then stop the scraper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		if r.TotalOf("conc_total") >= 4*501 {
			break
		}
		if i > 1000 {
			t.Fatal("writers never finished")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := r.TotalOf("conc_total"); got != 4*501 {
		t.Fatalf("TotalOf = %v, want %d", got, 4*501)
	}
}

func TestMetricKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "h")
}

func TestExemplarPublishAndRefreshGate(t *testing.T) {
	h := NewRegistry().Histogram("exemplar_seconds", "h")
	base := time.Now()
	h.ObserveTraced(2*time.Microsecond, 1, base)

	bucketExemplar := func() *Exemplar {
		for _, b := range h.Snapshot().Buckets {
			if b.Exemplar != nil {
				return b.Exemplar
			}
		}
		return nil
	}
	ex := bucketExemplar()
	if ex == nil || ex.TraceID != "1" {
		t.Fatalf("exemplar = %+v, want trace 1", ex)
	}
	if !ex.Time.Equal(base) {
		t.Errorf("exemplar time = %v, want the trace start %v", ex.Time, base)
	}

	// A trace starting inside the refresh window must not replace it.
	h.ObserveTraced(2*time.Microsecond, 2, base.Add(exemplarMinAge/2))
	if ex = bucketExemplar(); ex == nil || ex.TraceID != "1" {
		t.Fatalf("fresh exemplar was replaced: %+v", ex)
	}

	// One starting after the window replaces it.
	h.ObserveTraced(2*time.Microsecond, 3, base.Add(2*exemplarMinAge))
	if ex = bucketExemplar(); ex == nil || ex.TraceID != "3" {
		t.Fatalf("stale exemplar not replaced: %+v", ex)
	}
}

func TestExemplarSteadyStateDoesNotAllocate(t *testing.T) {
	h := NewRegistry().Histogram("exemplar_alloc_seconds", "h")
	start := time.Now()
	h.ObserveTraced(2*time.Microsecond, 7, start) // prime the exemplar
	allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveTraced(2*time.Microsecond, 7, start)
	})
	if allocs != 0 {
		t.Fatalf("traced observation allocates %v per call in steady state", allocs)
	}
}
