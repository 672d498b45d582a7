package tenant

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or a generous deadline passes.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardStatsReconcile: after a drained workload, every shard's
// cumulative counters reconcile with the calls driven through it and
// the live gauges read idle.
func TestShardStatsReconcile(t *testing.T) {
	pool := NewShardPool(4, 2)
	defer pool.Close()

	const tenants, perTenant = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perTenant; j++ {
				if err := pool.Run(key, 1, 0, func() {}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	stats := pool.ShardStats()
	if len(stats) != pool.Shards() {
		t.Fatalf("ShardStats returned %d entries for %d shards", len(stats), pool.Shards())
	}
	var enq, done uint64
	for _, st := range stats {
		if st.Shard < 0 || st.Shard >= pool.Shards() {
			t.Fatalf("stat carries shard index %d", st.Shard)
		}
		if st.Depth != 0 || st.BackloggedFlows != 0 || st.VirtualTimeLag != 0 {
			t.Fatalf("drained shard still shows backlog: %+v", st)
		}
		if st.Enqueued != st.Completed {
			t.Fatalf("shard %d enqueued %d != completed %d after drain", st.Shard, st.Enqueued, st.Completed)
		}
		if st.Completed > 0 {
			if st.ResidencyAvgMicros <= 0 {
				t.Fatalf("shard %d served %d calls with zero average residency", st.Shard, st.Completed)
			}
			if st.VirtualTime <= 0 {
				t.Fatalf("shard %d served calls without advancing its WFQ clock", st.Shard)
			}
		}
		enq += st.Enqueued
		done += st.Completed
	}
	if want := uint64(tenants * perTenant); enq != want || done != want {
		t.Fatalf("pool totals enqueued=%d completed=%d, want %d", enq, done, want)
	}
	if im := pool.Imbalance(); im < 0 {
		t.Fatalf("imbalance = %v, want >= 0", im)
	}
}

// TestShardStatsBacklogged: with the single worker plugged, the stats
// expose live depth, backlogged flow count, and a positive virtual-time
// lag for the flows still waiting.
func TestShardStatsBacklogged(t *testing.T) {
	pool := NewShardPool(1, 1)
	defer pool.Close()

	plugGate := make(chan struct{})
	plugRunning := make(chan struct{})
	go pool.Run("plug", 1, 0, func() { close(plugRunning); <-plugGate })
	<-plugRunning

	var wg sync.WaitGroup
	const backlog = 3
	for i := 0; i < backlog; i++ {
		key := fmt.Sprintf("waiter-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Run(key, 1, 0, func() {})
		}()
	}
	// Wait until every waiter is queued behind the plug.
	waitUntil(t, func() bool { return pool.Depth(0) == backlog })

	st := pool.ShardStats()[0]
	if st.Depth != backlog {
		t.Fatalf("depth = %d, want %d", st.Depth, backlog)
	}
	if st.BackloggedFlows != backlog {
		t.Fatalf("backlogged flows = %d, want %d", st.BackloggedFlows, backlog)
	}
	if st.VirtualTimeLag <= 0 {
		t.Fatalf("virtual time lag = %v with %d flows waiting", st.VirtualTimeLag, backlog)
	}
	if st.Enqueued != backlog+1 || st.Completed != 1 {
		t.Fatalf("enqueued/completed = %d/%d, want %d/1", st.Enqueued, st.Completed, backlog+1)
	}

	close(plugGate)
	wg.Wait()
}

// TestShardPoolImbalance: an empty pool reads perfectly even; a single
// hot key on a multi-shard pool reads maximally skewed (max/mean - 1 =
// shards - 1).
func TestShardPoolImbalance(t *testing.T) {
	pool := NewShardPool(4, 1)
	defer pool.Close()
	if im := pool.Imbalance(); im != 0 {
		t.Fatalf("idle imbalance = %v, want 0", im)
	}
	for i := 0; i < 10; i++ {
		if err := pool.Run("hot", 1, 0, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if im := pool.Imbalance(); im != 3 {
		t.Fatalf("single-key imbalance on 4 shards = %v, want 3", im)
	}
}

// TestShardPoolSlotBound: callers on mixed keys never hold more than
// the shard's slots at once, and every call is counted in and out.
func TestShardPoolSlotBound(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			pool := NewShardPool(1, slots)
			defer pool.Close()

			const callers, perCaller = 16, 200
			keys := []string{"a", "b", "c", "d", "e"}
			var inFlight, high atomic.Int64
			body := func() {
				n := inFlight.Add(1)
				for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
				}
				runtime.Gosched()
				inFlight.Add(-1)
			}
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < perCaller; j++ {
						if err := pool.Run(keys[(i+j)%len(keys)], float64(1+j%3), 0, body); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()

			if h := high.Load(); h < 1 || h > int64(slots) {
				t.Fatalf("in-flight high-water mark = %d, want 1..%d", h, slots)
			}
			st := pool.ShardStats()[0]
			if want := uint64(callers * perCaller); st.Enqueued != want || st.Completed != want {
				t.Fatalf("enqueued/completed = %d/%d, want %d/%d", st.Enqueued, st.Completed, want, want)
			}
		})
	}
}

// TestShardPoolCloseWaitsForAdmitted: the pool starts no goroutine, and
// Close refuses new calls at once but returns only after a running call
// and a call queued behind it have both finished.
func TestShardPoolCloseWaitsForAdmitted(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewShardPool(16, 8)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewShardPool started %d goroutines", n-before)
	}
	pool.Close()

	pool = NewShardPool(1, 1)
	gate := make(chan struct{})
	running := make(chan struct{})
	var finished atomic.Int32
	results := make(chan error, 2)
	go func() {
		results <- pool.Run("running", 1, 0, func() { close(running); <-gate; finished.Add(1) })
	}()
	<-running
	go func() { results <- pool.Run("queued", 1, 0, func() { finished.Add(1) }) }()
	waitUntil(t, func() bool { return pool.Depth(0) == 1 })

	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()
	sh := pool.shards[0]
	waitUntil(t, func() bool { sh.mu.Lock(); defer sh.mu.Unlock(); return sh.closed })
	if err := pool.Run("late", 1, 0, func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run while closing err = %v, want ErrPoolClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a call was still running")
	default:
	}

	close(gate)
	<-closed
	if n := finished.Load(); n != 2 {
		t.Fatalf("Close returned after %d of 2 admitted calls finished", n)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted call err = %v", err)
		}
	}
	if err := pool.Run("late", 1, 0, func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close err = %v, want ErrPoolClosed", err)
	}
}
