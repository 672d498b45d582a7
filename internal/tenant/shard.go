package tenant

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The shard pool is the scheduling layer of tenancy: tenants are mapped
// to shards by consistent hashing (so a tenant's work always lands on
// the same shard, and changing the shard count moves only ~1/n of
// tenants), and inside each shard the backlogged tenants are served by
// weighted fair queuing over a virtual clock — a tenant with weight 2
// gets twice the service rate of a weight-1 neighbour while both are
// backlogged, and an idle tenant pays nothing.

// ErrPoolClosed reports a dispatch into a closed pool.
var ErrPoolClosed = errors.New("tenant: shard pool closed")

// ErrCallPanicked reports a call whose function panicked; the error
// carries the panic value.
var ErrCallPanicked = errors.New("tenant: call panicked")

// fnv64a hashes a tenant ID for shard placement.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// jumpHash is Lamping–Veach jump consistent hashing: maps key to a
// bucket in [0, buckets) such that growing the bucket count relocates
// only keys that move to the new buckets.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// waiter is one queued call: its arrival stamp, for residency, and the
// signal a finishing call sends when it hands over its slot. Pooled.
type waiter struct {
	enq  time.Time
	wake chan struct{}
}

var waiters = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// flow is one tenant's backlog within a shard. vt is the virtual finish
// time of the flow's head call; the shard's heap orders backlogged flows
// by it. Flows are created on first queued arrival and deleted when they
// drain, so the map is bounded by the number of *backlogged* tenants.
type flow struct {
	key    string
	weight float64
	vt     float64
	calls  []*waiter
}

// shard is one slot set's queue state: up to slots calls run at once,
// and the heap is non-empty only while all of them are held. The
// trailing counters are the shard's WFQ telemetry (all guarded by mu,
// which the dispatch path already holds where they are touched):
// cumulative arrivals and starts, total backlog-residency time, and an
// EWMA of recent residency so /tenants/shards shows "queue wait right
// now" rather than a lifetime average.
type shard struct {
	mu      sync.Mutex
	slots   int
	running int
	vtime   float64
	heap    []*flow
	flows   map[string]*flow
	depth   int // queued (not yet started) calls, for introspection
	closed  bool

	enqueued  uint64
	completed uint64
	waitNs    uint64
	ewmaNs    float64
}

// residencyAlpha is the EWMA smoothing factor for backlog residency.
const residencyAlpha = 0.125

// ShardPool runs tenant work on its callers' goroutines across a fixed
// set of shards, each with a bounded number of slots and its own
// weighted-fair queue. It starts no goroutines.
type ShardPool struct {
	shards []*shard
	wg     sync.WaitGroup // admitted calls, running or queued
}

// NewShardPool builds a pool of `shards` shards (min 1) running up to
// `slots` calls each at once (min 1).
func NewShardPool(shards, slots int) *ShardPool {
	if shards < 1 {
		shards = 1
	}
	if slots < 1 {
		slots = 1
	}
	p := &ShardPool{shards: make([]*shard, shards)}
	for i := range p.shards {
		p.shards[i] = &shard{slots: slots, flows: make(map[string]*flow)}
	}
	return p
}

// Shards returns the pool's shard count.
func (p *ShardPool) Shards() int { return len(p.shards) }

// ShardOf returns the shard a key consistently maps to.
func (p *ShardPool) ShardOf(key string) int { return jumpHash(fnv64a(key), len(p.shards)) }

// Depth returns one shard's queued-call count (not counting running
// calls) — the shard backlog gauge.
func (p *ShardPool) Depth(i int) int {
	if i < 0 || i >= len(p.shards) {
		return 0
	}
	sh := p.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.depth
}

// Run executes fn on the calling goroutine once the shard owning key
// grants it a slot, after weighted fair queuing against the shard's
// other backlogged flows. maxQueue > 0 bounds the flow's own backlog:
// arrival beyond it is refused with an error (the caller surfaces
// throttling) instead of queuing unboundedly. A panic in fn returns
// ErrCallPanicked.
func (p *ShardPool) Run(key string, weight float64, maxQueue int, fn func()) error {
	_, err := p.run(p.ShardOf(key), key, weight, maxQueue, time.Now(), func() error { fn(); return nil })
	return err
}

// run is Run for a caller that knows key's shard, stamped its arrival
// and has work that returns an error. admitted reports whether fn ran:
// err is then fn's own (or ErrCallPanicked), otherwise the refusal.
func (p *ShardPool) run(shard int, key string, weight float64, maxQueue int, arrive time.Time, fn func() error) (admitted bool, err error) {
	if weight <= 0 {
		weight = 1
	}
	sh := p.shards[shard]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false, ErrPoolClosed
	}
	f, ok := sh.flows[key]
	if ok && maxQueue > 0 && len(f.calls) >= maxQueue {
		sh.mu.Unlock()
		return false, fmt.Errorf("tenant: flow %s backlog at %d", key, maxQueue)
	}
	sh.enqueued++
	p.wg.Add(1)
	if len(sh.heap) == 0 && sh.running < sh.slots {
		// Work-conserving start: the clock advances as the dequeue of a
		// newly backlogged flow's only call would advance it.
		sh.running++
		sh.vtime += 1 / weight
		sh.started(time.Since(arrive))
		sh.mu.Unlock()
		return true, p.call(sh, fn)
	}
	if !ok {
		// Newly backlogged: its head call finishes 1/weight virtual time
		// after now.
		f = &flow{key: key, vt: sh.vtime + 1/weight}
		sh.flows[key] = f
		sh.heapPush(f)
	}
	f.weight = weight
	w := waiters.Get().(*waiter)
	w.enq = arrive
	f.calls = append(f.calls, w)
	sh.depth++
	sh.mu.Unlock()
	<-w.wake
	waiters.Put(w)
	return true, p.call(sh, fn)
}

// call runs fn in a slot of sh and releases the slot however fn ends.
func (p *ShardPool) call(sh *shard, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrCallPanicked, r)
		}
		sh.release()
		p.wg.Done()
	}()
	return fn()
}

// release hands a finished call's slot to the head call of the flow
// with the lowest virtual finish time, or frees it when none is queued.
func (sh *shard) release() {
	sh.mu.Lock()
	if len(sh.heap) == 0 {
		sh.running--
		sh.mu.Unlock()
		return
	}
	f := sh.heap[0]
	w := f.calls[0]
	f.calls[0] = nil
	f.calls = f.calls[1:]
	sh.depth--
	sh.vtime = f.vt
	sh.started(time.Since(w.enq))
	if len(f.calls) > 0 {
		f.vt += 1 / f.weight
		sh.heapDown()
	} else {
		sh.heapPop()
		delete(sh.flows, f.key)
	}
	sh.mu.Unlock()
	w.wake <- struct{}{}
}

// started accounts one call's start after wait in the backlog.
func (sh *shard) started(wait time.Duration) {
	sh.completed++
	sh.waitNs += uint64(wait)
	sh.ewmaNs += (float64(wait) - sh.ewmaNs) * residencyAlpha
}

// Close refuses new calls and returns once every admitted call, running
// or queued, has finished.
func (p *ShardPool) Close() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	p.wg.Wait()
}

// ---------------------------------------------------------------------------
// WFQ telemetry

// ShardStat is one shard's live scheduling state, the /tenants/shards
// introspection unit.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Depth is the queued-not-yet-started call count right now.
	Depth int `json:"depth"`
	// BackloggedFlows is how many tenants currently hold a backlog here.
	BackloggedFlows int `json:"backlogged_flows"`
	// Enqueued and Completed are cumulative call counts.
	Enqueued  uint64 `json:"enqueued"`
	Completed uint64 `json:"completed"`
	// VirtualTime is the shard's WFQ clock.
	VirtualTime float64 `json:"virtual_time"`
	// VirtualTimeLag is the spread between the furthest backlogged
	// flow's head finish time and the shard clock — how far the fair
	// scheduler is running behind its most-delayed tenant. 0 when idle.
	VirtualTimeLag float64 `json:"virtual_time_lag"`
	// ResidencyEWMAMicros is the smoothed backlog residency (arrival →
	// start) of recent calls, in microseconds; ≈ 0 for a call that finds
	// a free slot.
	ResidencyEWMAMicros float64 `json:"residency_ewma_us"`
	// ResidencyAvgMicros is the lifetime average backlog residency, in
	// microseconds.
	ResidencyAvgMicros float64 `json:"residency_avg_us"`
}

// ShardStats snapshots every shard's scheduling state.
func (p *ShardPool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		st := ShardStat{
			Shard:               i,
			Depth:               sh.depth,
			BackloggedFlows:     len(sh.flows),
			Enqueued:            sh.enqueued,
			Completed:           sh.completed,
			VirtualTime:         sh.vtime,
			ResidencyEWMAMicros: sh.ewmaNs / 1e3,
		}
		for _, f := range sh.heap {
			if lag := f.vt - sh.vtime; lag > st.VirtualTimeLag {
				st.VirtualTimeLag = lag
			}
		}
		if sh.completed > 0 {
			st.ResidencyAvgMicros = float64(sh.waitNs) / float64(sh.completed) / 1e3
		}
		sh.mu.Unlock()
		out[i] = st
	}
	return out
}

// Imbalance gauges how unevenly the consistent hash spread load across
// shards, over cumulative arrivals: max/mean − 1, so 0 is perfectly
// even and 1 means the hottest shard saw twice the mean. 0 before any
// work arrives.
func (p *ShardPool) Imbalance() float64 {
	var max, sum uint64
	for _, sh := range p.shards {
		sh.mu.Lock()
		e := sh.enqueued
		sh.mu.Unlock()
		sum += e
		if e > max {
			max = e
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(p.shards))
	return float64(max)/mean - 1
}

// ---------------------------------------------------------------------------
// Min-heap of flows by virtual finish time, hand-rolled over the shard's
// slice to keep container/heap's interface indirection off the dispatch
// hot path. Only the root is ever removed or re-keyed, and its key only
// grows, so a sift-down restores order.

func (sh *shard) heapPush(f *flow) {
	sh.heap = append(sh.heap, f)
	for i := len(sh.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if sh.heap[parent].vt <= sh.heap[i].vt {
			break
		}
		sh.heap[parent], sh.heap[i] = sh.heap[i], sh.heap[parent]
		i = parent
	}
}

func (sh *shard) heapPop() {
	last := len(sh.heap) - 1
	sh.heap[0] = sh.heap[last]
	sh.heap[last] = nil
	sh.heap = sh.heap[:last]
	sh.heapDown()
}

func (sh *shard) heapDown() {
	n := len(sh.heap)
	for i := 0; ; {
		left, small := 2*i+1, i
		if left < n && sh.heap[left].vt < sh.heap[small].vt {
			small = left
		}
		if right := left + 1; right < n && sh.heap[right].vt < sh.heap[small].vt {
			small = right
		}
		if small == i {
			return
		}
		sh.heap[i], sh.heap[small] = sh.heap[small], sh.heap[i]
		i = small
	}
}
