package audit

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/obs"
)

// Journal drop/emit accounting in the process-wide telemetry registry,
// alongside each journal's own exact counters.
var (
	mEmitted = obs.Default().Counter("sdnshield_audit_events_total",
		"Audit events accepted into the journal.")
	mDropped = obs.Default().Counter("sdnshield_audit_dropped_events_total",
		"Audit events dropped because a journal shard was full (backpressure).")
)

// JournalConfig tunes a Journal. Zero values select defaults.
type JournalConfig struct {
	// Shards is the number of producer-side buffers (rounded up to a
	// power of two). Default: GOMAXPROCS rounded up, capped at 8.
	Shards int
	// ShardBuffer is each shard's capacity in events; a full shard drops
	// (and counts) instead of blocking the producer. Default 1024.
	ShardBuffer int
	// History is the drained, queryable ring's capacity. Default 8192.
	History int
}

func (c *JournalConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < c.Shards {
		p <<= 1
	}
	if p > 8 {
		p = 8
	}
	c.Shards = p
	if c.ShardBuffer <= 0 {
		c.ShardBuffer = 1024
	}
	if c.History <= 0 {
		c.History = 8192
	}
}

// jshard is one producer-side buffer. The trailing pad keeps adjacent
// shards' mutexes out of each other's cache lines.
type jshard struct {
	mu  sync.Mutex
	buf []Event
	n   int
	_   [40]byte
}

// Journal is a bounded MPSC event pipeline: many producers Emit into
// striped buffers without ever blocking; one drain goroutine merges them
// in sequence order into a queryable history ring and feeds consumers.
type Journal struct {
	cfg     JournalConfig
	enabled atomic.Bool
	seq     atomic.Uint64
	mask    uint64
	shards  []jshard

	emitted atomic.Uint64
	drops   atomic.Uint64

	notify  chan struct{}
	flushCh chan chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	started atomic.Bool
	stopped atomic.Bool

	// drainMu serializes drain sweeps between the drain goroutine and
	// DrainNow/Flush on a stopped or never-started journal.
	drainMu sync.Mutex
	scratch []Event

	hmu     sync.Mutex
	history []Event // ring
	hNext   int
	hLen    int
	wake    chan struct{} // closed and replaced on every publish

	cmu       sync.Mutex
	consumers []func(Event)

	sink atomic.Pointer[obs.FileSink[Event]]
	// sinkErrs counts sink writes that failed (rotation or I/O errors);
	// the pipeline keeps going.
	sinkErrs atomic.Uint64
}

// NewJournal builds a journal. It accepts events immediately but drains
// nothing until Start (tests use an unstarted journal plus DrainNow for
// deterministic sweeps).
func NewJournal(cfg JournalConfig) *Journal {
	cfg.fill()
	j := &Journal{
		cfg:     cfg,
		mask:    uint64(cfg.Shards - 1),
		shards:  make([]jshard, cfg.Shards),
		notify:  make(chan struct{}, 1),
		flushCh: make(chan chan struct{}),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		history: make([]Event, cfg.History),
		wake:    make(chan struct{}),
	}
	for i := range j.shards {
		j.shards[i].buf = make([]Event, 0, cfg.ShardBuffer)
	}
	j.enabled.Store(true)
	return j
}

// Start launches the drain goroutine. Idempotent.
func (j *Journal) Start() {
	if j.started.Swap(true) {
		return
	}
	go j.loop()
}

// Stop drains once more and terminates the drain goroutine. Emit after
// Stop still lands in the shards; DrainNow can sweep it.
func (j *Journal) Stop() {
	if !j.started.Load() || j.stopped.Swap(true) {
		return
	}
	close(j.stopCh)
	<-j.doneCh
}

// Enabled reports whether Emit is accepting events.
func (j *Journal) Enabled() bool { return j.enabled.Load() }

// SetEnabled flips the emit gate and returns the previous state.
func (j *Journal) SetEnabled(v bool) bool { return j.enabled.Swap(v) }

// Emitted reports how many events were accepted into the journal.
func (j *Journal) Emitted() uint64 { return j.emitted.Load() }

// Drops reports how many events were dropped on full shards.
func (j *Journal) Drops() uint64 { return j.drops.Load() }

// SinkErrors reports failed file-sink writes.
func (j *Journal) SinkErrors() uint64 { return j.sinkErrs.Load() }

// LastSeq returns the sequence number of the most recently emitted event
// (drained or not). Stream clients use it as their initial cursor.
func (j *Journal) LastSeq() uint64 { return j.seq.Load() }

// shard picks the caller's stripe off obs's stack-address hash.
func (j *Journal) shard() *jshard {
	return &j.shards[(obs.StackHash()>>56)&j.mask]
}

// TenantOf attributes an app to its tenant. Multi-tenant managers
// namespace app names "tenant/app" (market app names themselves cannot
// contain '/'), so the prefix is an unambiguous attribution; otherwise it
// falls back to the process-wide tenant identity.
func TenantOf(app string) string {
	if i := strings.IndexByte(app, '/'); i > 0 {
		return app[:i]
	}
	return DefaultTenant()
}

// Emit appends an event. It never blocks: a full shard increments the
// drop counter and the event is lost (bounded memory beats a stalled
// mediated call). Seq and, if unset, Time are stamped here.
func (j *Journal) Emit(ev Event) {
	if !j.enabled.Load() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if ev.Tenant == "" {
		ev.Tenant = TenantOf(ev.App)
	}
	ev.Seq = j.seq.Add(1)
	sh := j.shard()
	sh.mu.Lock()
	if sh.n == cap(sh.buf) {
		sh.mu.Unlock()
		j.drops.Add(1)
		mDropped.Inc()
		return
	}
	sh.buf = sh.buf[:sh.n+1]
	sh.buf[sh.n] = ev
	sh.n++
	sh.mu.Unlock()
	j.emitted.Add(1)
	mEmitted.Inc()
	select {
	case j.notify <- struct{}{}:
	default:
	}
}

// AddConsumer registers a callback invoked for every drained event, in
// sequence order, on the drain goroutine. Consumers must be fast; slow
// ones delay the whole pipeline (but never the emitters).
func (j *Journal) AddConsumer(fn func(Event)) {
	j.cmu.Lock()
	j.consumers = append(j.consumers, fn)
	j.cmu.Unlock()
}

// AttachSink routes every drained event into a JSONL file sink.
func (j *Journal) AttachSink(s *obs.FileSink[Event]) { j.sink.Store(s) }

// DetachSink stops writing to the attached sink (without closing it).
func (j *Journal) DetachSink() { j.sink.Store(nil) }

// Flush blocks until every event emitted before the call has been
// drained: published to the history, delivered to consumers and written
// to the sink. On a stopped or never-started journal it sweeps inline.
func (j *Journal) Flush() {
	if j.started.Load() && !j.stopped.Load() {
		ack := make(chan struct{})
		select {
		case j.flushCh <- ack:
			select {
			case <-ack:
			case <-j.doneCh:
			}
			return
		case <-j.doneCh:
		}
	}
	j.drainOnce()
}

// DrainNow sweeps the shards inline — the deterministic alternative to
// the drain goroutine for journals that were never started.
func (j *Journal) DrainNow() { j.drainOnce() }

func (j *Journal) loop() {
	defer close(j.doneCh)
	for {
		select {
		case <-j.stopCh:
			j.drainOnce()
			return
		case <-j.notify:
			j.drainOnce()
		case ack := <-j.flushCh:
			j.drainOnce()
			close(ack)
		}
	}
}

// drainOnce sweeps every shard, restores global order by sequence
// number, runs consumers and the sink, then publishes to the history
// ring and wakes long-poll waiters.
func (j *Journal) drainOnce() {
	j.drainMu.Lock()
	defer j.drainMu.Unlock()
	batch := j.scratch[:0]
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		batch = append(batch, sh.buf[:sh.n]...)
		sh.buf = sh.buf[:0]
		sh.n = 0
		sh.mu.Unlock()
	}
	j.scratch = batch[:0]
	if len(batch) == 0 {
		return
	}
	// Shards are filled concurrently, so restore the global emit order.
	for i := 1; i < len(batch); i++ {
		for k := i; k > 0 && batch[k].Seq < batch[k-1].Seq; k-- {
			batch[k], batch[k-1] = batch[k-1], batch[k]
		}
	}
	j.cmu.Lock()
	consumers := append([]func(Event){}, j.consumers...)
	j.cmu.Unlock()
	sink := j.sink.Load()
	for _, ev := range batch {
		for _, fn := range consumers {
			fn(ev)
		}
		if sink != nil {
			if err := sink.Write(ev); err != nil {
				j.sinkErrs.Add(1)
			}
		}
	}
	j.hmu.Lock()
	for _, ev := range batch {
		j.history[j.hNext] = ev
		j.hNext = (j.hNext + 1) % len(j.history)
		if j.hLen < len(j.history) {
			j.hLen++
		}
	}
	close(j.wake)
	j.wake = make(chan struct{})
	j.hmu.Unlock()
}

// Filter selects events out of the journal history. Zero-valued fields
// match everything.
type Filter struct {
	App     string
	Kind    Kind
	Verdict Verdict
	Corr    uint64
	Tenant  string
	// AfterSeq keeps only events with Seq strictly greater (stream
	// cursors).
	AfterSeq uint64
	// Limit keeps only the most recent N matches; 0 means all retained.
	Limit int
}

func (f *Filter) match(ev *Event) bool {
	if ev.Seq <= f.AfterSeq {
		return false
	}
	if f.App != "" && ev.App != f.App {
		return false
	}
	if f.Kind != "" && ev.Kind != f.Kind {
		return false
	}
	if f.Verdict != "" && ev.Verdict != f.Verdict {
		return false
	}
	if f.Corr != 0 && ev.Corr != f.Corr {
		return false
	}
	if f.Tenant != "" && ev.Tenant != f.Tenant {
		return false
	}
	return true
}

// Query returns the retained events matching the filter, oldest first.
func (j *Journal) Query(f Filter) []Event {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	return j.queryLocked(f)
}

func (j *Journal) queryLocked(f Filter) []Event {
	var out []Event
	start := j.hNext - j.hLen
	if start < 0 {
		start += len(j.history)
	}
	for i := 0; i < j.hLen; i++ {
		ev := &j.history[(start+i)%len(j.history)]
		if f.match(ev) {
			out = append(out, *ev)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// WaitQuery is Query with long-poll semantics: when nothing matches it
// blocks until a drain publishes new events or the timeout elapses,
// returning nil on timeout.
func (j *Journal) WaitQuery(f Filter, timeout time.Duration) []Event {
	deadline := time.Now().Add(timeout)
	for {
		j.hmu.Lock()
		out := j.queryLocked(f)
		wake := j.wake
		j.hmu.Unlock()
		if len(out) > 0 {
			return out
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return nil
		}
	}
}
