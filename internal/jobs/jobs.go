// Package jobs is SDNShield's durable, dependency-free job spine: a
// WAL-backed queue manager with per-queue worker pools, at-least-once
// delivery, exponential retry with a dead-letter terminal state, and
// bounded admission for backpressure. The market's install pipeline
// rides on it so the HTTP handler never reconciles inline — it enqueues
// and returns 202, and workers drive verify → parse → reconcile off the
// request path.
//
// Durability model: every enqueue is appended to the WAL and flushed to
// the OS before Enqueue returns; fsync is group-committed on a short
// interval (Config.SyncInterval) and forced on Close. A job is removed
// from the log only by its ack record, so a worker crash between pop
// and ack replays the job as pending on the next Open — at-least-once,
// never lost. Handlers must therefore be idempotent or tolerate reruns.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"sdnshield/internal/durable"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
)

// State is a job's lifecycle state.
type State string

// Job states. pending → running → done is the happy path; running →
// pending (retry) after a failed attempt; running → dead after the
// attempt budget is spent or a Permanent error.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateDead    State = "dead"
)

// Lifecycle errors.
var (
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrQueueFull reports admission refusal: the queue's pending backlog
	// is at its bound. Callers should surface backpressure (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrUnknownJob reports a Status/Requeue of an ID the manager does
	// not retain.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// Handler executes one job attempt. The returned bytes are retained as
// the job's result (pollable via Status); a nil error acks the job. An
// error wrapped with Permanent dead-letters immediately; any other
// error consumes one attempt and retries with backoff.
type Handler func(j Snapshot) ([]byte, error)

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an error so the job dead-letters on the spot instead
// of burning retries — for business-terminal failures (malformed
// payload, unknown digest) where a rerun cannot succeed.
func Permanent(err error) error { return &permanentError{err: err} }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Config tunes a Manager.
type Config struct {
	// Dir is the WAL directory. "" runs the manager in memory only (no
	// durability) — tests and throwaway tooling.
	Dir string
	// MaxDepth bounds each queue's pending backlog; Enqueue beyond it
	// returns ErrQueueFull. Default 4096.
	MaxDepth int
	// MaxAttempts is the default attempt budget per job. Default 5.
	MaxAttempts int
	// Backoff is the first retry delay; each further attempt doubles it
	// up to MaxBackoff. Defaults 25ms / 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// SyncInterval is the group-commit fsync cadence. Default 5ms.
	SyncInterval time.Duration
}

// retainDone bounds how many completed/dead jobs stay pollable.
const retainDone = 4096

func (c *Config) fill() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4096
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 5 * time.Millisecond
	}
}

// job is the manager's internal record of one job.
type job struct {
	id          uint64
	queue       string
	payload     []byte
	corr        uint64
	trace       span.Context // span context of the enqueuing operation
	tenant      string       // owning tenant ("" single-tenant)
	maxAttempts int
	attempts    int
	state       State
	lastErr     string
	result      []byte
	enqueuedAt  time.Time
	startedAt   time.Time
	finishedAt  time.Time
}

// Snapshot is a job's externally visible state — the /market/jobs/<id>
// body.
type Snapshot struct {
	ID          uint64 `json:"id"`
	Queue       string `json:"queue"`
	State       State  `json:"state"`
	Attempts    int    `json:"attempts"`
	MaxAttempts int    `json:"max_attempts"`
	Corr        uint64 `json:"corr,omitempty"`
	// Trace is the span context the job carries: the handler's side of
	// trace propagation. Workers run the handler under a child span of
	// it, so the operation's trace continues across the queue hop — and,
	// because the context is WAL-persisted, across a restart.
	Trace      span.Context `json:"trace"`
	Tenant     string       `json:"tenant,omitempty"`
	Error      string       `json:"error,omitempty"`
	Payload    []byte       `json:"-"`
	Result     []byte       `json:"-"`
	EnqueuedAt time.Time    `json:"enqueued_at"`
	StartedAt  time.Time    `json:"started_at,omitempty"`
	FinishedAt time.Time    `json:"finished_at,omitempty"`
}

// MarshalJSON renders Payload/Result inline when they are valid JSON
// (the market's case) and as quoted strings otherwise.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	aux := struct {
		alias
		Payload json.RawMessage `json:"payload,omitempty"`
		Result  json.RawMessage `json:"result,omitempty"`
	}{alias: alias(s)}
	aux.Payload = rawOrQuote(s.Payload)
	aux.Result = rawOrQuote(s.Result)
	return json.Marshal(aux)
}

func rawOrQuote(b []byte) json.RawMessage {
	if len(b) == 0 {
		return nil
	}
	if json.Valid(b) {
		return json.RawMessage(b)
	}
	return json.RawMessage(strconv.Quote(string(b)))
}

// queue is one named queue's pending list and worker pool.
type queue struct {
	name    string
	pending []*job // FIFO; head is pending[0]
	handler Handler
	workers int
	cond    *sync.Cond
	met     *queueMetrics

	inflight int
	enqueued uint64
	done     uint64
	retried  uint64
	dead     uint64
	rejected uint64
}

// Manager owns the WAL, the queues and their workers.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	wal     *durable.Log // nil when ephemeral
	queues  map[string]*queue
	jobs    map[uint64]*job
	doneSeq []uint64 // completed/dead IDs in finish order, for eviction
	// deadByTenant counts dead-lettered jobs per owning tenant (the ""
	// key aggregates untenanted jobs), surviving restarts via replay.
	deadByTenant map[string]uint64
	nextID       uint64
	timers       map[uint64]*time.Timer // scheduled retries by job ID
	closing      bool
	killed       bool

	wg        sync.WaitGroup
	stopFlush chan struct{}
}

// openManagers tracks every live manager so CLIs can drain them all on
// SIGINT/SIGTERM from one bench.OnShutdown hook.
var (
	openMu       sync.Mutex
	openManagers = make(map[*Manager]struct{})
)

// DrainAll gracefully closes every open manager: intake stops, in-flight
// jobs finish, WALs are fsynced. Wired into the CLIs' shutdown path.
func DrainAll() {
	openMu.Lock()
	ms := make([]*Manager, 0, len(openManagers))
	for m := range openManagers {
		ms = append(ms, m)
	}
	openMu.Unlock()
	for _, m := range ms {
		_ = m.Close()
	}
}

// Open builds a manager, replaying (and compacting) the WAL when cfg.Dir
// is set. Jobs that were pending or running at the last crash/shutdown
// come back pending; workers pick them up as soon as Handle registers
// their queue.
func Open(cfg Config) (*Manager, error) {
	cfg.fill()
	m := &Manager{
		cfg:          cfg,
		queues:       make(map[string]*queue),
		jobs:         make(map[uint64]*job),
		timers:       make(map[uint64]*time.Timer),
		deadByTenant: make(map[string]uint64),
		stopFlush:    make(chan struct{}),
		nextID:       1, // 0 is "no job" in every external surface
	}
	if cfg.Dir != "" {
		if err := m.replay(); err != nil {
			if m.wal != nil {
				_ = m.wal.Close() // the replay error is the one to report
			}
			return nil, err
		}
		m.wg.Add(1)
		go m.flusher()
	}
	openMu.Lock()
	openManagers[m] = struct{}{}
	openMu.Unlock()
	return m, nil
}

// replay opens the WAL, loads it into memory, re-queues live jobs, and
// rewrites the log compacted (live enqueue records only) when it holds
// settled history or a record that does not decode. Completed/dead jobs
// from the old log stay pollable in this process but are not carried
// into the compacted file.
func (m *Manager) replay() error {
	w, bodies, err := durable.OpenLog(walPath(m.cfg.Dir), walMagic)
	if err != nil {
		return err
	}
	m.wal = w
	var order []uint64
	decoded, metaRecs := 0, 0
	for _, b := range bodies {
		r, err := decodeRecord(b)
		if err != nil {
			break // replay ends here, as at a torn frame; compaction drops the rest
		}
		decoded++
		switch r.op {
		case opMeta:
			metaRecs++
			if r.id >= m.nextID {
				m.nextID = r.id + 1
			}
		case opEnqueue:
			j, ok := m.jobs[r.id]
			if !ok {
				j = &job{id: r.id}
				m.jobs[r.id] = j
				order = append(order, r.id)
			}
			j.queue = r.queue
			j.payload = r.payload
			j.corr = r.corr
			j.trace = span.Context{TraceID: r.traceID, SpanID: r.spanID, Parent: r.spanParent}
			j.tenant = r.tenant
			j.maxAttempts = int(r.maxAttempts)
			j.attempts = int(r.attempts)
			j.state = StatePending
			j.lastErr = ""
			j.result = nil
			j.enqueuedAt = time.Unix(0, r.ts)
			if r.id >= m.nextID {
				m.nextID = r.id + 1
			}
		case opFail:
			if j, ok := m.jobs[r.id]; ok {
				j.attempts = int(r.attempts)
				j.lastErr = r.errMsg
				j.state = StatePending
			}
		case opAck:
			if j, ok := m.jobs[r.id]; ok {
				j.state = StateDone
				j.result = r.result
				j.finishedAt = time.Unix(0, r.ts)
			}
		case opDead:
			if j, ok := m.jobs[r.id]; ok {
				j.state = StateDead
				j.attempts = int(r.attempts)
				j.lastErr = r.errMsg
				j.finishedAt = time.Unix(0, r.ts)
				m.deadByTenant[j.tenant]++
			}
		}
	}
	live := 0
	for _, id := range order {
		j := m.jobs[id]
		switch j.state {
		case StatePending:
			q := m.queueOf(j.queue)
			q.pending = append(q.pending, j)
			q.met.pending.Add(1)
			live++
		case StateDone, StateDead:
			m.doneSeq = append(m.doneSeq, id)
		}
	}
	// Compact: the settled records are replayed into memory; rewrite the
	// file with only the live backlog so the log cannot grow without
	// bound across restarts.
	if decoded < len(bodies) || live < len(m.jobs) || decoded-metaRecs > len(m.jobs) {
		return m.rewriteCompact()
	}
	return nil
}

// rewriteCompact replaces the WAL with the ID high-water mark and one
// enqueue record per live job.
func (m *Manager) rewriteCompact() error {
	var bodies [][]byte
	if m.nextID > 1 {
		// Settled jobs' enqueue records are dropped below; without the
		// high-water mark a restart would re-issue their IDs and clients
		// polling an old /market/jobs/<id> URL would see a stranger's job.
		bodies = append(bodies, encodeRecord(&walRecord{op: opMeta, id: m.nextID - 1}))
	}
	for _, q := range m.queues {
		for _, j := range q.pending {
			bodies = append(bodies, encodeRecord(enqueueRecord(j)))
		}
	}
	return m.wal.Rewrite(bodies)
}

func enqueueRecord(j *job) *walRecord {
	return &walRecord{
		op: opEnqueue, id: j.id, queue: j.queue, payload: j.payload,
		corr: j.corr, maxAttempts: uint32(j.maxAttempts), attempts: uint32(j.attempts),
		ts:      j.enqueuedAt.UnixNano(),
		traceID: j.trace.TraceID, spanID: j.trace.SpanID, spanParent: j.trace.Parent,
		tenant: j.tenant,
	}
}

// flusher group-commits the WAL: buffered appends are flushed at append
// time; this loop bounds the fsync staleness to SyncInterval.
func (m *Manager) flusher() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopFlush:
			return
		case <-t.C:
			m.mu.Lock()
			w := m.wal
			if w == nil || m.killed {
				m.mu.Unlock()
				return
			}
			m.mu.Unlock()
			_ = w.Sync()
		}
	}
}

// queueOf returns (creating) the named queue. Caller holds m.mu or is
// inside replay (single-threaded).
func (m *Manager) queueOf(name string) *queue {
	q, ok := m.queues[name]
	if !ok {
		q = &queue{name: name, met: metricsFor(name)}
		q.cond = sync.NewCond(&m.mu)
		m.queues[name] = q
	}
	return q
}

// Option tunes one enqueued job.
type Option func(*job)

// WithCorr stamps the job with an audit correlation ID so every event
// the job's execution emits ties back to the submitting request.
func WithCorr(corr uint64) Option { return func(j *job) { j.corr = corr } }

// WithTrace stamps the job with the enqueuing operation's span context,
// persisted in the WAL so the trace survives a restart: the worker (in
// this process or the next one) runs the handler under a child span of
// it.
func WithTrace(ctx span.Context) Option { return func(j *job) { j.trace = ctx } }

// WithTenant stamps the job with its owning tenant, persisted in the WAL
// so per-tenant accounting (dead-letter counts above all) survives a
// restart and audit events the job emits carry the attribution.
func WithTenant(tenant string) Option { return func(j *job) { j.tenant = tenant } }

// WithMaxAttempts overrides the manager's default attempt budget.
func WithMaxAttempts(n int) Option {
	return func(j *job) {
		if n > 0 {
			j.maxAttempts = n
		}
	}
}

// Enqueue appends a job to the named queue, durably (WAL append +
// flush) before returning its ID. A full queue refuses with
// ErrQueueFull — the backpressure signal.
func (m *Manager) Enqueue(queueName string, payload []byte, opts ...Option) (uint64, error) {
	m.mu.Lock()
	if m.closing || m.killed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	q := m.queueOf(queueName)
	if len(q.pending) >= m.cfg.MaxDepth {
		q.rejected++
		q.met.rejected.Inc()
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %s at depth %d", ErrQueueFull, queueName, m.cfg.MaxDepth)
	}
	id := m.nextID
	m.nextID++
	j := &job{
		id: id, queue: queueName, payload: append([]byte(nil), payload...),
		maxAttempts: m.cfg.MaxAttempts, state: StatePending, enqueuedAt: time.Now(),
	}
	for _, o := range opts {
		o(j)
	}
	if err := m.walAppend(enqueueRecord(j)); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	m.jobs[id] = j
	q.pending = append(q.pending, j)
	q.enqueued++
	q.met.enqueued.Inc()
	q.met.pending.Add(1)
	q.cond.Signal()
	m.mu.Unlock()

	span.Add(j.trace, "job:enqueue:"+queueName, j.enqueuedAt, time.Since(j.enqueuedAt))
	if audit.On() {
		audit.Emit(audit.Event{
			Kind: audit.KindJob, Verdict: audit.VerdictEnqueue, Op: queueName, Corr: j.corr, Tenant: j.tenant,
			Detail: fmt.Sprintf("job %d enqueued", id),
		})
	}
	return id, nil
}

// Handle registers the queue's handler and starts its worker pool. Jobs
// already pending (including WAL-replayed backlog) are picked up
// immediately. Calling Handle twice for a queue replaces the handler
// but does not add workers.
func (m *Manager) Handle(queueName string, workers int, fn Handler) {
	if workers <= 0 {
		workers = 1
	}
	m.mu.Lock()
	q := m.queueOf(queueName)
	q.handler = fn
	start := q.workers == 0
	if start {
		q.workers = workers
	}
	m.mu.Unlock()
	if !start {
		return
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker(q)
	}
}

// worker is one pool goroutine: pop, run, settle, repeat.
func (m *Manager) worker(q *queue) {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(q.pending) == 0 && !m.closing && !m.killed {
			q.cond.Wait()
		}
		if m.closing || m.killed {
			m.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending = q.pending[1:]
		j.state = StateRunning
		j.attempts++
		j.startedAt = time.Now()
		q.inflight++
		q.met.pending.Add(-1)
		q.met.inflight.Add(1)
		snap := snapshotOf(j)
		fn := q.handler
		m.mu.Unlock()

		wait := snap.StartedAt.Sub(snap.EnqueuedAt)
		q.met.wait.Observe(wait)
		// Continue the enqueuing operation's trace: the queue wait as an
		// externally timed span (no extra clock reads), then the handler
		// under an exec child — whose context the snapshot carries so the
		// handler's own spans nest under the execution, not the enqueue.
		span.Add(snap.Trace, "job:queue_wait", snap.EnqueuedAt, wait)
		execSp := span.Start(snap.Trace, "job:exec:"+q.name)
		if c := execSp.Context(); c.Valid() {
			snap.Trace = c
		}
		res, err := runHandler(fn, snap)
		execSp.End()
		q.met.exec.Observe(time.Since(snap.StartedAt))
		m.settle(q, j, res, err)
	}
}

// runHandler executes one attempt, converting a panic into an error so
// a buggy handler burns an attempt instead of the process.
func runHandler(fn Handler, s Snapshot) (res []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: handler panic: %v", r)
		}
	}()
	return fn(s)
}

// settle records an attempt's outcome: ack, schedule a retry, or
// dead-letter. A killed manager (crash simulation) records no state or
// WAL transition — exactly what a real crash would do, leaving the WAL
// to replay the job — but the inflight gauge still settles, since the
// worker goroutine really has stopped working on the job.
func (m *Manager) settle(q *queue, j *job, res []byte, err error) {
	m.mu.Lock()
	q.inflight--
	q.met.inflight.Add(-1)
	if m.killed {
		m.mu.Unlock()
		return
	}
	now := time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.lastErr = ""
		j.finishedAt = now
		_ = m.walAppend(&walRecord{op: opAck, id: j.id, attempts: uint32(j.attempts), result: res, ts: now.UnixNano()})
		q.done++
		q.met.completed.Inc()
		m.retainLocked(j)
	case isPermanent(err) || j.attempts >= j.maxAttempts:
		j.state = StateDead
		j.lastErr = err.Error()
		j.finishedAt = now
		_ = m.walAppend(&walRecord{op: opDead, id: j.id, attempts: uint32(j.attempts), errMsg: j.lastErr, ts: now.UnixNano()})
		q.dead++
		q.met.deadC.Inc()
		m.deadByTenant[j.tenant]++
		m.retainLocked(j)
	default:
		j.state = StatePending
		j.lastErr = err.Error()
		_ = m.walAppend(&walRecord{op: opFail, id: j.id, attempts: uint32(j.attempts), errMsg: j.lastErr, ts: now.UnixNano()})
		q.retried++
		q.met.retries.Inc()
		delay := m.backoff(j.attempts)
		id := j.id
		m.timers[id] = time.AfterFunc(delay, func() { m.requeueAfterBackoff(id) })
	}
	state, corr, attempts, lastErr, tenant := j.state, j.corr, j.attempts, j.lastErr, j.tenant
	m.mu.Unlock()

	if audit.On() {
		v := audit.VerdictDone
		switch state {
		case StateDead:
			v = audit.VerdictDead
		case StatePending:
			v = audit.VerdictRetry
		}
		audit.Emit(audit.Event{
			Kind: audit.KindJob, Verdict: v, Op: q.name, Corr: corr, Tenant: tenant,
			Detail: fmt.Sprintf("job %d attempt %d: %s", j.id, attempts, stateDetail(state, lastErr)),
		})
	}
}

func stateDetail(s State, lastErr string) string {
	if s == StateDone {
		return "done"
	}
	return string(s) + ": " + lastErr
}

// backoff returns the delay before retry attempt n+1: Backoff doubled
// per failed attempt, capped at MaxBackoff.
func (m *Manager) backoff(attempts int) time.Duration {
	d := m.cfg.Backoff
	for i := 1; i < attempts && d < m.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > m.cfg.MaxBackoff {
		d = m.cfg.MaxBackoff
	}
	return d
}

// requeueAfterBackoff returns a failed job to its queue's pending list.
func (m *Manager) requeueAfterBackoff(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.timers, id)
	if m.closing || m.killed {
		return
	}
	j, ok := m.jobs[id]
	if !ok || j.state != StatePending {
		return
	}
	q := m.queueOf(j.queue)
	q.pending = append(q.pending, j)
	q.met.pending.Add(1)
	q.cond.Signal()
}

// walAppend appends one record and flushes it to the OS. Caller holds
// m.mu. Only Enqueue reports the error: a lost transition record
// degrades durability, it must not block the pipeline.
func (m *Manager) walAppend(r *walRecord) error {
	if m.wal == nil {
		return nil
	}
	if err := m.wal.Append(encodeRecord(r)); err != nil {
		return err
	}
	return m.wal.Flush()
}

// retainLocked bounds the settled-job memory: beyond retainDone, the
// oldest done/dead jobs are evicted from the index.
func (m *Manager) retainLocked(j *job) {
	m.doneSeq = append(m.doneSeq, j.id)
	for len(m.doneSeq) > retainDone {
		old := m.doneSeq[0]
		m.doneSeq = m.doneSeq[1:]
		if oj, ok := m.jobs[old]; ok && (oj.state == StateDone || oj.state == StateDead) {
			delete(m.jobs, old)
		}
	}
}

func snapshotOf(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Queue: j.queue, State: j.state,
		Attempts: j.attempts, MaxAttempts: j.maxAttempts, Corr: j.corr, Trace: j.trace,
		Tenant:     j.tenant,
		Error:      j.lastErr,
		Payload:    append([]byte(nil), j.payload...),
		Result:     append([]byte(nil), j.result...),
		EnqueuedAt: j.enqueuedAt, StartedAt: j.startedAt, FinishedAt: j.finishedAt,
	}
}

// Status returns a job's snapshot.
func (m *Manager) Status(id uint64) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return snapshotOf(j), true
}

// Recent returns up to max retained jobs, newest ID first.
func (m *Manager) Recent(max int) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] > ids[k] })
	if max > 0 && len(ids) > max {
		ids = ids[:max]
	}
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		out = append(out, snapshotOf(m.jobs[id]))
	}
	return out
}

// Dead returns the dead-letter jobs of one queue ("" for all), newest
// first.
func (m *Manager) Dead(queueName string) []Snapshot {
	var out []Snapshot
	for _, s := range m.Recent(0) {
		if s.State == StateDead && (queueName == "" || s.Queue == queueName) {
			out = append(out, s)
		}
	}
	return out
}

// Requeue resurrects a dead-letter job with a fresh attempt budget.
func (m *Manager) Requeue(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing || m.killed {
		return ErrClosed
	}
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if j.state != StateDead {
		return fmt.Errorf("jobs: job %d is %s, not dead", id, j.state)
	}
	j.state = StatePending
	j.attempts = 0
	j.lastErr = ""
	j.finishedAt = time.Time{}
	_ = m.walAppend(enqueueRecord(j))
	q := m.queueOf(j.queue)
	q.pending = append(q.pending, j)
	q.met.pending.Add(1)
	q.cond.Signal()
	return nil
}

// QueueStats is one queue's counters for introspection.
type QueueStats struct {
	Queue    string `json:"queue"`
	Workers  int    `json:"workers"`
	Pending  int    `json:"pending"`
	Inflight int    `json:"inflight"`
	Enqueued uint64 `json:"enqueued"`
	Done     uint64 `json:"done"`
	Retried  uint64 `json:"retried"`
	Dead     uint64 `json:"dead"`
	Rejected uint64 `json:"rejected"`
}

// Stats reports every queue, sorted by name.
func (m *Manager) Stats() []QueueStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QueueStats, 0, len(m.queues))
	for _, q := range m.queues {
		out = append(out, QueueStats{
			Queue: q.name, Workers: q.workers, Pending: len(q.pending), Inflight: q.inflight,
			Enqueued: q.enqueued, Done: q.done, Retried: q.retried, Dead: q.dead, Rejected: q.rejected,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Queue < out[k].Queue })
	return out
}

// DeadByTenant reports the dead-letter count per owning tenant (the ""
// key aggregates untenanted jobs). Counts survive restarts: replay
// re-counts dead records still present in the WAL.
func (m *Manager) DeadByTenant() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.deadByTenant))
	for t, n := range m.deadByTenant {
		out[t] = n
	}
	return out
}

// Close drains gracefully: intake stops, workers finish (and ack) the
// jobs they are running, retry timers are cancelled (their jobs stay
// pending in the WAL for the next Open), and the WAL is fsynced and
// closed.
func (m *Manager) Close() error {
	m.mu.Lock()
	stopped := m.stopLocked(&m.closing)
	m.mu.Unlock()
	if !stopped {
		return nil
	}
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	if m.wal != nil {
		err = errors.Join(m.wal.Flush(), m.wal.Sync(), m.wal.Close())
		m.wal = nil
	}
	return err
}

// stopLocked stops the manager once, setting *flag (closing or killed):
// workers wake to exit, retry timers are cancelled (their jobs stay
// pending in the WAL for the next Open), the flusher stops and DrainAll
// forgets the manager. It reports false if the manager had already
// stopped. Caller holds m.mu.
func (m *Manager) stopLocked(flag *bool) bool {
	if m.closing || m.killed {
		return false
	}
	*flag = true
	for _, q := range m.queues {
		q.cond.Broadcast()
		// The backlog, frozen from here on, is in the WAL, not a live queue:
		// take it out of the process-wide gauge. Inflight needs nothing;
		// every popped job's settle decrements it, even under Kill.
		q.met.pending.Add(int64(-len(q.pending)))
	}
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	close(m.stopFlush)
	openMu.Lock()
	delete(openManagers, m)
	openMu.Unlock()
	return true
}

// Kill simulates a crash for fault testing: workers stop without acking
// the jobs they are running and nothing further reaches the WAL, so a
// subsequent Open on the same directory replays those jobs as pending —
// the at-least-once path the e2e suite proves. The WAL is closed
// without an fsync (records were already flushed at append time).
func (m *Manager) Kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.stopLocked(&m.killed) {
		return
	}
	if m.wal != nil {
		_ = m.wal.Close() // no final sync: crashes do not fsync
		m.wal = nil
	}
}
