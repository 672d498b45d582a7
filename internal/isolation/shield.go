package isolation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/permengine"
)

// Config tunes the shielded runtime.
type Config struct {
	// KSDWorkers is the size of the Kernel Service Deputy pool. Multiple
	// deputies run in parallel to offload API requests from apps (§VI-A).
	// Default 4.
	KSDWorkers int
	// EventQueueSize is the per-app event queue depth. Events beyond it
	// are dropped (and counted) rather than blocking the kernel. Default
	// 1024.
	EventQueueSize int
	// EventWorkers is the number of event-delivery goroutines per app
	// container — the paper's model of apps spawning worker threads that
	// inherit their parent's (unprivileged) principal. Default 1
	// (strictly ordered delivery); raise it for throughput-oriented apps.
	EventWorkers int
	// ActivityLogSize enables the forensic activity log (§VII) with the
	// given ring-buffer capacity. Zero disables logging; the engine's
	// check/denial counters remain available either way.
	ActivityLogSize int
	// DropOnFullQueue makes event delivery non-blocking: events beyond
	// EventQueueSize are dropped (and counted) instead of exerting
	// backpressure on the kernel's dispatcher. The blocking default
	// mirrors the monolithic baseline, where a slow handler naturally
	// throttles its switch's dispatch.
	DropOnFullQueue bool
	// RestartBackoff is the supervisor's delay before re-initializing an
	// app after a panic; it doubles with each consecutive failure.
	// Default 10 ms.
	RestartBackoff time.Duration
	// PanicLimit quarantines an app after this many panics within
	// PanicWindow: its handlers are unhooked, its API handle dies with
	// ErrAppQuarantined, and the rest of the shield keeps running.
	// Default 5.
	PanicLimit int
	// PanicWindow is the sliding window PanicLimit counts over. Default
	// 30 s.
	PanicWindow time.Duration
	// QuotaCheckInterval is how often the shield sweeps per-app resource
	// usage against manifest budgets (resources.go). Default 1 s;
	// negative disables the background sweep (CheckQuotas can still be
	// called directly).
	QuotaCheckInterval time.Duration
	// QuotaEscalateAfter quarantines an app whose budget is breached on
	// this many consecutive sweeps. Zero (the default) never escalates:
	// breaches stay soft — audit events, recorder frames and diagnostic
	// bundles only.
	QuotaEscalateAfter int
}

func (c *Config) fill() {
	if c.KSDWorkers <= 0 {
		c.KSDWorkers = 4
	}
	if c.EventQueueSize <= 0 {
		c.EventQueueSize = 1024
	}
	if c.EventWorkers <= 0 {
		c.EventWorkers = 1
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
	if c.PanicLimit <= 0 {
		c.PanicLimit = 5
	}
	if c.PanicWindow <= 0 {
		c.PanicWindow = 30 * time.Second
	}
	if c.QuotaCheckInterval == 0 {
		c.QuotaCheckInterval = time.Second
	}
}

// ErrShieldStopped reports API use after shutdown.
var ErrShieldStopped = errors.New("isolation: shield stopped")

// Shield is the SDNShield runtime: the permission engine, the KSD pool
// and the app containers.
type Shield struct {
	kernel *controller.Kernel
	engine *permengine.Engine
	cfg    Config

	reqCh     chan func()
	replyPool sync.Pool
	workers   sync.WaitGroup
	stopped   atomic.Bool

	mu         sync.Mutex
	containers map[string]*Container
	// pendingBudgets holds quotas set before the app launched; guarded
	// by mu.
	pendingBudgets map[string]core.Budget

	quotaStop chan struct{}
	quotaWG   sync.WaitGroup

	unregisterHealth func()
}

// NewShield builds the shielded runtime over a kernel. The permission
// engine resolves stateful filters against the kernel's shadow tables.
func NewShield(kernel *controller.Kernel, cfg Config) *Shield {
	cfg.fill()
	var opts []permengine.Option
	if cfg.ActivityLogSize > 0 {
		opts = append(opts, permengine.WithActivityLog(cfg.ActivityLogSize))
	}
	s := &Shield{
		kernel:         kernel,
		engine:         permengine.New(kernel, opts...),
		cfg:            cfg,
		reqCh:          make(chan func(), 256),
		containers:     make(map[string]*Container),
		pendingBudgets: make(map[string]core.Budget),
	}
	s.replyPool.New = func() interface{} { return make(chan reply, 1) }
	s.unregisterHealth = registerHealth(s)
	for i := 0; i < cfg.KSDWorkers; i++ {
		s.workers.Add(1)
		go s.ksdLoop()
	}
	if cfg.QuotaCheckInterval > 0 {
		s.quotaStop = make(chan struct{})
		s.quotaWG.Add(1)
		go s.quotaLoop(cfg.QuotaCheckInterval)
	}
	return s
}

// Engine exposes the permission engine (for permission installation and
// audit).
func (s *Shield) Engine() *permengine.Engine { return s.engine }

// Kernel exposes the trusted kernel (test and harness use only; apps
// never see it).
func (s *Shield) Kernel() *controller.Kernel { return s.kernel }

// SetPermissions installs an app's reconciled permission set.
func (s *Shield) SetPermissions(app string, set *core.Set) {
	s.engine.SetPermissions(app, set)
}

// SetProvenance records the reconciliation repair notes attached to the
// app's active permission set (market.ProvenanceRuntime); /explain
// cross-references them when naming a denial's deciding term.
func (s *Shield) SetProvenance(app string, notes []string) {
	s.engine.SetProvenance(app, notes)
}

// ksdLoop is one Kernel Service Deputy: it executes mediated API calls on
// behalf of apps.
func (s *Shield) ksdLoop() {
	defer s.workers.Done()
	for fn := range s.reqCh {
		fn()
	}
}

// reply is what a deputy hands back for one mediated call: the call's
// error and, for the traced subset, the two stage durations the caller
// records as spans.
type reply struct {
	err        error
	wait, exec time.Duration
}

// do is the KSD hop: it runs fn(org) on a deputy and waits for its
// completion — the inter-thread hop whose cost the paper's end-to-end
// overhead measurements capture. op names the mediated operation for the
// per-op latency histogram and the call-path trace. One sampler decision,
// taken before the enqueue, gates all measurement: unsampled calls pay a
// single atomic add, measured ones share their timestamps between the hop
// histogram, the per-op histogram and — for every traceOneIn-th of them
// — the call's spans in the span collector (/trace/<corr>, /traces).
//
// c is the calling app's container; org names the app and carries the
// call's correlation ID. Durations and queue residency ride the same
// sampler decision:
// time.Now() costs tens of nanoseconds — two on-path reads alone would
// blow the recorder's 5% budget against a microsecond call — so the
// unsampled majority pays no clock read, and the resource accounting
// scales sampled measurements back to full rate by the sampling
// period. When the flight recorder is on, every call still leaves a
// frame (app, op, outcome, correlation ID, completion timestamp); the
// timestamp is read after the reply is sent, and the sampled subset's
// frames additionally carry execution time and queue residency.
func (s *Shield) do(c *Container, op *mediatedOp, org controller.Origin, fn func(controller.Origin) error) error {
	if s.stopped.Load() {
		return ErrShieldStopped
	}
	var enq time.Time
	var weight int64
	var traced bool
	if nth := mediatedSampler.Tick(); nth != 0 {
		traced = nth%traceOneIn == 0
		mKSDQueueDepth.Set(int64(len(s.reqCh)))
		if weight = int64(obs.LatencySampling()); weight < 1 {
			weight = 1
		}
		enq = time.Now()
	}
	rec := recorder.On()
	if c != nil {
		c.res.calls.Add(1)
		c.res.goroutines.Add(1)
		defer c.res.goroutines.Add(-1)
	}
	done, _ := s.replyPool.Get().(chan reply)
	s.reqCh <- func() {
		var pickup time.Time
		var wait, exec time.Duration
		if !enq.IsZero() {
			pickup = time.Now()
			wait = pickup.Sub(enq)
			mKSDHopSeconds.Observe(wait)
		}
		sampleAlloc := c != nil && c.res.sampleAlloc()
		var allocBefore int64
		if sampleAlloc {
			allocBefore = heapAllocBytes()
		}
		err := s.protect(fn, org)
		// A traced call's execution time travels back with the reply, so
		// its clock read comes first. Every other call is accounted after
		// the reply: the deputy does the bookkeeping — clock reads
		// included — off the caller's critical path. exec then includes
		// the reply handoff: tens of nanoseconds against microsecond
		// calls, a fair trade for keeping the measured path clock-free.
		if traced {
			exec = time.Since(pickup)
		}
		done <- reply{err, wait, exec}
		if !traced && !pickup.IsZero() {
			exec = time.Since(pickup)
		}
		if sampleAlloc {
			if delta := heapAllocBytes() - allocBefore; delta > 0 {
				c.res.allocBytes.Add(delta * allocSamplePeriod)
			}
		}
		if c == nil {
			return
		}
		if !pickup.IsZero() {
			c.res.account(exec, wait, weight)
		}
		if rec {
			code := recorder.CodeOK
			if err != nil {
				code = recorder.CodeError
				var denied *permengine.DeniedError
				if errors.As(err, &denied) {
					code = recorder.CodeDenied
				}
			}
			// Unsampled frames carry TS 0: Record stamps them with the
			// last measured timestamp instead of a fresh clock read.
			var ts int64
			if !pickup.IsZero() {
				ts = pickup.Add(exec).UnixNano()
			}
			recorder.Record(recorder.Frame{
				TS:   ts,
				Kind: recorder.KindMediatedCall,
				Code: code,
				App:  c.sym,
				Op:   op.sym,
				Corr: org.Corr,
				Dur:  int64(exec),
				Arg:  int64(wait),
			})
		}
	}
	r := <-done
	s.replyPool.Put(done)
	if traced {
		// The call's spans are in the collector before it returns, under
		// the corr its audit events carry; the exemplar names the same ID.
		d := time.Since(enq)
		op.hist.ObserveTraced(d, org.Corr, enq)
		var tenant string
		if c != nil {
			tenant = audit.TenantOf(c.name)
		}
		root := span.Mediated(org.Corr, op.name, tenant, enq, d)
		span.Add(root, "ksd_queue", enq, r.wait)
		span.Add(root, "exec", enq.Add(r.wait), r.exec)
	} else if !enq.IsZero() {
		op.hist.Observe(time.Since(enq))
	}
	return r.err
}

// protect shields a deputy from the closure it runs on an app's behalf: a
// panic inside a mediated call is converted to an error for the caller
// (and counted on the engine) instead of killing the KSD worker.
func (s *Shield) protect(fn func(controller.Origin) error, org controller.Origin) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.engine.CountAPIPanic()
			err = fmt.Errorf("isolation: panic in mediated API call: %v", r)
		}
	}()
	return fn(org)
}

// Launch starts an app in its own container: Init runs on the container
// goroutine with a mediated API handle. Panics in Init or handlers are
// contained (the container dies, the controller survives).
func (s *Shield) Launch(app App) error {
	if s.stopped.Load() {
		return ErrShieldStopped
	}
	name := app.Name()
	s.mu.Lock()
	if _, dup := s.containers[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("isolation: app %q already launched", name)
	}
	c := &Container{
		name:     name,
		shield:   s,
		app:      app,
		sym:      recorder.Intern(name),
		events:   make(chan controller.Event, s.cfg.EventQueueSize),
		handlers: make(map[controller.EventKind][]controller.Handler),
		kernels:  make(map[controller.EventKind]int),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		metrics:  newAppCounters(name),
	}
	if b, ok := s.pendingBudgets[name]; ok {
		c.res.setBudget(b)
		delete(s.pendingBudgets, name)
	}
	s.containers[name] = c
	s.mu.Unlock()
	registerAppGauges(c)

	api := newShieldedAPI(s, c)
	c.api = api
	initErr := make(chan error, 1)
	go func() {
		defer close(c.done)
		initErr <- c.safeInit(app, api)
		c.eventLoop()
	}()
	// Additional event workers model app-spawned threads draining the
	// same queue; they inherit the container's (unprivileged) principal.
	for i := 1; i < s.cfg.EventWorkers; i++ {
		c.workers.Add(1)
		go func() {
			defer c.workers.Done()
			c.eventLoop()
		}()
	}
	if err := <-initErr; err != nil {
		s.removeContainer(name)
		c.Stop()
		return fmt.Errorf("init app %q: %w", name, err)
	}
	return nil
}

// AttackerHandle returns a mediated API handle bound to a launched app,
// modeling the threat of arbitrary code execution inside the app (§II):
// the attacker operates with exactly the app's privileges, never more.
// Experiments and examples use it to drive attacks "as" a compromised
// app.
func AttackerHandle(s *Shield, app string) (API, error) {
	c, ok := s.Container(app)
	if !ok {
		return nil, fmt.Errorf("isolation: app %q not launched", app)
	}
	return newShieldedAPI(s, c), nil
}

// Container returns a launched app's container.
func (s *Shield) Container(name string) (*Container, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[name]
	return c, ok
}

func (s *Shield) removeContainer(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.containers, name)
}

// Stop terminates every container and the KSD pool.
func (s *Shield) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	s.mu.Lock()
	containers := make([]*Container, 0, len(s.containers))
	for _, c := range s.containers {
		containers = append(containers, c)
	}
	s.containers = make(map[string]*Container)
	s.mu.Unlock()
	if s.quotaStop != nil {
		close(s.quotaStop)
		s.quotaWG.Wait()
	}
	for _, c := range containers {
		c.Stop()
	}
	close(s.reqCh)
	s.workers.Wait()
	if s.unregisterHealth != nil {
		s.unregisterHealth()
	}
}

// ---------------------------------------------------------------------------
// Containers

// Container is an app's sandbox: its event queue, its registered
// handlers and its lifecycle. It stands in for the paper's unprivileged
// Java thread: the app's code only ever runs on the container goroutine,
// holding a mediated API handle and no kernel references.
type Container struct {
	name   string
	shield *Shield
	app    App // retained so the supervisor can re-run Init
	api    API
	// sym is the app name interned once for the flight recorder.
	sym recorder.Sym

	events chan controller.Event

	hmu      sync.Mutex
	handlers map[controller.EventKind][]controller.Handler
	kernels  map[controller.EventKind]int // kernel subscription ids

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	workers  sync.WaitGroup

	// Supervisor state: health transitions, restart counting and the
	// sliding panic window (see supervisor.go).
	health     atomic.Int32 // Health; zero value is Running
	restarts   atomic.Uint64
	supMu      sync.Mutex
	panicTimes []time.Time
	streak     int    // consecutive failures since the last healthy run
	quarReason string // why the app was quarantined; guarded by supMu

	dropped atomic.Uint64
	panics  atomic.Uint64

	metrics appCounters
	// res is the container's live resource accounting and soft quota
	// (resources.go).
	res resourceState
}

// QuarantineReason reports why the container was quarantined ("" while it
// is not).
func (c *Container) QuarantineReason() string {
	c.supMu.Lock()
	defer c.supMu.Unlock()
	return c.quarReason
}

// Name returns the contained app's identity.
func (c *Container) Name() string { return c.name }

// DroppedEvents reports how many events overflowed the app's queue.
func (c *Container) DroppedEvents() uint64 { return c.dropped.Load() }

// Panics reports how many app panics the container absorbed.
func (c *Container) Panics() uint64 { return c.panics.Load() }

// Stop terminates the container's event loops.
func (c *Container) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.health.Store(int32(Stopped))
		// Unhook kernel subscriptions so no further events arrive.
		c.unhookAll()
	})
	<-c.done
	c.workers.Wait()
}

func (c *Container) safeInit(app App, api API) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			c.metrics.panics.Inc()
			auditApp(c.name, audit.VerdictPanic, fmt.Sprintf("init: %v", r))
			err = fmt.Errorf("app panicked during init: %v", r)
		}
	}()
	return app.Init(api)
}

// eventLoop delivers queued events to the app's handlers on a container
// goroutine, absorbing panics. A panicking handler hands the
// container to the supervisor (restart with backoff, quarantine past the
// panic budget); while the container is not Running, queued events drain
// without delivery.
func (c *Container) eventLoop() {
	c.res.goroutines.Add(1)
	defer c.res.goroutines.Add(-1)
	for {
		select {
		case <-c.stop:
			return
		case ev := <-c.events:
			if c.Health() != Running {
				c.dropped.Add(1)
				c.metrics.dropped.Inc()
				continue
			}
			if c.deliver(ev) {
				c.onPanic()
			}
		}
	}
}

// deliver fans one event out to the registered handlers, reporting
// whether any of them panicked.
func (c *Container) deliver(ev controller.Event) (panicked bool) {
	c.hmu.Lock()
	handlers := make([]controller.Handler, len(c.handlers[ev.Kind]))
	copy(handlers, c.handlers[ev.Kind])
	c.hmu.Unlock()
	for _, fn := range handlers {
		if c.safeHandle(fn, ev) {
			panicked = true
		}
	}
	return panicked
}

func (c *Container) safeHandle(fn controller.Handler, ev controller.Event) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			c.metrics.panics.Inc()
			auditApp(c.name, audit.VerdictPanic, fmt.Sprintf("handler for %v: %v", ev.Kind, r))
			panicked = true
		}
	}()
	fn(ev)
	return false
}

// subscribe wires an app handler: loading-time token check, kernel
// subscription (once per kind) with per-event permission filtering and
// payload redaction, and queued delivery into the container.
func (c *Container) subscribe(kind controller.EventKind, fn controller.Handler) error {
	token, ok := eventToken(kind)
	if !ok {
		return fmt.Errorf("isolation: unknown event kind %v", kind)
	}
	// Loading-time access control (§VIII): no token, no wiring at all.
	if !c.shield.engine.HasToken(c.name, token) {
		return &permengine.DeniedError{App: c.name, Token: token, Detail: "event subscription"}
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	c.handlers[kind] = append(c.handlers[kind], fn)
	if _, wired := c.kernels[kind]; !wired {
		id := c.shield.kernel.Subscribe(kind, func(ev controller.Event) {
			if !c.shield.allowEvent(c.name, ev) {
				return
			}
			ev = c.shield.redactEvent(c.name, ev)
			if c.shield.cfg.DropOnFullQueue {
				select {
				case c.events <- ev:
				case <-c.stop:
				default:
					c.dropped.Add(1)
					c.metrics.dropped.Inc()
				}
				return
			}
			select {
			case c.events <- ev:
			case <-c.stop:
			}
		})
		c.kernels[kind] = id
	}
	return nil
}

// redactEvent strips packet payloads from apps without read_payload.
func (s *Shield) redactEvent(app string, ev controller.Event) controller.Event {
	if ev.Kind != controller.EventPacketIn || ev.PacketIn == nil || ev.PacketIn.Packet == nil {
		return ev
	}
	if len(ev.PacketIn.Packet.Payload) == 0 {
		return ev
	}
	if s.engine.HasToken(app, core.TokenReadPayload) {
		return ev
	}
	pin := *ev.PacketIn
	pin.Packet = pin.Packet.Clone()
	pin.Packet.Payload = nil
	ev.PacketIn = &pin
	return ev
}
