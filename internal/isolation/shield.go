package isolation

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/topology"
)

// Config tunes the shielded runtime.
type Config struct {
	// KSDWorkers is the number of Kernel Service Deputy slots: how many
	// mediated calls run at once, each on its caller's goroutine (§VI-A's
	// parallel deputies). Default 4.
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
	// breaches stay soft — audit events and diagnostic bundles only.
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

// Shield is the SDNShield runtime: the permission engine, the KSD slots
// and the app containers.
type Shield struct {
	kernel *controller.Kernel
	engine *permengine.Engine
	cfg    Config

	// slots holds a token per running mediated call, blocked counts the
	// callers waiting for one; gate, held shared from a caller's stopped
	// check through its inflight.Add, orders calls before Stop's wait.
	slots    chan struct{}
	blocked  atomic.Int64
	gate     sync.RWMutex
	inflight sync.WaitGroup
	stopped  atomic.Bool

	mu         sync.Mutex
	containers map[string]*Container

	quotaStop chan struct{}
	quotaWG   sync.WaitGroup

	unregisterHealth func()
}

// NewShield builds the shielded runtime over a kernel. The permission
// engine resolves stateful filters against the kernel's shadow tables.
func NewShield(kernel *controller.Kernel, cfg Config) *Shield {
	cfg.fill()
	s := &Shield{
		kernel:     kernel,
		engine:     permengine.New(kernel),
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.KSDWorkers),
		containers: make(map[string]*Container),
	}
	s.unregisterHealth = registerHealth(s)
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

// Activate installs an app's reconciled grant — permission set, budget
// and provenance — as one engine write and, under mu as Launch does,
// re-derives a launched app's view from the engine: a gained or lost
// single-big-switch filter applies from its next call. The grant is the
// app's whether it is launched or not, so its budget holds from the
// app's first launch and across relaunches.
func (s *Shield) Activate(app string, g permengine.Grant) {
	s.engine.Activate(app, g)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.containers[app]; ok {
		c.virt.Store(virtFor(s, app))
	}
}

// SetPermissions activates a grant of the set alone: no budget, no
// provenance.
func (s *Shield) SetPermissions(app string, set *core.Set) {
	s.Activate(app, permengine.Grant{Set: set})
}

// request is one mediated call in one pooled record: the op and its
// caller, whose origin carries the call's sampling decision, the
// translator it was issued under, the call's own arguments, the call the
// engine checks and the results. Its caller owns it from get to put and
// reads the results before it puts it back.
type request struct {
	a    *shieldedAPI
	op   *mediatedOp
	org  controller.Origin
	virt *translator // the app's view when the call was issued; nil: physical

	args
	match of.Match     // what spec.Match points at
	acts  [4]of.Action // what spec.Actions points into, unless longer
	call  core.Call    // the call checked; a listing's rows reuse it

	flows       []*flowtable.Entry
	flowStats   []of.FlowStatsEntry
	portStats   []of.PortStatsEntry
	switchStats of.SwitchStats
	switches    []topology.SwitchInfo
	links       []topology.Link
	hosts       []topology.Host
	ok          bool
	conn        *hostsim.Conn
}

// args are one call's arguments. Decision and effect read only the
// request's copy: what an app does with what it passed changes nothing.
type args struct {
	dpid     of.DPID
	spec     controller.FlowSpec // a flow op's match, priority and actions
	pkt      *of.Packet
	strict   bool
	bufferID uint32
	port     uint16
	ip       of.IPv4
	link     topology.Link
	path     string
	value    interface{}
	data     []byte
}

var requests = sync.Pool{New: func() any { return new(request) }}

// request takes a request for one call of op from the pool and copies the
// arguments in, on the caller: the match by value (nil as the match-all
// it stands for), the actions into the inline array (nil stays nil), an
// inline packet into a clone the packet-out sent will carry.
func (a *shieldedAPI) request(op *mediatedOp, in args) *request {
	r := requests.Get().(*request)
	r.a, r.op, r.args = a, op, in
	if in.spec.Match != nil {
		r.match = *in.spec.Match
	}
	r.spec.Match = &r.match
	if in.spec.Actions != nil {
		r.spec.Actions = append(r.acts[:0], in.spec.Actions...)
	}
	r.pkt = in.pkt.Clone()
	return r
}

// put clears r, dropping every reference it holds, and pools it.
func (r *request) put() {
	*r = request{}
	requests.Put(r)
}

// hop runs r on its caller's goroutine under a deputy slot (§VI-A's KSD):
// the capability is the API value, not the thread, so a deputy is a slot,
// not a goroutine. A call that finds every slot taken blocks on the send
// behind the callers already waiting, in order: they are the KSD queue.
// The call's one sampling decision, its ordinal among its app's calls (the
// count /apps reports), is taken first and travels in r.org to the engine
// and the kernel; a request without a container is not numbered and so
// never measured. Unsampled calls read no clock for their instrumentation
// (time.Now() costs tens of nanoseconds against a microsecond call): the
// hop, the engine and the kernel op time only measured calls, and the
// audit journal stamps an event's Time when it drains the event, once per
// batch. The reads left outside the sample are not per-call measurement:
// the shadow table stamps a rule's install time, the engine a retained
// denial's, and the kernel times a stats request's switch round trip
// whenever obs is on. Measured calls share their timestamps between the
// hop histogram, r's op's latency histogram, the resource accounting
// (scaled back to full rate by the sampling period) and — for every
// traceOneIn-th of them — the call's spans under r.org's corr
// (/trace/<corr>, /traces). Every decided call, sampled or not, leaves its
// permission event in the audit journal under the same corr.
//
// A call racing Stop either passes its stopped check, and then completes
// before Stop returns, or returns ErrShieldStopped.
func (s *Shield) hop(r *request) error {
	s.gate.RLock()
	if s.stopped.Load() {
		s.gate.RUnlock()
		return ErrShieldStopped
	}
	s.inflight.Add(1)
	s.gate.RUnlock()
	defer s.inflight.Done()
	c := r.a.container
	if c != nil {
		r.org.Sample = obs.NewSample(c.res.calls.Add(1))
		c.res.goroutines.Add(1)
		defer c.res.goroutines.Add(-1)
	}
	// Only a numbered call — one with a container — is measured or in a
	// side cut, so c is set wherever it is used below.
	sample, nth := r.org.Sample, r.org.Sample.Measured()
	var enq, start time.Time
	if nth != 0 {
		enq = time.Now()
	}
	select {
	case s.slots <- struct{}{}:
	default:
		mKSDQueueDepth.Set(s.blocked.Add(1))
		s.slots <- struct{}{}
		mKSDQueueDepth.Set(s.blocked.Add(-1))
	}
	if nth != 0 {
		start = time.Now()
	}
	bracket := sample.OneIn(allocOneIn)
	var allocBefore int64
	if bracket {
		allocBefore = heapAllocBytes()
	}
	err := s.protect(r)
	<-s.slots
	if bracket {
		if delta := heapAllocBytes() - allocBefore; delta > 0 {
			c.res.allocBytes.Add(delta * allocOneIn)
		}
	}
	if nth == 0 {
		return err
	}
	end := time.Now()
	wait, exec := start.Sub(enq), end.Sub(start)
	mKSDHopSeconds.Observe(wait)
	c.res.account(exec, wait, sample.Every)
	if d := end.Sub(enq); nth%traceOneIn == 0 {
		// The call's spans are in the collector before it returns, under
		// the corr its audit events carry; the exemplar names the same ID.
		r.op.hist.ObserveTraced(d, r.org.Corr, enq)
		root := span.Mediated(r.org.Corr, r.op.name, audit.TenantOf(c.name), enq, d)
		span.Add(root, "ksd_queue", enq, wait)
		span.Add(root, "exec", enq.Add(wait), exec)
	} else {
		r.op.hist.Observe(d)
	}
	return err
}

// protect runs r's op — its decision, then its effect; a physical switch
// mutation's effect decides under the kernel's lock — shielding the
// caller from it: a panic inside a mediated call becomes an error for the
// caller (and is counted on the engine) instead of unwinding its
// goroutine with the slot held.
func (s *Shield) protect(r *request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.engine.CountAPIPanic()
			err = fmt.Errorf("isolation: panic in mediated API call: %v", p)
		}
	}()
	if r.op.kind == 0 || r.virt != nil {
		if err := r.op.decide(r); err != nil {
			return err
		}
	}
	return r.op.effect(r)
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
		events:   make(chan controller.Event, s.cfg.EventQueueSize),
		handlers: make(map[controller.EventKind][]controller.Handler),
		kernels:  make(map[controller.EventKind]int),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		metrics:  newAppCounters(name),
	}
	c.virt.Store(virtFor(s, name))
	s.containers[name] = c
	s.mu.Unlock()
	registerAppGauges(c)

	api := &shieldedAPI{name: name, shield: s, container: c}
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
	return &shieldedAPI{name: app, shield: s, container: c}, nil
}

// Container returns a launched app's container.
func (s *Shield) Container(name string) (*Container, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[name]
	return c, ok
}

// launched lists the launched containers.
func (s *Shield) launched() []*Container {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Container, 0, len(s.containers))
	for _, c := range s.containers {
		out = append(out, c)
	}
	return out
}

func (s *Shield) removeContainer(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.containers, name)
}

// Stop terminates every container and waits for the mediated calls in
// flight.
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
	// Calls past their stopped check are counted in flight; all finish.
	s.gate.Lock()
	s.gate.Unlock()
	s.inflight.Wait()
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
	// virt is the view every handle of the app calls under (virtFor),
	// set at Launch and on every Activate.
	virt atomic.Pointer[translator]

	events chan controller.Event

	// handlers' slices are copy-on-write: subscribe and unhookAll publish
	// new ones under hmu, so deliver iterates the one it read uncopied.
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
	// deliveries numbers the events checked for delivery to the app, for
	// each check's sampling decision.
	deliveries atomic.Uint64

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
	handlers := c.handlers[ev.Kind]
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
	c.handlers[kind] = append(slices.Clip(c.handlers[kind]), fn)
	if _, wired := c.kernels[kind]; !wired {
		id := c.shield.kernel.Subscribe(kind, func(ev controller.Event) {
			if !c.shield.allowEvent(c, ev) {
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
