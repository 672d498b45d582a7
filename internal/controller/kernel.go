// Package controller implements the SDN controller kernel the SDNShield
// prototype plugs into: OpenFlow session management, the controller-side
// shadow of every switch's flow table (with per-app ownership, the state
// SDNShield's OWN_FLOWS and MAX_RULE_COUNT filters consult), a topology
// view, synchronous statistics queries, a model-driven data store (the
// OpenDaylight-style northbound used by the ALTO scenario) and an event
// bus.
//
// The kernel itself performs no permission checking — it is the trusted
// computing base. internal/isolation wraps its services per app and
// routes every call through the permission engine, mirroring the paper's
// kernel/app split (§VI-A).
package controller

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// Origin attributes a kernel request to the mediated app call that
// caused it: the calling app, the correlation ID minted at the isolation
// boundary and the call's sampling decision, which the kernel's op
// latencies follow. The zero Origin means "no call provenance"
// (kernel-internal or legacy callers) and is never measured.
type Origin struct {
	App    string
	Corr   uint64
	Sample obs.Sample
}

// start is when a kernel op on org's behalf began: now for a measured
// call, zero otherwise.
func (org Origin) start() time.Time {
	if org.Sample.Measured() == 0 {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records the latency of a measurement begun at start; a
// zero start is an unmeasured one.
func observeSince(h *obs.Histogram, start time.Time) {
	if !start.IsZero() {
		h.Observe(time.Since(start))
	}
}

// auditWire records the outcome of a wire-level send attributed to org
// as an audit event carrying org's correlation ID, so the journal follows
// one mediated call from the isolation boundary down to the wire.
func auditWire(kind audit.Kind, org Origin, op string, dpid of.DPID, sendErr error) {
	if !audit.On() {
		return
	}
	ev := audit.Event{
		Kind:    kind,
		Verdict: audit.VerdictSent,
		App:     org.App,
		Corr:    org.Corr,
		Op:      op,
		DPID:    uint64(dpid),
	}
	if sendErr != nil {
		ev.Verdict = audit.VerdictSendFailed
		ev.Detail = sendErr.Error()
	}
	audit.Emit(ev)
}

// ErrUnknownSwitch reports an operation against an unregistered DPID.
var ErrUnknownSwitch = errors.New("controller: unknown switch")

// ErrTimeout reports a synchronous request that got no reply in time.
var ErrTimeout = errors.New("controller: request timed out")

// ErrSwitchDisconnected reports an operation against a switch whose
// session died: the connection failed, or liveness probing declared the
// switch dead. Unlike ErrTimeout it surfaces immediately — pending
// requests do not ride out the request timeout.
var ErrSwitchDisconnected = errors.New("controller: switch disconnected")

// recentBuffers bounds the per-switch packet-in provenance window.
const recentBuffers = 4096

// swHandle is the kernel's per-switch session state.
type swHandle struct {
	dpid  of.DPID
	conn  of.Conn
	table *flowtable.Table // the switch's shadow
	// apply is held by Apply across a batch; not mu, which recvLoop takes
	// to hand a reply over, so a send must not hold it.
	apply sync.Mutex

	xid atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]chan of.Message
	// buffers tracks recently seen packet-in buffer ids, the provenance
	// witness behind the FROM_PKT_IN packet-out filter.
	buffers map[uint32]bool
	bufFIFO []uint32

	// events decouples handler execution from the receive loop, so
	// handlers can issue synchronous switch requests (stats, barriers)
	// without deadlocking the reply path.
	events chan of.Message

	// pendingRemovals remembers the owners of entries the controller just
	// deleted, keyed by match+priority, so the switch's FlowRemoved
	// notification can still report the owner after the shadow entry is
	// gone.
	pendingRemovals map[string]string

	// closed is shut on session teardown; every waiter on a synchronous
	// request selects on it so disconnects surface immediately.
	closeOnce sync.Once
	closed    chan struct{}

	done         chan struct{}
	dispatchDone chan struct{}
	probeDone    chan struct{} // nil when liveness probing is disabled
}

func (h *swHandle) nextXID() uint32 { return h.xid.Add(1) }

// removalKey identifies a deleted entry for owner resolution.
func removalKey(m *of.Match, priority uint16) string {
	return m.Key() + "|" + strconv.Itoa(int(priority))
}

// subscription is one registered event handler.
type subscription struct {
	id int
	fn Handler
}

// subTable holds the subscriptions per event kind, in subscription order.
type subTable map[EventKind][]subscription

// switchMap holds the connected switches' sessions by DPID.
type switchMap map[of.DPID]*swHandle

// Kernel is the trusted controller core.
type Kernel struct {
	topo *topology.Topology
	host *hostsim.HostOS
	cfg  KernelConfig

	jmu   sync.Mutex
	jrand *rand.Rand // backoff jitter, seeded for reproducibility

	// switches is copy-on-write: AcceptSwitch and teardown publish a new
	// map under mu, so Apply and handle read the current one without a
	// lock.
	mu       sync.Mutex
	switches atomic.Pointer[switchMap]

	// subs is copy-on-write: Subscribe and Unsubscribe publish a new
	// table under subMu, so emit reads the current one without a lock.
	subMu   sync.Mutex
	subs    atomic.Pointer[subTable]
	nextSub int // guarded by subMu

	modelMu sync.RWMutex
	model   map[string]interface{}

	closed atomic.Bool
}

// New builds a kernel around a topology view and host OS. Both may be
// nil, in which case fresh instances are created. An optional
// KernelConfig tunes session resilience (request timeout, retries,
// liveness probing); omitting it keeps the historical defaults.
func New(topo *topology.Topology, host *hostsim.HostOS, cfg ...KernelConfig) *Kernel {
	if topo == nil {
		topo = topology.New()
	}
	if host == nil {
		host = hostsim.NewHostOS()
	}
	var c KernelConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	c.fill()
	k := &Kernel{
		topo:  topo,
		host:  host,
		cfg:   c,
		jrand: rand.New(rand.NewSource(c.Seed)),
		model: make(map[string]interface{}),
	}
	k.switches.Store(&switchMap{})
	k.subs.Store(&subTable{})
	return k
}

// Config returns the kernel's resolved session configuration.
func (k *Kernel) Config() KernelConfig { return k.cfg }

// Topology exposes the kernel's topology view.
func (k *Kernel) Topology() *topology.Topology { return k.topo }

// HostOS exposes the simulated host operating system.
func (k *Kernel) HostOS() *hostsim.HostOS { return k.host }

// AcceptSwitch performs the OpenFlow handshake on a fresh control
// connection, registers the switch and starts its receive loop.
func (k *Kernel) AcceptSwitch(conn of.Conn) (of.DPID, error) {
	features, err := k.handshake(conn)
	if err != nil {
		return 0, err
	}

	h := &swHandle{
		dpid:            features.DPID,
		conn:            conn,
		table:           flowtable.New(0),
		pending:         make(map[uint32]chan of.Message),
		buffers:         make(map[uint32]bool),
		pendingRemovals: make(map[string]string),
		events:          make(chan of.Message, 4096),
		closed:          make(chan struct{}),
		done:            make(chan struct{}),
		dispatchDone:    make(chan struct{}),
	}
	// Session xids start above every handshake xid, so a late or
	// duplicated handshake reply never matches a live request.
	h.xid.Store(max(100, uint32(2*(k.cfg.MaxRetries+1))))

	k.mu.Lock()
	if _, dup := (*k.switches.Load())[features.DPID]; dup {
		k.mu.Unlock()
		return 0, fmt.Errorf("controller: switch %v already connected", features.DPID)
	}
	switches := maps.Clone(*k.switches.Load())
	switches[features.DPID] = h
	k.switches.Store(&switches)
	k.mu.Unlock()

	k.topo.AddSwitch(features.DPID, features.Ports)
	k.emit(Event{Kind: EventTopology, TopoChange: &TopoChange{What: "switch-added", DPID: features.DPID}})

	mSessionsAccepted.Inc()
	mSwitchSessions.Add(1)
	if audit.On() {
		audit.Emit(audit.Event{Kind: audit.KindSwitch, Verdict: audit.VerdictConnect, DPID: uint64(features.DPID)})
	}

	go k.recvLoop(h)
	go k.dispatchLoop(h)
	if k.cfg.ProbeInterval > 0 {
		h.probeDone = make(chan struct{})
		go k.probeLoop(h)
	}
	return features.DPID, nil
}

// handshake sends Hello and FeaturesRequest and waits for the switch's
// FeaturesReply under the request retry policy: an attempt that sees no
// reply within RequestTimeout is sent again after the backoff, up to
// MaxRetries times, and ErrTimeout comes only when the last attempt has
// timed out too. Attempt n sends xids 2n+1 and 2n+2, so the clean path
// sends xids 1 and 2 and a resend carries fresh ones. Any FeaturesReply
// completes the handshake; Hellos and anything else the switch sends
// before its features are ignored.
func (k *Kernel) handshake(conn of.Conn) (*of.FeaturesReply, error) {
	// The deadline must bound the Recv itself, not just the loop: a
	// switch that goes silent mid-handshake would otherwise block
	// AcceptSwitch forever. One reader goroutine at a time owns Recv.
	type recvRes struct {
		msg of.Message
		err error
	}
	recvCh := make(chan recvRes, 1)
	recv := func() {
		m, err := conn.Recv()
		recvCh <- recvRes{msg: m, err: err}
	}
	// wait returns the FeaturesReply that arrives within d, nil if none
	// does.
	wait := func(d time.Duration) (*of.FeaturesReply, error) {
		timer := time.NewTimer(d)
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				return nil, nil
			case r := <-recvCh:
				if r.err != nil {
					return nil, fmt.Errorf("handshake: %w", r.err)
				}
				if m, ok := r.msg.(*of.FeaturesReply); ok {
					return m, nil
				}
				go recv()
			}
		}
	}
	go recv()
	for attempt := 0; attempt <= k.cfg.MaxRetries; attempt++ {
		xid := uint32(2*attempt + 1)
		if err := conn.Send(&of.Hello{Header: of.Header{Xid: xid}}); err != nil {
			conn.Close() // unblock the pending reader
			return nil, fmt.Errorf("hello: %w", err)
		}
		if err := conn.Send(&of.FeaturesRequest{Header: of.Header{Xid: xid + 1}}); err != nil {
			conn.Close()
			return nil, fmt.Errorf("features request: %w", err)
		}
		if m, err := wait(k.cfg.RequestTimeout); m != nil || err != nil {
			return m, err
		}
		if attempt == k.cfg.MaxRetries {
			break
		}
		mRetries.Inc()
		if m, err := wait(k.backoff(attempt + 1)); m != nil || err != nil {
			return m, err
		}
	}
	conn.Close()
	mRequestTimeouts.Inc()
	return nil, ErrTimeout
}

// Stop closes every switch connection and waits for the receive loops.
func (k *Kernel) Stop() {
	if k.closed.Swap(true) {
		return
	}
	switches := *k.switches.Load()
	handles := make([]*swHandle, 0, len(switches))
	for _, h := range switches {
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.conn.Close()
		<-h.done
		<-h.dispatchDone
		if h.probeDone != nil {
			<-h.probeDone
		}
	}
}

// Switches returns the connected DPIDs via the topology view.
func (k *Kernel) Switches() []topology.SwitchInfo { return k.topo.Switches() }

// handle is a connected switch's session, nil for an unknown DPID.
func (k *Kernel) handle(dpid of.DPID) *swHandle {
	return (*k.switches.Load())[dpid]
}

func unknownSwitch(dpid of.DPID) error { return fmt.Errorf("%w: %v", ErrUnknownSwitch, dpid) }

func (k *Kernel) recvLoop(h *swHandle) {
	defer close(h.done)
	defer close(h.events)
	defer k.teardown(h)
	for {
		msg, err := h.conn.Recv()
		if err != nil {
			return
		}
		// Correlated reply?
		h.mu.Lock()
		ch, waiting := h.pending[msg.XID()]
		if waiting {
			delete(h.pending, msg.XID())
		}
		h.mu.Unlock()
		if waiting {
			ch <- msg
			continue
		}
		// Hand the message to the dispatcher so handlers may perform
		// synchronous requests over this same connection.
		h.events <- msg
	}
}

// teardown tears a switch session down: it closes the connection, fails
// every pending synchronous request immediately (waiters observe
// h.closed) and, unless the kernel itself is stopping, forgets the
// switch and emits a topology event. Idempotent — it is reached from the
// receive loop on connection errors and from the probe loop on liveness
// failure, possibly concurrently.
func (k *Kernel) teardown(h *swHandle) {
	h.closeOnce.Do(func() {
		close(h.closed)
		mSessionTeardowns.Inc()
		mSwitchSessions.Add(-1)
		// Kernel shutdown tears every session down; only organic session
		// loss is an auditable security event.
		if !k.closed.Load() && audit.On() {
			audit.Emit(audit.Event{Kind: audit.KindSwitch, Verdict: audit.VerdictDisconnect, DPID: uint64(h.dpid)})
		}
	})
	h.conn.Close()
	// Drop the pending map so late replies cannot land on waiters that
	// already returned ErrSwitchDisconnected.
	h.mu.Lock()
	h.pending = make(map[uint32]chan of.Message)
	h.mu.Unlock()
	if k.closed.Load() {
		return
	}
	k.mu.Lock()
	if (*k.switches.Load())[h.dpid] != h {
		k.mu.Unlock()
		return
	}
	switches := maps.Clone(*k.switches.Load())
	delete(switches, h.dpid)
	k.switches.Store(&switches)
	k.mu.Unlock()
	k.topo.RemoveSwitch(h.dpid)
	k.emit(Event{Kind: EventTopology, TopoChange: &TopoChange{What: "switch-removed", DPID: h.dpid}})
}

// probeLoop sends periodic echo requests and declares the switch dead
// after ProbeMisses consecutive unanswered probes — the liveness
// protocol that turns a silently wedged switch into a clean teardown.
func (k *Kernel) probeLoop(h *swHandle) {
	defer close(h.probeDone)
	ticker := time.NewTicker(k.cfg.ProbeInterval)
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-h.closed:
			return
		case <-ticker.C:
			msg := &of.EchoRequest{Header: of.Header{Xid: h.nextXID()}}
			mProbes.Inc()
			if _, err := k.requestOnce(h, msg, k.cfg.ProbeTimeout); err != nil {
				if errors.Is(err, ErrSwitchDisconnected) {
					return
				}
				misses++
				mProbeMisses.Inc()
				if misses >= k.cfg.ProbeMisses {
					k.teardown(h)
					return
				}
			} else {
				misses = 0
			}
		}
	}
}

// dispatchLoop runs the switch's asynchronous message handling.
func (k *Kernel) dispatchLoop(h *swHandle) {
	defer close(h.dispatchDone)
	for msg := range h.events {
		k.dispatch(h, msg)
	}
}

func (k *Kernel) dispatch(h *swHandle, msg of.Message) {
	switch m := msg.(type) {
	case *of.PacketIn:
		h.mu.Lock()
		h.buffers[m.BufferID] = true
		h.bufFIFO = append(h.bufFIFO, m.BufferID)
		for len(h.bufFIFO) > recentBuffers {
			delete(h.buffers, h.bufFIFO[0])
			h.bufFIFO = h.bufFIFO[1:]
		}
		h.mu.Unlock()
		k.emit(Event{Kind: EventPacketIn, PacketIn: m})
	case *of.FlowRemoved:
		// Mirror switch-initiated removals (timeouts) into the shadow
		// table, capturing the owner first so OWN_FLOWS event filters can
		// see it. Controller-initiated deletes already updated the shadow
		// when they were issued; re-deleting here could erase an entry
		// reinstalled in the meantime (e.g. a transaction rollback).
		key := removalKey(m.Match, m.Priority)
		h.mu.Lock()
		owner := h.pendingRemovals[key]
		delete(h.pendingRemovals, key)
		h.mu.Unlock()
		if owner == "" {
			owner, _ = h.table.OwnerOf(m.Match, m.Priority)
		}
		if m.Reason != of.RemovedDelete {
			h.table.Delete(m.Match, m.Priority, true)
		}
		k.emit(Event{Kind: EventFlowRemoved, FlowRemoved: m, FlowOwner: owner})
	case *of.PortStatus:
		what := "port-up"
		if !m.Port.Up {
			what = "port-down"
		}
		k.emit(Event{Kind: EventPortStatus, PortStatus: m})
		k.emit(Event{Kind: EventTopology, TopoChange: &TopoChange{What: what, DPID: m.DPID, Port: m.Port.Port}})
	case *of.Error:
		k.emit(Event{Kind: EventError, Error: m})
	case *of.EchoRequest:
		_ = h.conn.Send(&of.EchoReply{Header: of.Header{Xid: m.Xid}, Data: m.Data})
	default:
		// Unsolicited replies (stats, barriers) without a waiter are
		// dropped.
	}
}

// emit fans an event out to its subscribers, in subscription order.
func (k *Kernel) emit(ev Event) {
	for _, s := range (*k.subs.Load())[ev.Kind] {
		s.fn(ev)
	}
}

// Subscribe registers an event handler and returns its id.
func (k *Kernel) Subscribe(kind EventKind, fn Handler) int {
	k.subMu.Lock()
	defer k.subMu.Unlock()
	k.nextSub++
	subs := maps.Clone(*k.subs.Load())
	subs[kind] = append(slices.Clip(subs[kind]), subscription{k.nextSub, fn})
	k.subs.Store(&subs)
	return k.nextSub
}

// Unsubscribe removes a handler by id.
func (k *Kernel) Unsubscribe(kind EventKind, id int) {
	k.subMu.Lock()
	defer k.subMu.Unlock()
	subs := maps.Clone(*k.subs.Load())
	subs[kind] = slices.DeleteFunc(slices.Clone(subs[kind]), func(s subscription) bool { return s.id == id })
	k.subs.Store(&subs)
}

// request sends msg and blocks for the reply carrying the same xid,
// retrying timed-out attempts with exponential backoff and jitter up to
// MaxRetries times. Disconnects are never retried: the session is gone
// and the caller should fail fast.
func (k *Kernel) request(h *swHandle, msg of.Message) (of.Message, error) {
	var start time.Time
	if obs.On() {
		start = time.Now()
	}
	reply, err := k.requestOnce(h, msg, k.cfg.RequestTimeout)
	for attempt := 1; attempt <= k.cfg.MaxRetries && errors.Is(err, ErrTimeout); attempt++ {
		mRetries.Inc()
		// A stopped timer, not time.After: a disconnect mid-backoff must
		// not leave the wait's timer live until it fires.
		backoff := time.NewTimer(k.backoff(attempt))
		select {
		case <-backoff.C:
		case <-h.closed:
			backoff.Stop()
			mRequestDisconnects.Inc()
			return nil, ErrSwitchDisconnected
		}
		reply, err = k.requestOnce(h, msg, k.cfg.RequestTimeout)
	}
	observeSince(mRequestSeconds, start)
	switch {
	case errors.Is(err, ErrTimeout):
		mRequestTimeouts.Inc()
		// Retries are exhausted: the switch is reachable but unresponsive,
		// which forensics should distinguish from a clean disconnect.
		if audit.On() {
			audit.Emit(audit.Event{
				Kind:    audit.KindSwitch,
				Verdict: audit.VerdictRetryExhausted,
				DPID:    uint64(h.dpid),
				Op:      fmt.Sprintf("%T", msg),
			})
		}
	case errors.Is(err, ErrSwitchDisconnected):
		mRequestDisconnects.Inc()
	}
	return reply, err
}

// backoff computes the jittered exponential delay before retry #attempt.
func (k *Kernel) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := k.cfg.RetryBackoff << shift
	if j := k.cfg.BackoffJitter; j > 0 {
		k.jmu.Lock()
		f := 1 + j*(2*k.jrand.Float64()-1)
		k.jmu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// waiter is one synchronous request's reply slot and timer, pooled across
// round trips.
type waiter struct {
	ch    chan of.Message
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan of.Message, 1), timer: t}
}}

// requestOnce performs one send/wait round trip. Reusing the message's
// xid across attempts is deliberate: a late reply to an earlier attempt
// satisfies the current one, and surplus replies are dropped by the
// dispatcher.
//
// Only a waiter whose reply arrived goes back to the pool. After a
// timeout, a disconnect or a failed send, recvLoop may have taken the
// waiter's channel from the pending map already and still send on it,
// and that late reply would land in the next request's channel.
func (k *Kernel) requestOnce(h *swHandle, msg of.Message, timeout time.Duration) (of.Message, error) {
	select {
	case <-h.closed:
		return nil, ErrSwitchDisconnected
	default:
	}
	w := waiters.Get().(*waiter)
	h.mu.Lock()
	h.pending[msg.XID()] = w.ch
	h.mu.Unlock()
	unregister := func() {
		h.mu.Lock()
		delete(h.pending, msg.XID())
		h.mu.Unlock()
	}
	if err := h.conn.Send(msg); err != nil {
		unregister()
		return nil, fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
	}
	w.timer.Reset(timeout)
	select {
	case reply := <-w.ch:
		if !w.timer.Stop() {
			// It fired meanwhile: drain the tick so the next Reset
			// starts clean.
			select {
			case <-w.timer.C:
			default:
			}
		}
		waiters.Put(w)
		return reply, nil
	case <-h.closed:
		w.timer.Stop()
		unregister()
		return nil, ErrSwitchDisconnected
	case <-w.timer.C:
		unregister()
		return nil, ErrTimeout
	}
}

// ---------------------------------------------------------------------------
// Flow service

// FlowSpec names the parameters of a flow insertion/modification.
type FlowSpec struct {
	Match       *of.Match
	Priority    uint16
	Actions     []of.Action
	IdleTimeout uint16
	HardTimeout uint16
	Cookie      uint64
}

// Op is what a Mutation does to its switch.
type Op uint8

// The mutation ops. OpPacketOut changes no table, so it has no undo.
const (
	OpInsert    Op = iota + 1 // install Spec, replacing the rule of equal match and priority
	OpModify                  // rewrite the actions of the rules Spec.Match subsumes
	OpDelete                  // remove the rules Spec.Match subsumes, or (Strict) the equal one
	OpPacketOut               // inject Packet, or buffered BufferID, from InPort with Spec.Actions
)

// Mutation is one change of a batch (Apply): an Op on one switch.
type Mutation struct {
	Op       Op
	DPID     of.DPID
	Spec     FlowSpec
	Strict   bool
	BufferID uint32
	InPort   uint16
	Packet   *of.Packet
}

// Apply is the kernel's one mutation primitive. It resolves the batch's
// switches under one read of the switch map (an unknown DPID fails it
// before any change) and takes their apply locks in DPID order. Per
// mutation it calls guard (nil admits all), which sees the shadow as the
// earlier mutations left it, then changes the shadow and logs the undo;
// then it sends all in order under the same locks. A denial, a full table
// or a failed send undoes the batch in reverse: inverse messages for what
// went out, then the shadow. Apply returns len(batch), or the failed
// index and why, joined (errors.Join) with the inverse messages a live
// session refused, whose changes the shadow keeps, as the switch does.
// Atomicity covers the shadow and the result, not packets in flight;
// listings take no apply lock and may see a batch in progress.
func (k *Kernel) Apply(org Origin, batch []Mutation, guard func(i int) error) (n int, err error) {
	start := org.start()
	hs, log := make([]*swHandle, 0, 1), make([]applied, 0, 1) // a batch of one on the stack
	switches := *k.switches.Load()
	for i := range batch {
		h, ok := switches[batch[i].DPID]
		if !ok {
			return i, unknownSwitch(batch[i].DPID)
		}
		hs = append(hs, h)
	}
	locked := hs
	if len(hs) > 1 {
		locked = slices.Clone(hs)
		slices.SortFunc(locked, func(a, b *swHandle) int { return cmp.Compare(a.dpid, b.dpid) })
		locked = slices.Compact(locked)
	}
	for _, h := range locked {
		h.apply.Lock()
	}
	sent := 0 // mutations that went out
	defer func() {
		// Short of len(batch), the batch failed or a guard panicked.
		var errs []error
		for i := len(log) - 1; n < len(batch) && i >= 0; i-- {
			if rerr := hs[i].revert(org, &log[i], i < sent); rerr != nil {
				errs = append(errs, rerr)
			}
		}
		if errs != nil {
			err = errors.Join(append([]error{err}, errs...)...)
		}
		for _, h := range locked {
			h.apply.Unlock()
		}
	}()
	for i := range batch {
		if guard != nil {
			err = guard(i)
		}
		if err == nil {
			log = append(log, applied{op: batch[i].Op})
			if err = hs[i].change(&batch[i], org.App, &log[i]); err != nil {
				log = log[:i] // change fails before it changes anything
			}
		}
		if err != nil {
			return i, err
		}
	}
	for i := range batch {
		op := &ops[batch[i].Op]
		err := hs[i].conn.Send(log[i].msg)
		auditWire(op.kind, org, op.name, batch[i].DPID, err)
		observeSince(op.hist, start)
		if err != nil {
			return i, fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
		}
		sent++
	}
	return len(batch), nil
}

// applied is one mutation's undo log entry: the message carrying it, and
// the rules that put the shadow back — the one an insert replaced, or
// (added) the new one it takes out; the ones a modify rewrote or a delete
// removed.
type applied struct {
	op      Op
	msg     of.Message
	added   bool
	rule    flowtable.Entry
	entries []*flowtable.Entry
}

// change applies m to the switch's shadow and fills in its log entry.
func (h *swHandle) change(m *Mutation, owner string, rec *applied) (err error) {
	var fm *of.FlowMod
	switch m.Op {
	case OpInsert:
		rule := flowtable.Entry{Match: m.Spec.Match, Priority: m.Spec.Priority, Actions: m.Spec.Actions,
			Cookie: m.Spec.Cookie, Owner: owner, IdleTimeout: m.Spec.IdleTimeout, HardTimeout: m.Spec.HardTimeout}
		var replaced bool
		if rec.rule, replaced, err = h.table.Swap(&rule); err != nil {
			return err
		}
		if rec.rule.Match = rule.Match; !replaced {
			rec.added, rec.rule = true, rule
		}
		// The flow-mod outlives the call — the in-memory pipe hands the
		// switch the message itself — so it carries the shadow rule's match
		// and actions, which nothing mutates, rather than the caller's.
		fm = addMod(&rule)
	case OpModify:
		rec.entries = h.table.Entries(m.Spec.Match)
		h.table.Modify(m.Spec.Match, m.Spec.Priority, false, m.Spec.Actions)
		fm = &of.FlowMod{Command: of.FlowModify, Match: ownMatch(m.Spec.Match), Priority: m.Spec.Priority,
			Actions: of.CloneActions(m.Spec.Actions)}
	case OpDelete:
		rec.entries = h.table.Delete(m.Spec.Match, m.Spec.Priority, m.Strict)
		h.mu.Lock()
		for _, e := range rec.entries {
			h.pendingRemovals[removalKey(e.Match, e.Priority)] = e.Owner
		}
		// Bound the map against notifications that never arrive.
		if len(h.pendingRemovals) > 8192 {
			h.pendingRemovals = make(map[string]string)
		}
		h.mu.Unlock()
		fm = &of.FlowMod{Command: of.FlowDelete, Match: ownMatch(m.Spec.Match), Priority: m.Spec.Priority}
		if m.Strict {
			fm.Command = of.FlowDeleteStrict
		}
	case OpPacketOut:
		// The packet-out outlives the call (see ownMatch), so it carries its
		// own copy of the actions, held in the message's own allocation.
		msg := &struct {
			of.PacketOut
			acts [4]of.Action
		}{PacketOut: of.PacketOut{Header: of.Header{Xid: h.nextXID()}, DPID: h.dpid, InPort: m.InPort,
			BufferID: m.BufferID, Packet: m.Packet}}
		if m.Spec.Actions != nil {
			msg.Actions = append(msg.acts[:0], m.Spec.Actions...)
		}
		rec.msg = &msg.PacketOut
		return nil
	}
	fm.Xid, fm.DPID = h.nextXID(), h.dpid
	rec.msg = fm
	return nil
}

// addMod is the flow-mod that installs rule e.
func addMod(e *flowtable.Entry) *of.FlowMod {
	return &of.FlowMod{Command: of.FlowAdd, Match: e.Match, Priority: e.Priority, IdleTimeout: e.IdleTimeout,
		HardTimeout: e.HardTimeout, Cookie: e.Cookie, Actions: e.Actions}
}

// revert takes one logged change back, rule by rule: for a change that
// went out, the inverse flow-mod first, so one a live session refuses
// leaves its rule in the shadow as on the switch. Once the session has
// ended, a failed inverse is none: the switch's rules went with it.
func (h *swHandle) revert(org Origin, rec *applied, sent bool) error {
	rules := rec.entries
	switch {
	case rec.op == OpInsert:
		rules = []*flowtable.Entry{&rec.rule}
	case rec.op == OpDelete && !sent:
		h.mu.Lock()
		for _, e := range rules {
			delete(h.pendingRemovals, removalKey(e.Match, e.Priority))
		}
		h.mu.Unlock()
	}
	for _, e := range rules {
		if sent {
			op, fm := OpInsert, addMod(e)
			if rec.added {
				op, fm.Command, fm.Actions = OpDelete, of.FlowDeleteStrict, nil
			}
			fm.Xid, fm.DPID = h.nextXID(), h.dpid
			err := h.conn.Send(fm)
			auditWire(audit.KindFlowMod, org, ops[op].name, h.dpid, err)
			select {
			case <-h.closed:
			default:
				if err != nil {
					return fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
				}
			}
		}
		if rec.added {
			h.table.Delete(e.Match, e.Priority, true)
		} else {
			_ = h.table.Add(*e) // puts back a rule just taken out: cannot hit capacity
		}
	}
	return nil
}

// InsertFlow installs a rule on a switch on behalf of owner, recording
// ownership in the kernel's shadow table.
func (k *Kernel) InsertFlow(owner string, dpid of.DPID, spec FlowSpec) error {
	return k.InsertFlowAs(Origin{App: owner}, dpid, spec)
}

// InsertFlowAs is InsertFlow carrying full call provenance: the flow-mod
// audit event records the app and correlation ID of the mediated call
// that produced it.
func (k *Kernel) InsertFlowAs(org Origin, dpid of.DPID, spec FlowSpec) error {
	_, err := k.Apply(org, []Mutation{{Op: OpInsert, DPID: dpid, Spec: spec}}, nil)
	return err
}

// ModifyFlow rewrites the actions of rules subsumed by the match.
func (k *Kernel) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	_, err := k.Apply(Origin{}, []Mutation{{Op: OpModify, DPID: dpid, Spec: FlowSpec{Match: match, Priority: priority, Actions: actions}}}, nil)
	return err
}

// ownMatch is the copy of a caller's match that a message sent to a switch
// carries: the message outlives the call — the in-memory pipe hands the
// switch the message itself — and the caller may reuse its match.
func ownMatch(m *of.Match) *of.Match {
	if m == nil {
		return nil
	}
	return m.Clone()
}

// DeleteFlow removes rules (non-strict semantics).
func (k *Kernel) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	_, err := k.Apply(Origin{}, []Mutation{{Op: OpDelete, DPID: dpid, Spec: FlowSpec{Match: match, Priority: priority}, Strict: strict}}, nil)
	return err
}

// Flows reads the shadow flow table (the controller's authoritative view
// of what each app installed).
func (k *Kernel) Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error) {
	h := k.handle(dpid)
	if h == nil {
		return nil, unknownSwitch(dpid)
	}
	return h.table.Entries(match), nil
}

// ---------------------------------------------------------------------------
// Packet service

// SendPacketOut injects a packet via a switch. bufferID zero means the
// packet is supplied inline.
func (k *Kernel) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	_, err := k.Apply(Origin{}, []Mutation{{Op: OpPacketOut, DPID: dpid, Spec: FlowSpec{Actions: actions},
		BufferID: bufferID, InPort: inPort, Packet: pkt}}, nil)
	return err
}

// PacketInSeen reports whether the buffer id belongs to a recently
// delivered packet-in on the switch — the provenance witness used by
// FROM_PKT_IN checks.
func (k *Kernel) PacketInSeen(dpid of.DPID, bufferID uint32) bool {
	h := k.handle(dpid)
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buffers[bufferID]
}

// ---------------------------------------------------------------------------
// Statistics service

// FlowStats queries per-flow counters from the switch.
func (k *Kernel) FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error) {
	reply, err := k.statsRequest(dpid, of.StatsFlow, match, of.PortNone)
	if err != nil {
		return nil, err
	}
	return reply.Flows, nil
}

// PortStats queries per-port counters from the switch.
func (k *Kernel) PortStats(dpid of.DPID, port uint16) ([]of.PortStatsEntry, error) {
	reply, err := k.statsRequest(dpid, of.StatsPort, nil, port)
	if err != nil {
		return nil, err
	}
	return reply.Ports, nil
}

// SwitchStats queries switch-level aggregates.
func (k *Kernel) SwitchStats(dpid of.DPID) (of.SwitchStats, error) {
	reply, err := k.statsRequest(dpid, of.StatsSwitch, nil, of.PortNone)
	if err != nil {
		return of.SwitchStats{}, err
	}
	return reply.Switch, nil
}

func (k *Kernel) statsRequest(dpid of.DPID, kind of.StatsType, match *of.Match, port uint16) (*of.StatsReply, error) {
	h := k.handle(dpid)
	if h == nil {
		return nil, unknownSwitch(dpid)
	}
	// A timed-out request may still reach the switch after the call
	// returned, so it carries its own copy of the match (see ownMatch),
	// in the message's own allocation.
	msg := &struct {
		of.StatsRequest
		match of.Match
	}{StatsRequest: of.StatsRequest{
		Header: of.Header{Xid: h.nextXID()},
		DPID:   dpid,
		Kind:   kind,
		Port:   port,
	}}
	if match != nil {
		msg.match = *match
		msg.Match = &msg.match
	}
	reply, err := k.request(h, &msg.StatsRequest)
	if err != nil {
		return nil, err
	}
	sr, ok := reply.(*of.StatsReply)
	if !ok {
		if e, isErr := reply.(*of.Error); isErr {
			return nil, fmt.Errorf("controller: stats request: %s %s", e.Code, e.Message)
		}
		return nil, fmt.Errorf("controller: unexpected stats reply %T", reply)
	}
	return sr, nil
}

// Barrier synchronizes with a switch: it returns once every message sent
// before it has been processed.
func (k *Kernel) Barrier(dpid of.DPID) error {
	h := k.handle(dpid)
	if h == nil {
		return unknownSwitch(dpid)
	}
	msg := &of.BarrierRequest{Header: of.Header{Xid: h.nextXID()}}
	reply, err := k.request(h, msg)
	if err != nil {
		return err
	}
	if _, ok := reply.(*of.BarrierReply); !ok {
		return fmt.Errorf("controller: unexpected barrier reply %T", reply)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Topology service

// AddLink records a link in the controller's topology view and emits a
// topology event (modify_topology surface).
func (k *Kernel) AddLink(l topology.Link) error {
	if err := k.topo.AddLink(l); err != nil {
		return err
	}
	k.emit(Event{Kind: EventTopology, TopoChange: &TopoChange{What: "link-added", DPID: l.A, Peer: l.B}})
	return nil
}

// RemoveLink removes a link from the controller's view.
func (k *Kernel) RemoveLink(a, b of.DPID) {
	k.topo.RemoveLink(a, b)
	k.emit(Event{Kind: EventTopology, TopoChange: &TopoChange{What: "link-removed", DPID: a, Peer: b}})
}

// LearnHost records a host attachment (typically from an ARP packet-in).
func (k *Kernel) LearnHost(h topology.Host) {
	k.topo.AddHost(h)
}

// ---------------------------------------------------------------------------
// Model-driven data store (OpenDaylight-style northbound)

// Publish writes a value into the data model and notifies data-model
// subscribers, mirroring OpenDaylight's YANG data broker publication path
// that the ALTO scenario exercises (§IX-A).
func (k *Kernel) Publish(path string, value interface{}) {
	k.modelMu.Lock()
	k.model[path] = value
	k.modelMu.Unlock()
	k.emit(Event{Kind: EventDataModel, ModelPath: path, ModelValue: value})
}

// ReadModel reads a data-model node.
func (k *Kernel) ReadModel(path string) (interface{}, bool) {
	k.modelMu.RLock()
	defer k.modelMu.RUnlock()
	v, ok := k.model[path]
	return v, ok
}

// ---------------------------------------------------------------------------
// permengine.StateProvider

var emptyShadow = flowtable.New(0)

// shadow is a switch's shadow table; an unknown DPID's is emptyShadow.
func (k *Kernel) shadow(dpid of.DPID) *flowtable.Table {
	if h := k.handle(dpid); h != nil {
		return h.table
	}
	return emptyShadow
}

// FlowOwner resolves flow ownership from the shadow tables.
func (k *Kernel) FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	return k.shadow(dpid).OwnerOf(match, priority)
}

// ForeignFlowOwner reports the owner of a foreign rule an insert by app
// at the given priority would shadow, resolved allocation-free from the
// shadow tables.
func (k *Kernel) ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	return k.shadow(dpid).ForeignOverlapOwner(app, match, priority)
}

// RuleCount counts an app's rules on a switch from the shadow tables.
func (k *Kernel) RuleCount(app string, dpid of.DPID) int {
	return k.shadow(dpid).CountByOwner(app)
}

// RuleCountBesides counts an app's rules on a switch other than its own
// rule equal to (match, priority): what MAX_RULE_COUNT bounds for an
// insert, which replaces that rule in place rather than adding one.
func (k *Kernel) RuleCountBesides(app string, dpid of.DPID, match *of.Match, priority uint16) int {
	return k.shadow(dpid).CountByOwnerBesides(app, match, priority)
}
