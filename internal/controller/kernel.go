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
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// Origin attributes a kernel request to the mediated app call that
// caused it: the calling app and the correlation ID minted at the
// isolation boundary. The zero Origin means "no call provenance"
// (kernel-internal or legacy callers).
type Origin struct {
	App  string
	Corr uint64
}

// auditWire records the outcome of a wire-level send attributed to org:
// an audit event and, when the flight recorder is on, a kernel-op frame
// carrying the same correlation ID, so a bundle can follow one mediated
// call from the isolation boundary down to the wire.
func auditWire(kind audit.Kind, org Origin, op string, dpid of.DPID, sendErr error) {
	if recorder.On() {
		code := recorder.CodeOK
		if sendErr != nil {
			code = recorder.CodeError
		}
		recorder.Record(recorder.Frame{
			Kind: recorder.KindKernelOp,
			Code: code,
			App:  recorder.Intern(org.App),
			Op:   recorder.Intern(op),
			Corr: org.Corr,
			Arg:  int64(dpid),
		})
	}
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
	dpid of.DPID
	conn of.Conn

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

// Kernel is the trusted controller core.
type Kernel struct {
	topo *topology.Topology
	host *hostsim.HostOS
	cfg  KernelConfig

	jmu   sync.Mutex
	jrand *rand.Rand // backoff jitter, seeded for reproducibility

	mu       sync.RWMutex
	switches map[of.DPID]*swHandle
	shadow   map[of.DPID]*flowtable.Table

	subMu   sync.RWMutex
	subs    map[EventKind]map[int]Handler
	nextSub int

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
	return &Kernel{
		topo:     topo,
		host:     host,
		cfg:      c,
		jrand:    rand.New(rand.NewSource(c.Seed)),
		switches: make(map[of.DPID]*swHandle),
		shadow:   make(map[of.DPID]*flowtable.Table),
		subs:     make(map[EventKind]map[int]Handler),
		model:    make(map[string]interface{}),
	}
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
	if err := conn.Send(&of.Hello{Header: of.Header{Xid: 1}}); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	if err := conn.Send(&of.FeaturesRequest{Header: of.Header{Xid: 2}}); err != nil {
		return 0, fmt.Errorf("features request: %w", err)
	}
	// The deadline must bound the Recv itself, not just the loop: a
	// switch that goes silent mid-handshake would otherwise block
	// AcceptSwitch forever.
	var features *of.FeaturesReply
	type recvRes struct {
		msg of.Message
		err error
	}
	recvCh := make(chan recvRes, 1)
	recv := func() {
		m, err := conn.Recv()
		recvCh <- recvRes{msg: m, err: err}
	}
	go recv()
	timer := time.NewTimer(k.cfg.RequestTimeout)
	defer timer.Stop()
	for features == nil {
		select {
		case <-timer.C:
			conn.Close() // unblock the pending reader
			return 0, ErrTimeout
		case r := <-recvCh:
			if r.err != nil {
				return 0, fmt.Errorf("handshake: %w", r.err)
			}
			if m, ok := r.msg.(*of.FeaturesReply); ok {
				features = m
			} else {
				// Symmetric hello / pre-handshake noise is ignored.
				go recv()
			}
		}
	}

	h := &swHandle{
		dpid:            features.DPID,
		conn:            conn,
		pending:         make(map[uint32]chan of.Message),
		buffers:         make(map[uint32]bool),
		pendingRemovals: make(map[string]string),
		events:          make(chan of.Message, 4096),
		closed:          make(chan struct{}),
		done:            make(chan struct{}),
		dispatchDone:    make(chan struct{}),
	}
	h.xid.Store(100)

	k.mu.Lock()
	if _, dup := k.switches[features.DPID]; dup {
		k.mu.Unlock()
		return 0, fmt.Errorf("controller: switch %v already connected", features.DPID)
	}
	k.switches[features.DPID] = h
	k.shadow[features.DPID] = flowtable.New(0)
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

// Stop closes every switch connection and waits for the receive loops.
func (k *Kernel) Stop() {
	if k.closed.Swap(true) {
		return
	}
	k.mu.Lock()
	handles := make([]*swHandle, 0, len(k.switches))
	for _, h := range k.switches {
		handles = append(handles, h)
	}
	k.mu.Unlock()
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

func (k *Kernel) handle(dpid of.DPID) (*swHandle, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	h, ok := k.switches[dpid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSwitch, dpid)
	}
	return h, nil
}

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
	if k.switches[h.dpid] != h {
		k.mu.Unlock()
		return
	}
	delete(k.switches, h.dpid)
	delete(k.shadow, h.dpid)
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
		k.mu.RLock()
		shadow := k.shadow[h.dpid]
		k.mu.RUnlock()
		var owner string
		key := removalKey(m.Match, m.Priority)
		h.mu.Lock()
		if pending, ok := h.pendingRemovals[key]; ok {
			owner = pending
			delete(h.pendingRemovals, key)
		}
		h.mu.Unlock()
		if shadow != nil {
			if owner == "" {
				owner, _ = shadow.OwnerOf(m.Match, m.Priority)
			}
			if m.Reason != of.RemovedDelete {
				shadow.Delete(m.Match, m.Priority, true)
			}
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

// emit fans an event out to its subscribers.
func (k *Kernel) emit(ev Event) {
	k.subMu.RLock()
	handlers := make([]Handler, 0, len(k.subs[ev.Kind]))
	for _, fn := range k.subs[ev.Kind] {
		handlers = append(handlers, fn)
	}
	k.subMu.RUnlock()
	for _, fn := range handlers {
		fn(ev)
	}
}

// Subscribe registers an event handler and returns its id.
func (k *Kernel) Subscribe(kind EventKind, fn Handler) int {
	k.subMu.Lock()
	defer k.subMu.Unlock()
	k.nextSub++
	id := k.nextSub
	if k.subs[kind] == nil {
		k.subs[kind] = make(map[int]Handler)
	}
	k.subs[kind][id] = fn
	return id
}

// Unsubscribe removes a handler by id.
func (k *Kernel) Unsubscribe(kind EventKind, id int) {
	k.subMu.Lock()
	defer k.subMu.Unlock()
	delete(k.subs[kind], id)
}

// request sends msg and blocks for the reply carrying the same xid,
// retrying timed-out attempts with exponential backoff and jitter up to
// MaxRetries times. Disconnects are never retried: the session is gone
// and the caller should fail fast.
func (k *Kernel) request(h *swHandle, msg of.Message) (of.Message, error) {
	t := obs.StartTimer()
	reply, err := k.requestOnce(h, msg, k.cfg.RequestTimeout)
	for attempt := 1; attempt <= k.cfg.MaxRetries && errors.Is(err, ErrTimeout); attempt++ {
		mRetries.Inc()
		select {
		case <-time.After(k.backoff(attempt)):
		case <-h.closed:
			mRequestDisconnects.Inc()
			return nil, ErrSwitchDisconnected
		}
		reply, err = k.requestOnce(h, msg, k.cfg.RequestTimeout)
	}
	mRequestSeconds.ObserveTimer(t)
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

// requestOnce performs one send/wait round trip. Reusing the message's
// xid across attempts is deliberate: a late reply to an earlier attempt
// satisfies the current one, and surplus replies are dropped by the
// dispatcher.
func (k *Kernel) requestOnce(h *swHandle, msg of.Message, timeout time.Duration) (of.Message, error) {
	select {
	case <-h.closed:
		return nil, ErrSwitchDisconnected
	default:
	}
	ch := make(chan of.Message, 1)
	h.mu.Lock()
	h.pending[msg.XID()] = ch
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
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-h.closed:
		unregister()
		return nil, ErrSwitchDisconnected
	case <-timer.C:
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

// InsertFlow installs a rule on a switch on behalf of owner, recording
// ownership in the kernel's shadow table.
func (k *Kernel) InsertFlow(owner string, dpid of.DPID, spec FlowSpec) error {
	return k.InsertFlowAs(Origin{App: owner}, dpid, spec)
}

// InsertFlowAs is InsertFlow carrying full call provenance: the flow-mod
// audit event records the app and correlation ID of the mediated call
// that produced it.
func (k *Kernel) InsertFlowAs(org Origin, dpid of.DPID, spec FlowSpec) error {
	owner := org.App
	t := obs.StartTimer()
	defer mOpInsert.ObserveTimer(t)
	h, err := k.handle(dpid)
	if err != nil {
		return err
	}
	k.mu.RLock()
	shadow := k.shadow[dpid]
	k.mu.RUnlock()
	if spec.Match == nil {
		spec.Match = of.NewMatch()
	}
	displaced, replaced, err := shadow.Swap(flowtable.Entry{
		Match:       spec.Match,
		Priority:    spec.Priority,
		Actions:     spec.Actions,
		Cookie:      spec.Cookie,
		Owner:       owner,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
	})
	if err != nil {
		return err
	}
	if err := h.conn.Send(&of.FlowMod{
		Header:      of.Header{Xid: h.nextXID()},
		DPID:        dpid,
		Command:     of.FlowAdd,
		Match:       spec.Match,
		Priority:    spec.Priority,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
		Cookie:      spec.Cookie,
		Actions:     spec.Actions,
	}); err != nil {
		// The rule never reached the switch; un-shadow it — putting back
		// the rule it displaced, if any — so ownership state stays
		// truthful across the disconnect.
		if replaced {
			_ = shadow.Add(displaced) // a replace: cannot hit capacity
		} else {
			shadow.Delete(spec.Match, spec.Priority, true)
		}
		auditWire(audit.KindFlowMod, org, "add", dpid, err)
		return fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
	}
	auditWire(audit.KindFlowMod, org, "add", dpid, nil)
	return nil
}

// ModifyFlow rewrites the actions of rules subsumed by the match.
func (k *Kernel) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	return k.ModifyFlowAs(Origin{}, dpid, match, priority, actions)
}

// ModifyFlowAs is ModifyFlow carrying call provenance for the flow-mod
// audit event.
func (k *Kernel) ModifyFlowAs(org Origin, dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	t := obs.StartTimer()
	defer mOpModify.ObserveTimer(t)
	h, err := k.handle(dpid)
	if err != nil {
		return err
	}
	k.mu.RLock()
	shadow := k.shadow[dpid]
	k.mu.RUnlock()
	// Snapshot the affected entries so a failed send can restore them.
	prior := shadow.Entries(match)
	shadow.Modify(match, priority, false, actions)
	if err := h.conn.Send(&of.FlowMod{
		Header:   of.Header{Xid: h.nextXID()},
		DPID:     dpid,
		Command:  of.FlowModify,
		Match:    match,
		Priority: priority,
		Actions:  actions,
	}); err != nil {
		for _, e := range prior {
			shadow.Modify(e.Match, e.Priority, true, e.Actions)
		}
		auditWire(audit.KindFlowMod, org, "modify", dpid, err)
		return fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
	}
	auditWire(audit.KindFlowMod, org, "modify", dpid, nil)
	return nil
}

// DeleteFlow removes rules (non-strict semantics).
func (k *Kernel) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	return k.DeleteFlowAs(Origin{}, dpid, match, priority, strict)
}

// DeleteFlowAs is DeleteFlow carrying call provenance for the flow-mod
// audit event.
func (k *Kernel) DeleteFlowAs(org Origin, dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	t := obs.StartTimer()
	defer mOpDelete.ObserveTimer(t)
	h, err := k.handle(dpid)
	if err != nil {
		return err
	}
	k.mu.RLock()
	shadow := k.shadow[dpid]
	k.mu.RUnlock()
	removed := shadow.Delete(match, priority, strict)
	h.mu.Lock()
	for _, e := range removed {
		h.pendingRemovals[removalKey(e.Match, e.Priority)] = e.Owner
	}
	// Bound the map against notifications that never arrive.
	if len(h.pendingRemovals) > 8192 {
		h.pendingRemovals = make(map[string]string)
	}
	h.mu.Unlock()
	cmd := of.FlowDelete
	if strict {
		cmd = of.FlowDeleteStrict
	}
	if err := h.conn.Send(&of.FlowMod{
		Header:   of.Header{Xid: h.nextXID()},
		DPID:     dpid,
		Command:  cmd,
		Match:    match,
		Priority: priority,
	}); err != nil {
		// The delete never reached the switch; restore the shadow so the
		// controller's view keeps matching the data plane.
		for _, e := range removed {
			_ = shadow.Add(*e)
		}
		h.mu.Lock()
		for _, e := range removed {
			delete(h.pendingRemovals, removalKey(e.Match, e.Priority))
		}
		h.mu.Unlock()
		auditWire(audit.KindFlowMod, org, "delete", dpid, err)
		return fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
	}
	auditWire(audit.KindFlowMod, org, "delete", dpid, nil)
	return nil
}

// Flows reads the shadow flow table (the controller's authoritative view
// of what each app installed).
func (k *Kernel) Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error) {
	k.mu.RLock()
	shadow, ok := k.shadow[dpid]
	k.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSwitch, dpid)
	}
	return shadow.Entries(match), nil
}

// ---------------------------------------------------------------------------
// Packet service

// SendPacketOut injects a packet via a switch. bufferID zero means the
// packet is supplied inline.
func (k *Kernel) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	return k.SendPacketOutAs(Origin{}, dpid, bufferID, inPort, actions, pkt)
}

// SendPacketOutAs is SendPacketOut carrying call provenance for the
// packet-out audit event.
func (k *Kernel) SendPacketOutAs(org Origin, dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	t := obs.StartTimer()
	defer mOpPacketOut.ObserveTimer(t)
	h, err := k.handle(dpid)
	if err != nil {
		return err
	}
	if err := h.conn.Send(&of.PacketOut{
		Header:   of.Header{Xid: h.nextXID()},
		DPID:     dpid,
		InPort:   inPort,
		BufferID: bufferID,
		Actions:  actions,
		Packet:   pkt,
	}); err != nil {
		auditWire(audit.KindPacketOut, org, "packet_out", dpid, err)
		return fmt.Errorf("%w: %v", ErrSwitchDisconnected, err)
	}
	auditWire(audit.KindPacketOut, org, "packet_out", dpid, nil)
	return nil
}

// PacketInSeen reports whether the buffer id belongs to a recently
// delivered packet-in on the switch — the provenance witness used by
// FROM_PKT_IN checks.
func (k *Kernel) PacketInSeen(dpid of.DPID, bufferID uint32) bool {
	h, err := k.handle(dpid)
	if err != nil {
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
	h, err := k.handle(dpid)
	if err != nil {
		return nil, err
	}
	msg := &of.StatsRequest{
		Header: of.Header{Xid: h.nextXID()},
		DPID:   dpid,
		Kind:   kind,
		Match:  match,
		Port:   port,
	}
	reply, err := k.request(h, msg)
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
	h, err := k.handle(dpid)
	if err != nil {
		return err
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

// FlowOwner resolves flow ownership from the shadow tables.
func (k *Kernel) FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	k.mu.RLock()
	shadow, ok := k.shadow[dpid]
	k.mu.RUnlock()
	if !ok {
		return "", false
	}
	return shadow.OwnerOf(match, priority)
}

// ForeignFlowOwner reports the owner of a foreign rule an insert by app
// at the given priority would shadow, resolved allocation-free from the
// shadow tables.
func (k *Kernel) ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	k.mu.RLock()
	shadow, ok := k.shadow[dpid]
	k.mu.RUnlock()
	if !ok {
		return "", false
	}
	return shadow.ForeignOverlapOwner(app, match, priority)
}

// RuleCount counts an app's rules on a switch from the shadow tables.
func (k *Kernel) RuleCount(app string, dpid of.DPID) int {
	k.mu.RLock()
	shadow, ok := k.shadow[dpid]
	k.mu.RUnlock()
	if !ok {
		return 0
	}
	return shadow.CountByOwner(app)
}
