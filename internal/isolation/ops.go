package isolation

import (
	"cmp"
	"fmt"
	"strings"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/topology"
)

// The op table. Every mediated API operation is described once: by its
// descriptor (what the hot path needs of it, and whether it addresses one
// switch), by its call builder — the permission-check view the engine
// sees: the token, the attributes the op's filters read, and the stateful
// ones check resolves — and by its kernel effect. The API method of an op
// pairs the two and hands them to mediate, the one routine every op runs;
// Tx plans its calls from the same builders, and the event table at the
// end does the same for deliveries.

// mediatedOp is one operation's descriptor. Its histogram and interned
// flight-recorder symbol are resolved once, so neither the deputy's
// post-reply frame append nor the caller's latency observation does a
// map lookup.
type mediatedOp struct {
	name string
	hist *obs.Histogram
	sym  recorder.Sym
	// onSwitch marks a DPID-addressed op: an app behind the virtual big
	// switch may address no DPID but the big switch's.
	onSwitch bool
}

const mediatedCallHelp = "End-to-end mediated API call latency: queue wait, permission check and kernel execution."

// newMediatedOp resolves an op's histogram and symbol once. Package init
// builds the descriptor of every mediated API operation; tests may mint
// ad-hoc ops the same way.
func newMediatedOp(name string) *mediatedOp {
	return &mediatedOp{
		name: name,
		hist: obs.Default().Histogram("sdnshield_mediated_call_seconds", mediatedCallHelp, "op", name),
		sym:  recorder.Intern(name),
	}
}

// switchOp is newMediatedOp for a DPID-addressed op.
func switchOp(name string) *mediatedOp {
	op := newMediatedOp(name)
	op.onSwitch = true
	return op
}

var (
	opInsertFlow    = switchOp("insert_flow")
	opModifyFlow    = switchOp("modify_flow")
	opDeleteFlow    = switchOp("delete_flow")
	opFlows         = switchOp("flows")
	opPacketOut     = switchOp("packet_out")
	opFlowStats     = switchOp("flow_stats")
	opPortStats     = switchOp("port_stats")
	opSwitchStats   = switchOp("switch_stats")
	opSwitches      = newMediatedOp("switches")
	opLinks         = newMediatedOp("links")
	opHosts         = newMediatedOp("hosts")
	opAddLink       = newMediatedOp("add_link")
	opRemoveLink    = newMediatedOp("remove_link")
	opPublish       = newMediatedOp("publish")
	opReadModel     = newMediatedOp("read_model")
	opHostConnect   = newMediatedOp("host_connect")
	opHostReadFile  = newMediatedOp("host_read_file")
	opHostWriteFile = newMediatedOp("host_write_file")
	opHostExec      = newMediatedOp("host_exec")
)

// shieldedAPI is the mediated API implementation, one op-table row per
// method.
type shieldedAPI struct {
	name      string
	shield    *Shield
	container *Container
	// virt is non-nil when the app's visible_topology carries a
	// single-big-switch filter; all topology-addressed calls are then
	// translated (§VI-B1).
	virt *translator
}

var _ API = (*shieldedAPI)(nil)

func newShieldedAPI(s *Shield, c *Container) *shieldedAPI {
	api := &shieldedAPI{name: c.name, shield: s, container: c}
	if set, ok := s.engine.Permissions(c.name); ok {
		expr, _ := set.FilterFor(core.TokenVisibleTopology)
		if vf := findVirtFilter(expr); vf != nil && vf.Mode() == core.VirtSingleBigSwitch {
			api.virt = newTranslator(s.kernel, c.name)
		}
	}
	return api
}

// findVirtFilter finds the first virtual-topology filter leaf of a
// visible_topology grant.
func findVirtFilter(e core.Expr) *core.VirtTopoFilter {
	switch v := e.(type) {
	case *core.Leaf:
		vf, _ := v.F.(*core.VirtTopoFilter)
		return vf
	case *core.Not:
		return findVirtFilter(v.X)
	case *core.And:
		return cmp.Or(findVirtFilter(v.L), findVirtFilter(v.R))
	case *core.Or:
		return cmp.Or(findVirtFilter(v.L), findVirtFilter(v.R))
	}
	return nil
}

func (a *shieldedAPI) AppName() string { return a.name }

func (a *shieldedAPI) engine() *permengine.Engine { return a.shield.engine }

// mediate is the one mediation routine every op runs. The gates come
// first, on the caller: a quarantined app's handle is dead, and an app
// behind the virtual big switch addresses no physical switch — both fail
// fast without consuming a deputy. Then the call's correlation ID is
// minted, so the permission check and every switch-side effect of this
// one call share it, and run crosses the KSD hop: on a deputy it builds
// and checks the op's call and, once allowed, applies the kernel effect
// under org.
func (a *shieldedAPI) mediate(op *mediatedOp, dpid of.DPID, run func(org controller.Origin) error) error {
	if a.container.Health() == Quarantined {
		mQuarantinedCalls.Inc()
		return fmt.Errorf("%w: %s", ErrAppQuarantined, a.name)
	}
	if op.onSwitch && a.virt != nil && dpid != bigSwitchDPID {
		return a.virt.outside()
	}
	return a.shield.do(a.container, op, controller.Origin{App: a.name, Corr: audit.NextCorr()}, run)
}

// single is mediate for the ops one decision covers: the call their
// builder made, checked on the deputy, then their effect.
func (a *shieldedAPI) single(op *mediatedOp, dpid of.DPID, call core.Call, effect func() error) error {
	return a.mediate(op, dpid, func(org controller.Origin) error {
		if err := a.check(&call, org.Corr); err != nil {
			return err
		}
		return effect()
	})
}

// check stamps a built call with the caller and corr, resolves its
// stateful attributes — Engine.Resolve is the one place insert_flow's
// owner and rule count are found, for the live call and for Explain
// alike — and hands it to the engine.
func (a *shieldedAPI) check(call *core.Call, corr uint64) error {
	call.App, call.Corr = a.name, corr
	a.engine().Resolve(call)
	return a.engine().Check(call)
}

// listed is a listing's op-level decision: without the token the listing
// is denied outright, as one audited decision; with it the app sees the
// rows its filter admits (visible), which is no decision at all.
func (a *shieldedAPI) listed(call core.Call, corr uint64) error {
	if a.engine().HasToken(a.name, call.Token) {
		return nil
	}
	denied := call // escapes here, so the allowed path allocates nothing
	return a.check(&denied, corr)
}

// visible keeps the rows of a listing that the app's grant for token
// admits (§IV-B: filters restrict what an app sees rather than deny the
// listing outright). describe fills in the call attributes one row
// presents to the filters. Row filtering is not a mediated decision: the
// listing's op-level check is, so nothing here is counted, logged or
// audited.
func visible[T any](a *shieldedAPI, token core.Token, rows []T, describe func(T, *core.Call)) []T {
	allows := a.engine().Filter(a.name, token)
	kept := rows[:0]
	var row core.Call // one per listing, reset per row
	for _, r := range rows {
		row = core.Call{App: a.name, Token: token}
		describe(r, &row)
		if allows(&row) {
			kept = append(kept, r)
		}
	}
	return kept
}

// orAny stands the match-everything match in for a nil one: the filters
// see every call that names flows with a match to test.
func orAny(m *of.Match) *of.Match {
	if m == nil {
		return of.NewMatch()
	}
	return m
}

// ---------------------------------------------------------------------------
// Flow table and packet I/O

// insertCall is insert_flow's call; check resolves its owner — the
// foreign rule the new one could shadow — and the caller's rule count.
func insertCall(dpid of.DPID, spec controller.FlowSpec) core.Call {
	actions := spec.Actions
	if actions == nil {
		actions = []of.Action{}
	}
	return core.Call{Token: core.TokenInsertFlow, DPID: dpid, HasDPID: true, Match: orAny(spec.Match),
		Actions: actions, Priority: spec.Priority, HasPriority: true}
}

func (a *shieldedAPI) InsertFlow(dpid of.DPID, spec controller.FlowSpec) error {
	return a.mediate(opInsertFlow, dpid, func(org controller.Origin) error {
		call := insertCall(dpid, spec)
		if err := a.check(&call, org.Corr); err != nil {
			return err
		}
		if a.virt != nil {
			return a.virt.insertFlow(org, spec)
		}
		return a.shield.kernel.InsertFlowAs(org, dpid, spec)
	})
}

// checkAffected is modify's and delete's decision: one call per resident
// rule the match subsumes, so a single call cannot touch another app's
// flows unnoticed; with nothing resident, the call as issued, unowned. An
// app behind the virtual big switch has nothing resident at DPID 0: its
// translated deletes only ever touch its own physical rules.
func (a *shieldedAPI) checkAffected(corr uint64, token core.Token, dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	match = orAny(match)
	var entries []*flowtable.Entry
	if a.virt == nil {
		var err error
		if entries, err = a.shield.kernel.Flows(dpid, match); err != nil {
			return err
		}
	}
	if len(entries) == 0 {
		entries = []*flowtable.Entry{{Match: match, Priority: priority}}
	}
	for _, e := range entries {
		call := core.Call{Token: token, DPID: dpid, HasDPID: true, Match: e.Match, Actions: actions,
			Priority: e.Priority, HasPriority: true, FlowOwner: e.Owner, HasFlowOwner: true}
		if call.Actions == nil {
			call.Actions = e.Actions
		}
		if err := a.check(&call, corr); err != nil {
			return err
		}
	}
	return nil
}

// ModifyFlow is checked against modify_flow when the app holds it and
// against insert_flow otherwise (Table II: insert_flow "including insert
// and modify").
func (a *shieldedAPI) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	return a.mediate(opModifyFlow, dpid, func(org controller.Origin) error {
		token := core.TokenModifyFlow
		if !a.HasPermission(token) {
			token = core.TokenInsertFlow
		}
		if err := a.checkAffected(org.Corr, token, dpid, match, priority, actions); err != nil {
			return err
		}
		return a.shield.kernel.ModifyFlowAs(org, dpid, match, priority, actions)
	})
}

func (a *shieldedAPI) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	return a.mediate(opDeleteFlow, dpid, func(org controller.Origin) error {
		if err := a.checkAffected(org.Corr, core.TokenDeleteFlow, dpid, match, priority, nil); err != nil {
			return err
		}
		if a.virt != nil {
			return a.virt.deleteFlow(org, match, priority, strict)
		}
		return a.shield.kernel.DeleteFlowAs(org, dpid, match, priority, strict)
	})
}

func (a *shieldedAPI) Flows(dpid of.DPID, match *of.Match) (rows []*flowtable.Entry, err error) {
	err = a.mediate(opFlows, dpid, func(org controller.Origin) error {
		opCall := core.Call{Token: core.TokenReadFlowTable, DPID: dpid, HasDPID: true, Match: orAny(match), HasFlowOwner: true}
		if err := a.listed(opCall, org.Corr); err != nil {
			return err
		}
		entries, err := a.shield.kernel.Flows(dpid, match)
		rows = visible(a, core.TokenReadFlowTable, entries, func(e *flowtable.Entry, row *core.Call) {
			row.DPID, row.HasDPID = dpid, true
			row.Match, row.Actions = e.Match, e.Actions
			row.Priority, row.HasPriority = e.Priority, true
			row.FlowOwner, row.HasFlowOwner = e.Owner, true
		})
		return err
	})
	return rows, err
}

// packetOutCall is send_pkt_out's call, with its provenance: whether the
// packet is a buffered packet-in rather than one the app made up.
func (a *shieldedAPI) packetOutCall(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) core.Call {
	call := core.Call{Token: core.TokenSendPktOut, DPID: dpid, HasDPID: true, Actions: actions, HasProvenance: true,
		FromPktIn: pkt == nil && bufferID != 0 && a.shield.kernel.PacketInSeen(dpid, bufferID)}
	if call.Actions == nil {
		call.Actions = []of.Action{}
	}
	if pkt != nil {
		call.Match = of.MatchFromPacket(pkt, inPort)
	}
	return call
}

func (a *shieldedAPI) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	return a.mediate(opPacketOut, dpid, func(org controller.Origin) error {
		call := a.packetOutCall(dpid, bufferID, inPort, actions, pkt)
		if err := a.check(&call, org.Corr); err != nil {
			return err
		}
		return a.shield.kernel.SendPacketOutAs(org, dpid, bufferID, inPort, actions, pkt)
	})
}

// ---------------------------------------------------------------------------
// Statistics

// statsCall is read_statistics' call at one level.
func statsCall(dpid of.DPID, level of.StatsType, match *of.Match) core.Call {
	return core.Call{Token: core.TokenReadStatistics, DPID: dpid, HasDPID: true, StatsLevel: level, Match: match}
}

func (a *shieldedAPI) FlowStats(dpid of.DPID, match *of.Match) (rows []of.FlowStatsEntry, err error) {
	err = a.mediate(opFlowStats, dpid, func(org controller.Origin) (err error) {
		call := statsCall(dpid, of.StatsFlow, orAny(match))
		if err := a.check(&call, org.Corr); err != nil {
			return err
		}
		if a.virt != nil {
			rows, err = a.virt.flowStats(match)
			return err
		}
		rows, err = a.shield.kernel.FlowStats(dpid, match)
		rows = visible(a, core.TokenReadStatistics, rows, func(r of.FlowStatsEntry, row *core.Call) {
			row.DPID, row.HasDPID = dpid, true
			row.StatsLevel, row.Match = of.StatsFlow, r.Match
			row.Priority, row.HasPriority = r.Priority, true
		})
		return err
	})
	return rows, err
}

func (a *shieldedAPI) PortStats(dpid of.DPID, port uint16) (rows []of.PortStatsEntry, err error) {
	err = a.single(opPortStats, dpid, statsCall(dpid, of.StatsPort, nil), func() (err error) {
		if a.virt != nil {
			rows, err = a.virt.portStats(port)
		} else {
			rows, err = a.shield.kernel.PortStats(dpid, port)
		}
		return err
	})
	return rows, err
}

func (a *shieldedAPI) SwitchStats(dpid of.DPID) (stats of.SwitchStats, err error) {
	err = a.single(opSwitchStats, dpid, statsCall(dpid, of.StatsSwitch, nil), func() (err error) {
		if a.virt != nil {
			stats, err = a.virt.switchStats()
		} else {
			stats, err = a.shield.kernel.SwitchStats(dpid)
		}
		return err
	})
	return stats, err
}

// ---------------------------------------------------------------------------
// Topology

// listTopology is the shape Switches, Links and Hosts share: the
// listing's op-level decision, then the translator's view for an app on
// the virtual big switch, and for anyone else the physical rows its
// filter admits.
func listTopology[T any](a *shieldedAPI, op *mediatedOp, virtual func(*translator) []T,
	physical func(*topology.Topology) []T, describe func(T, *core.Call)) (rows []T, err error) {
	err = a.mediate(op, 0, func(org controller.Origin) error {
		if err := a.listed(core.Call{Token: core.TokenVisibleTopology}, org.Corr); err != nil {
			return err
		}
		if a.virt != nil {
			rows = virtual(a.virt)
		} else {
			rows = visible(a, core.TokenVisibleTopology, physical(a.shield.kernel.Topology()), describe)
		}
		return nil
	})
	return rows, err
}

func (a *shieldedAPI) Switches() ([]topology.SwitchInfo, error) {
	return listTopology(a, opSwitches, (*translator).switches, (*topology.Topology).Switches,
		func(s topology.SwitchInfo, row *core.Call) { row.Switches = []of.DPID{s.DPID} })
}

func (a *shieldedAPI) Links() ([]topology.Link, error) {
	// A single big switch has no internal links.
	return listTopology(a, opLinks, func(*translator) []topology.Link { return nil }, (*topology.Topology).Links,
		func(l topology.Link, row *core.Call) {
			row.Switches = []of.DPID{l.A, l.B}
			row.Links = []core.LinkID{l.ID()}
		})
}

func (a *shieldedAPI) Hosts() ([]topology.Host, error) {
	return listTopology(a, opHosts, (*translator).hosts, (*topology.Topology).Hosts,
		func(h topology.Host, row *core.Call) { row.Switches = []of.DPID{h.Switch} })
}

// linkCall is modify_topology's call for an edit of the link x–y.
func linkCall(x, y of.DPID) core.Call {
	return core.Call{Token: core.TokenModifyTopology, Switches: []of.DPID{x, y}, Links: []core.LinkID{core.NewLinkID(x, y)}}
}

func (a *shieldedAPI) AddLink(l topology.Link) error {
	return a.single(opAddLink, 0, linkCall(l.A, l.B), func() error { return a.shield.kernel.AddLink(l) })
}

func (a *shieldedAPI) RemoveLink(x, y of.DPID) error {
	return a.single(opRemoveLink, 0, linkCall(x, y), func() error {
		a.shield.kernel.RemoveLink(x, y)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Model-driven data store

// modelTokens maps a data-model path root to the tokens required to read
// and write it. Unlisted roots fall back to the topology tokens, which is
// the conservative default for the model-driven northbound (§VIII:
// sensitive YANG nodes are associated with required permissions).
var modelTokens = map[string]struct{ read, write core.Token }{
	"topology": {read: core.TokenVisibleTopology, write: core.TokenModifyTopology},
	"alto":     {read: core.TokenVisibleTopology, write: core.TokenModifyTopology},
	"stats":    {read: core.TokenReadStatistics, write: core.TokenModifyTopology},
	"flows":    {read: core.TokenReadFlowTable, write: core.TokenInsertFlow},
}

// modelCall reads or writes a data-model path: the read or write token of
// its root.
func modelCall(path string, write bool) core.Call {
	root, _, _ := strings.Cut(path, "/")
	entry, ok := modelTokens[root]
	if !ok {
		entry = modelTokens["topology"]
	}
	token := entry.read
	if write {
		token = entry.write
	}
	return core.Call{Token: token}
}

func (a *shieldedAPI) Publish(path string, value interface{}) error {
	return a.single(opPublish, 0, modelCall(path, true), func() error {
		a.shield.kernel.Publish(path, value)
		return nil
	})
}

func (a *shieldedAPI) ReadModel(path string) (v interface{}, ok bool, err error) {
	err = a.single(opReadModel, 0, modelCall(path, false), func() error {
		v, ok = a.shield.kernel.ReadModel(path)
		return nil
	})
	return v, ok, err
}

// ---------------------------------------------------------------------------
// Host system calls (the SecurityManager role)

func (a *shieldedAPI) HostConnect(ip of.IPv4, port uint16) (conn *hostsim.Conn, err error) {
	call := core.Call{Token: core.TokenHostNetwork, HostIP: ip, HostPort: port, HasHostIP: true}
	err = a.single(opHostConnect, 0, call, func() (err error) {
		conn, err = a.shield.kernel.HostOS().Connect(ip, port)
		return err
	})
	return conn, err
}

func (a *shieldedAPI) HostReadFile(path string) (data []byte, err error) {
	err = a.single(opHostReadFile, 0, core.Call{Token: core.TokenFileSystem, Path: path}, func() (err error) {
		data, err = a.shield.kernel.HostOS().ReadFile(path)
		return err
	})
	return data, err
}

func (a *shieldedAPI) HostWriteFile(path string, data []byte) error {
	return a.single(opHostWriteFile, 0, core.Call{Token: core.TokenFileSystem, Path: path}, func() error {
		a.shield.kernel.HostOS().WriteFile(path, data)
		return nil
	})
}

func (a *shieldedAPI) HostExec(cmd string) error {
	return a.single(opHostExec, 0, core.Call{Token: core.TokenProcessRuntime}, func() error {
		a.shield.kernel.HostOS().Exec(cmd)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Events and utilities

// eventTable is the op table of deliveries: per event kind, the token
// guarding it and what one event presents to the app's filters (nil: the
// token alone decides).
var eventTable = [...]struct {
	token    core.Token
	describe func(ev controller.Event, call *core.Call)
}{
	controller.EventPacketIn: {core.TokenPktInEvent, func(ev controller.Event, call *core.Call) {
		call.DPID, call.HasDPID = ev.PacketIn.DPID, true
		call.Match = of.MatchFromPacket(ev.PacketIn.Packet, ev.PacketIn.InPort)
	}},
	controller.EventFlowRemoved: {core.TokenFlowEvent, func(ev controller.Event, call *core.Call) {
		call.DPID, call.HasDPID, call.Match = ev.FlowRemoved.DPID, true, ev.FlowRemoved.Match
		call.Priority, call.HasPriority = ev.FlowRemoved.Priority, true
		call.FlowOwner, call.HasFlowOwner = ev.FlowOwner, true
	}},
	controller.EventPortStatus: {core.TokenTopologyEvent, func(ev controller.Event, call *core.Call) {
		call.DPID, call.HasDPID = ev.PortStatus.DPID, true
	}},
	controller.EventTopology: {core.TokenTopologyEvent, func(ev controller.Event, call *core.Call) {
		call.Switches = append(call.Switches, ev.TopoChange.DPID)
		if peer := ev.TopoChange.Peer; peer != 0 {
			call.Switches = append(call.Switches, peer)
			call.Links = []core.LinkID{core.NewLinkID(ev.TopoChange.DPID, peer)}
		}
	}},
	controller.EventError:     {token: core.TokenErrorEvent},
	controller.EventDataModel: {token: core.TokenVisibleTopology},
}

// eventToken is the token guarding delivery of an event kind.
func eventToken(kind controller.EventKind) (core.Token, bool) {
	if kind <= 0 || int(kind) >= len(eventTable) {
		return 0, false
	}
	return eventTable[kind].token, true
}

// allowEvent runs the per-event permission check; subscribe admitted the
// event's kind.
func (s *Shield) allowEvent(app string, ev controller.Event) bool {
	e := eventTable[ev.Kind]
	call := &core.Call{App: app, Token: e.token, Event: core.CallbackObserve}
	if e.describe != nil {
		e.describe(ev, call)
	}
	return s.engine.Check(call) == nil
}

func (a *shieldedAPI) Subscribe(kind controller.EventKind, fn controller.Handler) error {
	return a.container.subscribe(kind, fn)
}

func (a *shieldedAPI) HasPermission(token core.Token) bool {
	return a.engine().HasToken(a.name, token)
}

func (a *shieldedAPI) Transaction() *Tx {
	return &Tx{api: a, shield: a, kernel: a.shield.kernel}
}
