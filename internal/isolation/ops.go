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

// The op table. Every mediated API operation is described once, by its
// row: the descriptor the hot path needs, its decision — the check of the
// call it builds: the token, the attributes the op's filters read, the
// stateful ones check resolves — and its kernel effect, both plain
// functions of a pooled request (shield.go) holding the call's own
// arguments. mediate is the one routine every op runs; Tx prechecks with
// the same decisions, and the event table at the end does the same for
// deliveries.

// mediatedOp is one operation's row. Its histogram and interned
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
	// decide checks the call the op builds (modify and delete one per
	// affected rule, a listing one only without its token); effect then
	// applies it under the request's origin, leaving results in it.
	decide, effect func(*request) error
}

const mediatedCallHelp = "End-to-end mediated API call latency: queue wait, permission check and kernel execution."

// newMediatedOp resolves an op's histogram and symbol once. Package init
// builds the row of every mediated API operation; tests may mint ad-hoc
// ops the same way.
func newMediatedOp(name string) *mediatedOp {
	return &mediatedOp{
		name: name,
		hist: obs.Default().Histogram("sdnshield_mediated_call_seconds", mediatedCallHelp, "op", name),
		sym:  recorder.Intern(name),
	}
}

func opRow(name string, onSwitch bool, decide, effect func(*request) error) *mediatedOp {
	op := newMediatedOp(name)
	op.onSwitch, op.decide, op.effect = onSwitch, decide, effect
	return op
}

var (
	opInsertFlow    = opRow("insert_flow", true, (*request).checkInsert, (*request).insertFlow)
	opModifyFlow    = opRow("modify_flow", true, (*request).checkModify, (*request).modifyFlow)
	opDeleteFlow    = opRow("delete_flow", true, (*request).checkDelete, (*request).deleteFlow)
	opFlows         = opRow("flows", true, (*request).listedFlows, (*request).listFlows)
	opPacketOut     = opRow("packet_out", true, (*request).checkPacketOut, (*request).packetOut)
	opFlowStats     = opRow("flow_stats", true, (*request).checkFlowStats, (*request).readFlowStats)
	opPortStats     = opRow("port_stats", true, (*request).checkPortStats, (*request).readPortStats)
	opSwitchStats   = opRow("switch_stats", true, (*request).checkSwitchStats, (*request).readSwitchStats)
	opSwitches      = opRow("switches", false, (*request).listedTopology, (*request).listSwitches)
	opLinks         = opRow("links", false, (*request).listedTopology, (*request).listLinks)
	opHosts         = opRow("hosts", false, (*request).listedTopology, (*request).listHosts)
	opAddLink       = opRow("add_link", false, (*request).checkLink, (*request).addLink)
	opRemoveLink    = opRow("remove_link", false, (*request).checkLink, (*request).removeLink)
	opPublish       = opRow("publish", false, (*request).checkPublish, (*request).publish)
	opReadModel     = opRow("read_model", false, (*request).checkReadModel, (*request).readModel)
	opHostConnect   = opRow("host_connect", false, (*request).checkHostConnect, (*request).hostConnect)
	opHostReadFile  = opRow("host_read_file", false, (*request).checkFile, (*request).hostReadFile)
	opHostWriteFile = opRow("host_write_file", false, (*request).checkFile, (*request).hostWriteFile)
	opHostExec      = opRow("host_exec", false, (*request).checkExec, (*request).hostExec)
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
// one call share it, and the request crosses the KSD hop.
func (a *shieldedAPI) mediate(r *request) error {
	if a.container.Health() == Quarantined {
		mQuarantinedCalls.Inc()
		return fmt.Errorf("%w: %s", ErrAppQuarantined, a.name)
	}
	if r.op.onSwitch && a.virt != nil && r.dpid != bigSwitchDPID {
		return a.virt.outside()
	}
	r.org = controller.Origin{App: a.name, Corr: audit.NextCorr()}
	return a.shield.hop(r)
}

// call runs one call of an op that returns only an error.
func (a *shieldedAPI) call(op *mediatedOp, in args) error {
	r := a.request(op, in)
	defer r.put()
	return a.mediate(r)
}

// callFor runs one call of an op with a result, which out reads out.
func callFor[T any](a *shieldedAPI, op *mediatedOp, in args, out func(*request) T) (T, error) {
	r := a.request(op, in)
	defer r.put()
	err := a.mediate(r)
	return out(r), err
}

// precheck is a Tx's check of a planned call: the op's own decision.
func (a *shieldedAPI) precheck(op *mediatedOp, in args, corr uint64) error {
	r := a.request(op, in)
	defer r.put()
	r.org.Corr = corr
	return op.decide(r)
}

// check decides a built call, held in the request: stamped with the
// caller and corr, its stateful attributes resolved — Engine.Resolve is
// the one place insert_flow's owner and rule count are found, for the
// live call and for Explain alike — and handed to the engine.
func (r *request) check(call core.Call) error {
	r.call = call
	r.call.App, r.call.Corr = r.a.name, r.org.Corr
	r.a.engine().Resolve(&r.call)
	return r.a.engine().Check(&r.call)
}

// listed is a listing's op-level decision: without the token the listing
// is denied outright, as one audited decision; with it the app sees the
// rows its filter admits (visible), which is no decision at all.
func (r *request) listed(call core.Call) error {
	if r.a.engine().HasToken(r.a.name, call.Token) {
		return nil
	}
	return r.check(call)
}

// visible keeps the rows of a listing that the app's grant for token
// admits (§IV-B: filters restrict what an app sees rather than deny the
// listing outright). describe fills in, on the request's call, what one
// row presents to the filters. Row filtering is not a mediated decision:
// the listing's op-level check is, so nothing here is counted, logged or
// audited.
func visible[T any](r *request, token core.Token, rows []T, describe func(T, *core.Call)) []T {
	allows := r.a.engine().Filter(r.a.name, token)
	kept := rows[:0]
	for _, x := range rows {
		r.call = core.Call{App: r.a.name, Token: token}
		describe(x, &r.call)
		if allows(&r.call) {
			kept = append(kept, x)
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

// orNone stands the empty action list in for a nil one.
func orNone(actions []of.Action) []of.Action {
	if actions == nil {
		return []of.Action{}
	}
	return actions
}

// ---------------------------------------------------------------------------
// Flow table and packet I/O

func (a *shieldedAPI) InsertFlow(dpid of.DPID, spec controller.FlowSpec) error {
	return a.call(opInsertFlow, args{dpid: dpid, spec: spec})
}

// checkInsert decides insert_flow's call; check resolves its owner — the
// foreign rule the new one could shadow — and the caller's rule count.
func (r *request) checkInsert() error {
	return r.check(core.Call{Token: core.TokenInsertFlow, DPID: r.dpid, HasDPID: true, Match: r.spec.Match,
		Actions: orNone(r.spec.Actions), Priority: r.spec.Priority, HasPriority: true})
}

func (r *request) insertFlow() error {
	if r.a.virt != nil {
		return r.a.virt.insertFlow(r.org, r.spec)
	}
	return r.a.shield.kernel.InsertFlowAs(r.org, r.dpid, r.spec)
}

// checkAffected is modify's and delete's decision: one call per resident
// rule the match subsumes, so a single call cannot touch another app's
// flows unnoticed; with nothing resident, the call as issued, unowned. An
// app behind the virtual big switch has nothing resident at DPID 0: its
// translated deletes only ever touch its own physical rules.
func (r *request) checkAffected(token core.Token, actions []of.Action) error {
	var entries []*flowtable.Entry
	if r.a.virt == nil {
		var err error
		if entries, err = r.a.shield.kernel.Flows(r.dpid, r.spec.Match); err != nil {
			return err
		}
	}
	if len(entries) == 0 {
		entries = []*flowtable.Entry{{Match: r.spec.Match, Priority: r.spec.Priority}}
	}
	for _, e := range entries {
		call := core.Call{Token: token, DPID: r.dpid, HasDPID: true, Match: e.Match, Actions: actions,
			Priority: e.Priority, HasPriority: true, FlowOwner: e.Owner, HasFlowOwner: true}
		if call.Actions == nil {
			call.Actions = e.Actions
		}
		if err := r.check(call); err != nil {
			return err
		}
	}
	return nil
}

// ModifyFlow is checked against modify_flow when the app holds it and
// against insert_flow otherwise (Table II: insert_flow "including insert
// and modify").
func (a *shieldedAPI) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	return a.call(opModifyFlow, args{dpid: dpid, spec: controller.FlowSpec{Match: match, Priority: priority, Actions: actions}})
}

func (r *request) checkModify() error {
	token := core.TokenModifyFlow
	if !r.a.HasPermission(token) {
		token = core.TokenInsertFlow
	}
	return r.checkAffected(token, r.spec.Actions)
}

func (r *request) modifyFlow() error {
	return r.a.shield.kernel.ModifyFlowAs(r.org, r.dpid, r.spec.Match, r.spec.Priority, r.spec.Actions)
}

func (a *shieldedAPI) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	return a.call(opDeleteFlow, args{dpid: dpid, spec: controller.FlowSpec{Match: match, Priority: priority}, strict: strict})
}

func (r *request) checkDelete() error { return r.checkAffected(core.TokenDeleteFlow, nil) }

func (r *request) deleteFlow() error {
	if r.a.virt != nil {
		return r.a.virt.deleteFlow(r.org, r.spec.Match, r.spec.Priority, r.strict)
	}
	return r.a.shield.kernel.DeleteFlowAs(r.org, r.dpid, r.spec.Match, r.spec.Priority, r.strict)
}

func (a *shieldedAPI) Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error) {
	return callFor(a, opFlows, args{dpid: dpid, spec: controller.FlowSpec{Match: match}},
		func(r *request) []*flowtable.Entry { return r.flows })
}

func (r *request) listedFlows() error {
	return r.listed(core.Call{Token: core.TokenReadFlowTable, DPID: r.dpid, HasDPID: true, Match: r.spec.Match,
		HasFlowOwner: true})
}

func (r *request) listFlows() error {
	entries, err := r.a.shield.kernel.Flows(r.dpid, r.spec.Match)
	r.flows = visible(r, core.TokenReadFlowTable, entries, func(e *flowtable.Entry, row *core.Call) {
		row.DPID, row.HasDPID, row.Match, row.Actions = r.dpid, true, e.Match, e.Actions
		row.Priority, row.HasPriority, row.FlowOwner, row.HasFlowOwner = e.Priority, true, e.Owner, true
	})
	return err
}

func (a *shieldedAPI) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	return a.call(opPacketOut, args{dpid: dpid, bufferID: bufferID, port: inPort,
		spec: controller.FlowSpec{Actions: actions}, pkt: pkt})
}

// checkPacketOut decides send_pkt_out's call, with its provenance: whether
// the packet is a buffered packet-in rather than one the app made up.
func (r *request) checkPacketOut() error {
	call := core.Call{Token: core.TokenSendPktOut, DPID: r.dpid, HasDPID: true, Actions: orNone(r.spec.Actions),
		HasProvenance: true, FromPktIn: r.pkt == nil && r.bufferID != 0 && r.a.shield.kernel.PacketInSeen(r.dpid, r.bufferID)}
	if r.pkt != nil {
		call.Match = r.match.FillFromPacket(r.pkt, r.port)
	}
	return r.check(call)
}

// packetOut sends the request's packet, its own clone: the packet-out
// outlives the call (the kernel copies the actions into it).
func (r *request) packetOut() error {
	return r.a.shield.kernel.SendPacketOutAs(r.org, r.dpid, r.bufferID, r.port, r.spec.Actions, r.pkt)
}

// ---------------------------------------------------------------------------
// Statistics

// statsCall is read_statistics' call at one level.
func statsCall(dpid of.DPID, level of.StatsType, match *of.Match) core.Call {
	return core.Call{Token: core.TokenReadStatistics, DPID: dpid, HasDPID: true, StatsLevel: level, Match: match}
}

func (a *shieldedAPI) FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error) {
	return callFor(a, opFlowStats, args{dpid: dpid, spec: controller.FlowSpec{Match: match}},
		func(r *request) []of.FlowStatsEntry { return r.flowStats })
}

func (r *request) checkFlowStats() error {
	return r.check(statsCall(r.dpid, of.StatsFlow, r.spec.Match))
}

func (r *request) readFlowStats() (err error) {
	if r.a.virt != nil {
		r.flowStats, err = r.a.virt.flowStats(r.spec.Match)
		return err
	}
	rows, err := r.a.shield.kernel.FlowStats(r.dpid, r.spec.Match)
	r.flowStats = visible(r, core.TokenReadStatistics, rows, func(x of.FlowStatsEntry, row *core.Call) {
		row.DPID, row.HasDPID, row.StatsLevel = r.dpid, true, of.StatsFlow
		row.Match, row.Priority, row.HasPriority = x.Match, x.Priority, true
	})
	return err
}

func (a *shieldedAPI) PortStats(dpid of.DPID, port uint16) ([]of.PortStatsEntry, error) {
	return callFor(a, opPortStats, args{dpid: dpid, port: port}, func(r *request) []of.PortStatsEntry { return r.portStats })
}

func (r *request) checkPortStats() error { return r.check(statsCall(r.dpid, of.StatsPort, nil)) }

func (r *request) readPortStats() (err error) {
	if r.a.virt != nil {
		r.portStats, err = r.a.virt.portStats(r.port)
	} else {
		r.portStats, err = r.a.shield.kernel.PortStats(r.dpid, r.port)
	}
	return err
}

func (a *shieldedAPI) SwitchStats(dpid of.DPID) (of.SwitchStats, error) {
	return callFor(a, opSwitchStats, args{dpid: dpid}, func(r *request) of.SwitchStats { return r.switchStats })
}

func (r *request) checkSwitchStats() error { return r.check(statsCall(r.dpid, of.StatsSwitch, nil)) }

func (r *request) readSwitchStats() (err error) {
	if r.a.virt != nil {
		r.switchStats, err = r.a.virt.switchStats()
	} else {
		r.switchStats, err = r.a.shield.kernel.SwitchStats(r.dpid)
	}
	return err
}

// ---------------------------------------------------------------------------
// Topology

// listedTopology is the op-level decision Switches, Links and Hosts share.
func (r *request) listedTopology() error {
	return r.listed(core.Call{Token: core.TokenVisibleTopology})
}

// topologyRows is the listing they share: the translator's view behind
// the virtual big switch, otherwise the physical rows the filter admits.
func topologyRows[T any](r *request, virtual func(*translator) []T,
	physical func(*topology.Topology) []T, describe func(T, *core.Call)) []T {
	if r.a.virt != nil {
		return virtual(r.a.virt)
	}
	return visible(r, core.TokenVisibleTopology, physical(r.a.shield.kernel.Topology()), describe)
}

func (a *shieldedAPI) Switches() ([]topology.SwitchInfo, error) {
	return callFor(a, opSwitches, args{}, func(r *request) []topology.SwitchInfo { return r.switches })
}

func (r *request) listSwitches() error {
	r.switches = topologyRows(r, (*translator).switches, (*topology.Topology).Switches,
		func(s topology.SwitchInfo, row *core.Call) { row.Switches = []of.DPID{s.DPID} })
	return nil
}

func (a *shieldedAPI) Links() ([]topology.Link, error) {
	return callFor(a, opLinks, args{}, func(r *request) []topology.Link { return r.links })
}

func (r *request) listLinks() error {
	// A single big switch has no internal links.
	r.links = topologyRows(r, func(*translator) []topology.Link { return nil }, (*topology.Topology).Links,
		func(l topology.Link, row *core.Call) {
			row.Switches = []of.DPID{l.A, l.B}
			row.Links = []core.LinkID{l.ID()}
		})
	return nil
}

func (a *shieldedAPI) Hosts() ([]topology.Host, error) {
	return callFor(a, opHosts, args{}, func(r *request) []topology.Host { return r.hosts })
}

func (r *request) listHosts() error {
	r.hosts = topologyRows(r, (*translator).hosts, (*topology.Topology).Hosts,
		func(h topology.Host, row *core.Call) { row.Switches = []of.DPID{h.Switch} })
	return nil
}

// checkLink decides modify_topology's call for an edit of the link.
func (r *request) checkLink() error {
	sw := []of.DPID{r.link.A, r.link.B}
	return r.check(core.Call{Token: core.TokenModifyTopology, Switches: sw, Links: []core.LinkID{r.link.ID()}})
}

func (a *shieldedAPI) AddLink(l topology.Link) error { return a.call(opAddLink, args{link: l}) }

func (r *request) addLink() error { return r.a.shield.kernel.AddLink(r.link) }

func (a *shieldedAPI) RemoveLink(x, y of.DPID) error {
	return a.call(opRemoveLink, args{link: topology.Link{A: x, B: y}})
}

func (r *request) removeLink() error {
	r.a.shield.kernel.RemoveLink(r.link.A, r.link.B)
	return nil
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
	return a.call(opPublish, args{path: path, value: value})
}

func (r *request) checkPublish() error { return r.check(modelCall(r.path, true)) }

func (r *request) publish() error {
	r.a.shield.kernel.Publish(r.path, r.value)
	return nil
}

func (a *shieldedAPI) ReadModel(path string) (interface{}, bool, error) {
	r := a.request(opReadModel, args{path: path})
	defer r.put()
	err := a.mediate(r)
	return r.value, r.ok, err
}

func (r *request) checkReadModel() error { return r.check(modelCall(r.path, false)) }

func (r *request) readModel() error {
	r.value, r.ok = r.a.shield.kernel.ReadModel(r.path)
	return nil
}

// ---------------------------------------------------------------------------
// Host system calls (the SecurityManager role)

func (a *shieldedAPI) HostConnect(ip of.IPv4, port uint16) (*hostsim.Conn, error) {
	return callFor(a, opHostConnect, args{ip: ip, port: port}, func(r *request) *hostsim.Conn { return r.conn })
}

func (r *request) checkHostConnect() error {
	return r.check(core.Call{Token: core.TokenHostNetwork, HostIP: r.ip, HostPort: r.port, HasHostIP: true})
}

func (r *request) hostConnect() (err error) {
	r.conn, err = r.a.shield.kernel.HostOS().Connect(r.ip, r.port)
	return err
}

func (a *shieldedAPI) HostReadFile(path string) ([]byte, error) {
	return callFor(a, opHostReadFile, args{path: path}, func(r *request) []byte { return r.data })
}

func (r *request) checkFile() error {
	return r.check(core.Call{Token: core.TokenFileSystem, Path: r.path})
}

func (r *request) hostReadFile() (err error) {
	r.data, err = r.a.shield.kernel.HostOS().ReadFile(r.path)
	return err
}

func (a *shieldedAPI) HostWriteFile(path string, data []byte) error {
	return a.call(opHostWriteFile, args{path: path, data: data})
}

func (r *request) hostWriteFile() error {
	r.a.shield.kernel.HostOS().WriteFile(r.path, r.data)
	return nil
}

func (a *shieldedAPI) HostExec(cmd string) error { return a.call(opHostExec, args{path: cmd}) }

func (r *request) checkExec() error { return r.check(core.Call{Token: core.TokenProcessRuntime}) }

func (r *request) hostExec() error {
	r.a.shield.kernel.HostOS().Exec(r.path)
	return nil
}

// ---------------------------------------------------------------------------
// Events and utilities

// eventTable is the op table of deliveries: per event kind, the token
// guarding it and what one event presents to the app's filters (nil: the
// token alone decides); m is scratch space for a match describe derives.
var eventTable = [...]struct {
	token    core.Token
	describe func(ev controller.Event, call *core.Call, m *of.Match)
}{
	controller.EventPacketIn: {core.TokenPktInEvent, func(ev controller.Event, call *core.Call, m *of.Match) {
		call.DPID, call.HasDPID = ev.PacketIn.DPID, true
		call.Match = m.FillFromPacket(ev.PacketIn.Packet, ev.PacketIn.InPort)
	}},
	controller.EventFlowRemoved: {core.TokenFlowEvent, func(ev controller.Event, call *core.Call, _ *of.Match) {
		call.DPID, call.HasDPID, call.Match = ev.FlowRemoved.DPID, true, ev.FlowRemoved.Match
		call.Priority, call.HasPriority = ev.FlowRemoved.Priority, true
		call.FlowOwner, call.HasFlowOwner = ev.FlowOwner, true
	}},
	controller.EventPortStatus: {core.TokenTopologyEvent, func(ev controller.Event, call *core.Call, _ *of.Match) {
		call.DPID, call.HasDPID = ev.PortStatus.DPID, true
	}},
	controller.EventTopology: {core.TokenTopologyEvent, func(ev controller.Event, call *core.Call, _ *of.Match) {
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
// event's kind. The call and the match a packet-in presents live in a
// pooled request.
func (s *Shield) allowEvent(app string, ev controller.Event) bool {
	e := eventTable[ev.Kind]
	r := requests.Get().(*request)
	defer r.put()
	r.call = core.Call{App: app, Token: e.token, Event: core.CallbackObserve}
	if e.describe != nil {
		e.describe(ev, &r.call, &r.match)
	}
	return s.engine.Check(&r.call) == nil
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
