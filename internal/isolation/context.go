package isolation

import (
	"fmt"
	"strings"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/hostsim"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/topology"
)

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

func modelTokenFor(path string, write bool) core.Token {
	root, _, _ := strings.Cut(path, "/")
	entry, ok := modelTokens[root]
	if !ok {
		entry = modelTokens["topology"]
	}
	if write {
		return entry.write
	}
	return entry.read
}

// shieldedAPI is the mediated API implementation: every method builds the
// permission-check view of the call and routes check + execution through
// the KSD pool.
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
		if vf := findVirtFilter(set); vf != nil && vf.Mode() == core.VirtSingleBigSwitch {
			api.virt = newTranslator(s.kernel, c.name)
		}
	}
	return api
}

// findVirtFilter scans the visible_topology grant for a virtual-topology
// filter leaf.
func findVirtFilter(set *core.Set) *core.VirtTopoFilter {
	expr, ok := set.FilterFor(core.TokenVisibleTopology)
	if !ok {
		return nil
	}
	var found *core.VirtTopoFilter
	var walk func(e core.Expr)
	walk = func(e core.Expr) {
		switch v := e.(type) {
		case *core.Leaf:
			if vf, ok := v.F.(*core.VirtTopoFilter); ok && found == nil {
				found = vf
			}
		case *core.Not:
			walk(v.X)
		case *core.And:
			walk(v.L)
			walk(v.R)
		case *core.Or:
			walk(v.L)
			walk(v.R)
		}
	}
	walk(expr)
	return found
}

func (a *shieldedAPI) AppName() string { return a.name }

func (a *shieldedAPI) engine() *permengine.Engine { return a.shield.engine }

// do routes a call through the KSD pool after the lifecycle gate: a
// quarantined app's API handle is dead — every call fails fast without
// consuming a deputy. It mints the call's correlation ID here, at the
// mediated-call boundary, and hands it to fn so the permission check and
// every switch-side effect of this one call share it.
func (a *shieldedAPI) do(op *mediatedOp, fn func(corr uint64) error) error {
	if a.container != nil && a.container.Health() == Quarantined {
		mQuarantinedCalls.Inc()
		return fmt.Errorf("%w: %s", ErrAppQuarantined, a.name)
	}
	corr := audit.NextCorr()
	return a.shield.do(a.container, op, corr, func() error { return fn(corr) })
}

// apiValue is do for calls with results.
func apiValue[T any](a *shieldedAPI, op *mediatedOp, fn func(corr uint64) (T, error)) (T, error) {
	if a.container != nil && a.container.Health() == Quarantined {
		mQuarantinedCalls.Inc()
		var zero T
		return zero, fmt.Errorf("%w: %s", ErrAppQuarantined, a.name)
	}
	corr := audit.NextCorr()
	return doValue(a.shield, a.container, op, corr, func() (T, error) { return fn(corr) })
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

// foreignOwner finds the owner of a foreign flow the operation would
// affect: any rule overlapping the match whose owner differs from the
// caller and which the new rule could shadow (equal or lower priority).
// Returns "" when the operation only touches the app's own flow space.
func (a *shieldedAPI) foreignOwner(dpid of.DPID, match *of.Match, priority uint16) string {
	owner, _ := a.shield.kernel.ForeignFlowOwner(a.name, dpid, match, priority)
	return owner
}

// checkInsertFlow builds and checks the insert_flow call.
func (a *shieldedAPI) checkInsertFlow(corr uint64, dpid of.DPID, spec controller.FlowSpec) error {
	match := orAny(spec.Match)
	actions := spec.Actions
	if actions == nil {
		actions = []of.Action{}
	}
	call := &core.Call{
		App:          a.name,
		Token:        core.TokenInsertFlow,
		Corr:         corr,
		DPID:         dpid,
		HasDPID:      true,
		Match:        match,
		Actions:      actions,
		Priority:     spec.Priority,
		HasPriority:  true,
		FlowOwner:    a.foreignOwner(dpid, match, spec.Priority),
		HasFlowOwner: true,
		RuleCount:    a.shield.kernel.RuleCount(a.name, dpid),
		HasRuleCount: true,
	}
	return a.engine().Check(call)
}

func (a *shieldedAPI) InsertFlow(dpid of.DPID, spec controller.FlowSpec) error {
	return a.do(opInsertFlow, func(corr uint64) error {
		if a.virt != nil {
			return a.virt.insertFlow(a, corr, dpid, spec)
		}
		if err := a.checkInsertFlow(corr, dpid, spec); err != nil {
			return err
		}
		return a.shield.kernel.InsertFlowAs(controller.Origin{App: a.name, Corr: corr}, dpid, spec)
	})
}

// modifyToken returns the token guarding flow modification for this app:
// modify_flow when granted, otherwise insert_flow (Table II: insert_flow
// "including insert and modify").
func (a *shieldedAPI) modifyToken() core.Token {
	if a.engine().HasToken(a.name, core.TokenModifyFlow) {
		return core.TokenModifyFlow
	}
	return core.TokenInsertFlow
}

// checkAffected checks token against every existing rule the match
// subsumes, so a single call cannot touch another app's flows unnoticed.
func (a *shieldedAPI) checkAffected(corr uint64, token core.Token, dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	match = orAny(match)
	entries, err := a.shield.kernel.Flows(dpid, match)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		// Nothing resident to affect: check the call as issued, unowned.
		entries = []*flowtable.Entry{{Match: match, Priority: priority}}
	}
	for _, e := range entries {
		call := &core.Call{
			App: a.name, Token: token, Corr: corr, DPID: dpid, HasDPID: true,
			Match: e.Match, Actions: actions,
			Priority: e.Priority, HasPriority: true,
			FlowOwner: e.Owner, HasFlowOwner: true,
		}
		if call.Actions == nil {
			call.Actions = e.Actions
		}
		if err := a.engine().Check(call); err != nil {
			return err
		}
	}
	return nil
}

func (a *shieldedAPI) ModifyFlow(dpid of.DPID, match *of.Match, priority uint16, actions []of.Action) error {
	return a.do(opModifyFlow, func(corr uint64) error {
		if err := a.checkAffected(corr, a.modifyToken(), dpid, match, priority, actions); err != nil {
			return err
		}
		return a.shield.kernel.ModifyFlowAs(controller.Origin{App: a.name, Corr: corr}, dpid, match, priority, actions)
	})
}

func (a *shieldedAPI) checkDeleteFlow(corr uint64, dpid of.DPID, match *of.Match, priority uint16) error {
	return a.checkAffected(corr, core.TokenDeleteFlow, dpid, match, priority, nil)
}

// virtualDeleteCall builds the delete_flow check for the virtual view
// (translated deletes only ever touch the app's own physical rules).
func (a *shieldedAPI) virtualDeleteCall(corr uint64, match *of.Match, priority uint16) *core.Call {
	return &core.Call{
		App: a.name, Token: core.TokenDeleteFlow, Corr: corr, DPID: bigSwitchDPID, HasDPID: true,
		Match: orAny(match), Priority: priority, HasPriority: true, HasFlowOwner: true,
	}
}

func (a *shieldedAPI) DeleteFlow(dpid of.DPID, match *of.Match, priority uint16, strict bool) error {
	return a.do(opDeleteFlow, func(corr uint64) error {
		if a.virt != nil {
			return a.virt.deleteFlow(a, corr, dpid, match, priority, strict)
		}
		if err := a.checkDeleteFlow(corr, dpid, match, priority); err != nil {
			return err
		}
		return a.shield.kernel.DeleteFlowAs(controller.Origin{App: a.name, Corr: corr}, dpid, match, priority, strict)
	})
}

func (a *shieldedAPI) Flows(dpid of.DPID, match *of.Match) ([]*flowtable.Entry, error) {
	return apiValue(a, opFlows, func(corr uint64) ([]*flowtable.Entry, error) {
		// Audit-visible check of the operation itself.
		opCall := &core.Call{
			App: a.name, Token: core.TokenReadFlowTable, Corr: corr, DPID: dpid, HasDPID: true,
			Match: orAny(match), HasFlowOwner: true,
		}
		if !a.engine().HasToken(a.name, core.TokenReadFlowTable) {
			return nil, a.engine().Check(opCall)
		}
		entries, err := a.shield.kernel.Flows(dpid, match)
		if err != nil {
			return nil, err
		}
		return visible(a, core.TokenReadFlowTable, entries, func(e *flowtable.Entry, row *core.Call) {
			row.DPID, row.HasDPID = dpid, true
			row.Match, row.Actions = e.Match, e.Actions
			row.Priority, row.HasPriority = e.Priority, true
			row.FlowOwner, row.HasFlowOwner = e.Owner, true
		}), nil
	})
}

func (a *shieldedAPI) SendPacketOut(dpid of.DPID, bufferID uint32, inPort uint16, actions []of.Action, pkt *of.Packet) error {
	return a.do(opPacketOut, func(corr uint64) error {
		fromPktIn := pkt == nil && bufferID != 0 && a.shield.kernel.PacketInSeen(dpid, bufferID)
		call := &core.Call{
			App: a.name, Token: core.TokenSendPktOut, Corr: corr, DPID: dpid, HasDPID: true,
			Actions:       actions,
			FromPktIn:     fromPktIn,
			HasProvenance: true,
		}
		if call.Actions == nil {
			call.Actions = []of.Action{}
		}
		if pkt != nil {
			call.Match = of.MatchFromPacket(pkt, inPort)
		}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		return a.shield.kernel.SendPacketOutAs(controller.Origin{App: a.name, Corr: corr}, dpid, bufferID, inPort, actions, pkt)
	})
}

// ---------------------------------------------------------------------------
// Statistics

func (a *shieldedAPI) FlowStats(dpid of.DPID, match *of.Match) ([]of.FlowStatsEntry, error) {
	return apiValue(a, opFlowStats, func(corr uint64) ([]of.FlowStatsEntry, error) {
		call := &core.Call{
			App: a.name, Token: core.TokenReadStatistics, Corr: corr, DPID: dpid, HasDPID: true,
			StatsLevel: of.StatsFlow, Match: orAny(match),
		}
		if err := a.engine().Check(call); err != nil {
			return nil, err
		}
		if a.virt != nil {
			return a.virt.flowStats(dpid, match)
		}
		rows, err := a.shield.kernel.FlowStats(dpid, match)
		if err != nil {
			return nil, err
		}
		return visible(a, core.TokenReadStatistics, rows, func(r of.FlowStatsEntry, row *core.Call) {
			row.DPID, row.HasDPID = dpid, true
			row.StatsLevel, row.Match = of.StatsFlow, r.Match
			row.Priority, row.HasPriority = r.Priority, true
		}), nil
	})
}

func (a *shieldedAPI) PortStats(dpid of.DPID, port uint16) ([]of.PortStatsEntry, error) {
	return apiValue(a, opPortStats, func(corr uint64) ([]of.PortStatsEntry, error) {
		call := &core.Call{
			App: a.name, Token: core.TokenReadStatistics, Corr: corr, DPID: dpid, HasDPID: true,
			StatsLevel: of.StatsPort,
		}
		if err := a.engine().Check(call); err != nil {
			return nil, err
		}
		if a.virt != nil {
			return a.virt.portStats(dpid, port)
		}
		return a.shield.kernel.PortStats(dpid, port)
	})
}

func (a *shieldedAPI) SwitchStats(dpid of.DPID) (of.SwitchStats, error) {
	return apiValue(a, opSwitchStats, func(corr uint64) (of.SwitchStats, error) {
		call := &core.Call{
			App: a.name, Token: core.TokenReadStatistics, Corr: corr, DPID: dpid, HasDPID: true,
			StatsLevel: of.StatsSwitch,
		}
		if err := a.engine().Check(call); err != nil {
			return of.SwitchStats{}, err
		}
		if a.virt != nil {
			return a.virt.switchStats()
		}
		return a.shield.kernel.SwitchStats(dpid)
	})
}

// ---------------------------------------------------------------------------
// Topology

// listTopology is the shape Switches, Links and Hosts share. Without
// visible_topology the listing is denied outright, as one audited
// decision; an app on the virtual big switch gets the translator's view;
// anyone else gets the physical rows its filter admits.
func listTopology[T any](a *shieldedAPI, op *mediatedOp, virtual func(*translator) []T,
	physical func(*topology.Topology) []T, describe func(T, *core.Call)) ([]T, error) {
	return apiValue(a, op, func(corr uint64) ([]T, error) {
		if !a.engine().HasToken(a.name, core.TokenVisibleTopology) {
			return nil, a.engine().Check(&core.Call{App: a.name, Token: core.TokenVisibleTopology, Corr: corr})
		}
		if a.virt != nil {
			return virtual(a.virt), nil
		}
		return visible(a, core.TokenVisibleTopology, physical(a.shield.kernel.Topology()), describe), nil
	})
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

func (a *shieldedAPI) AddLink(l topology.Link) error {
	return a.do(opAddLink, func(corr uint64) error {
		call := &core.Call{App: a.name, Token: core.TokenModifyTopology, Corr: corr,
			Switches: []of.DPID{l.A, l.B}, Links: []core.LinkID{l.ID()}}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		return a.shield.kernel.AddLink(l)
	})
}

func (a *shieldedAPI) RemoveLink(x, y of.DPID) error {
	return a.do(opRemoveLink, func(corr uint64) error {
		call := &core.Call{App: a.name, Token: core.TokenModifyTopology, Corr: corr,
			Switches: []of.DPID{x, y}, Links: []core.LinkID{core.NewLinkID(x, y)}}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		a.shield.kernel.RemoveLink(x, y)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Model-driven data store

func (a *shieldedAPI) Publish(path string, value interface{}) error {
	return a.do(opPublish, func(corr uint64) error {
		call := &core.Call{App: a.name, Token: modelTokenFor(path, true), Corr: corr}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		a.shield.kernel.Publish(path, value)
		return nil
	})
}

func (a *shieldedAPI) ReadModel(path string) (interface{}, bool, error) {
	type result struct {
		v  interface{}
		ok bool
	}
	res, err := apiValue(a, opReadModel, func(corr uint64) (result, error) {
		call := &core.Call{App: a.name, Token: modelTokenFor(path, false), Corr: corr}
		if err := a.engine().Check(call); err != nil {
			return result{}, err
		}
		v, ok := a.shield.kernel.ReadModel(path)
		return result{v: v, ok: ok}, nil
	})
	return res.v, res.ok, err
}

// ---------------------------------------------------------------------------
// Host system calls (the SecurityManager role)

func (a *shieldedAPI) HostConnect(ip of.IPv4, port uint16) (*hostsim.Conn, error) {
	return apiValue(a, opHostConnect, func(corr uint64) (*hostsim.Conn, error) {
		call := &core.Call{App: a.name, Token: core.TokenHostNetwork, Corr: corr,
			HostIP: ip, HostPort: port, HasHostIP: true}
		if err := a.engine().Check(call); err != nil {
			return nil, err
		}
		return a.shield.kernel.HostOS().Connect(ip, port)
	})
}

func (a *shieldedAPI) HostReadFile(path string) ([]byte, error) {
	return apiValue(a, opHostReadFile, func(corr uint64) ([]byte, error) {
		call := &core.Call{App: a.name, Token: core.TokenFileSystem, Corr: corr, Path: path}
		if err := a.engine().Check(call); err != nil {
			return nil, err
		}
		return a.shield.kernel.HostOS().ReadFile(path)
	})
}

func (a *shieldedAPI) HostWriteFile(path string, data []byte) error {
	return a.do(opHostWriteFile, func(corr uint64) error {
		call := &core.Call{App: a.name, Token: core.TokenFileSystem, Corr: corr, Path: path}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		a.shield.kernel.HostOS().WriteFile(path, data)
		return nil
	})
}

func (a *shieldedAPI) HostExec(cmd string) error {
	return a.do(opHostExec, func(corr uint64) error {
		call := &core.Call{App: a.name, Token: core.TokenProcessRuntime, Corr: corr}
		if err := a.engine().Check(call); err != nil {
			return err
		}
		a.shield.kernel.HostOS().Exec(cmd)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Events and utilities

func (a *shieldedAPI) Subscribe(kind controller.EventKind, fn controller.Handler) error {
	return a.container.subscribe(kind, fn)
}

func (a *shieldedAPI) HasPermission(token core.Token) bool {
	return a.engine().HasToken(a.name, token)
}

func (a *shieldedAPI) Transaction() *Tx {
	return &Tx{api: a}
}

// residentFlows and restoreFlow are the transaction's rollback log
// (txAPI). The snapshot is empty where the kernel knows no such switch,
// which includes the virtual big switch.
func (a *shieldedAPI) residentFlows(dpid of.DPID, match *of.Match) []*flowtable.Entry {
	entries, _ := a.shield.kernel.Flows(dpid, match)
	return entries
}

func (a *shieldedAPI) restoreFlow(dpid of.DPID, e *flowtable.Entry) error {
	return a.do(opInsertFlow, func(corr uint64) error {
		return a.shield.kernel.InsertFlowAs(controller.Origin{App: e.Owner, Corr: corr}, dpid, restoreSpec(e))
	})
}
