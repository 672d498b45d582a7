package isolation

import (
	"fmt"
	"sort"

	"sdnshield/internal/controller"
	"sdnshield/internal/of"
	"sdnshield/internal/topology"
)

// translator implements the abstract-topology evaluation of §VI-B1: apps
// behind a VIRTUAL SINGLE_BIG_SWITCH filter see one switch (DPID 0) whose
// ports are the physical network's external ports. Flow rules addressed
// to the virtual switch are expanded into per-switch rules along shortest
// physical paths; statistics queries fan out to the member switches and
// aggregate.
type translator struct {
	kernel *controller.Kernel
	app    string
}

func newTranslator(kernel *controller.Kernel, app string) *translator {
	return &translator{kernel: kernel, app: app}
}

// bigSwitchDPID is the DPID of the app-visible virtual switch.
const bigSwitchDPID of.DPID = 0

func (t *translator) mapping() *topology.BigSwitchMap {
	return topology.BuildBigSwitchMap(t.kernel.Topology())
}

func (t *translator) switches() []topology.SwitchInfo {
	m := t.mapping()
	return []topology.SwitchInfo{{DPID: bigSwitchDPID, Ports: m.Ports()}}
}

func (t *translator) hosts() []topology.Host {
	m := t.mapping()
	var out []topology.Host
	for _, h := range t.kernel.Topology().Hosts() {
		if v, ok := m.Virtual(topology.AttachPoint{Switch: h.Switch, Port: h.Port}); ok {
			out = append(out, topology.Host{MAC: h.MAC, IP: h.IP, Switch: bigSwitchDPID, Port: v})
		}
	}
	return out
}

// outside is the refusal of a DPID-addressed call to any switch but the
// big switch.
func (t *translator) outside() error {
	return fmt.Errorf("isolation: app %q sees only the virtual switch %v", t.app, bigSwitchDPID)
}

// insertFlow installs the expansion of one virtual rule, already decided
// on the virtual view, under org.
func (t *translator) insertFlow(org controller.Origin, spec controller.FlowSpec) error {
	rules, err := t.expand(spec)
	if err != nil {
		return err
	}
	for _, r := range rules {
		phys := spec
		phys.Match, phys.Actions = r.match, r.actions
		if err := t.kernel.InsertFlowAs(org, r.dpid, phys); err != nil {
			return err
		}
	}
	return nil
}

// physRule is one per-switch rule of a virtual rule's expansion.
type physRule struct {
	dpid    of.DPID
	match   *of.Match
	actions []of.Action
}

// expand translates one virtual rule. The virtual match may pin IN_PORT
// to a virtual port, which confines the expansion to the rules reached
// from that ingress; Output actions address virtual ports; SetField
// actions are applied at the egress switch. A drop rule goes on every
// member switch; a forwarding rule is laid along the shortest paths
// toward each egress, one rule per switch.
func (t *translator) expand(spec controller.FlowSpec) ([]physRule, error) {
	m, topo := t.mapping(), t.kernel.Topology()
	vmatch := orAny(spec.Match)
	sources := topo.SwitchIDs()
	var ingress *topology.AttachPoint
	if v, mask := vmatch.Get(of.FieldInPort); mask != 0 {
		ap, err := m.Physical(uint16(v))
		if err != nil {
			return nil, err
		}
		ingress, sources = &ap, []of.DPID{ap.Switch}
	}
	rule := func(dpid of.DPID, actions ...of.Action) physRule {
		phys := vmatch.Clone()
		phys.SetMasked(of.FieldInPort, 0, 0) // ports are remapped physically
		if ingress != nil && dpid == ingress.Switch {
			phys.Set(of.FieldInPort, uint64(ingress.Port))
		}
		return physRule{dpid, phys, actions}
	}

	var rewrites []of.Action
	var egress []uint16
	drop := len(spec.Actions) == 0
	for _, a := range spec.Actions {
		switch a.Type {
		case of.ActionDrop:
			drop = true
		case of.ActionSetField:
			rewrites = append(rewrites, a)
		case of.ActionOutput:
			egress = append(egress, a.Port)
		case of.ActionFlood:
			for p := 1; p <= m.NumPorts(); p++ {
				egress = append(egress, uint16(p))
			}
		}
	}
	var rules []physRule
	if drop {
		for _, dpid := range sources {
			rules = append(rules, rule(dpid, of.Drop()))
		}
		return rules, nil
	}
	for _, vport := range egress {
		out, err := m.Physical(vport)
		if err != nil {
			return nil, err
		}
		laid := make(map[of.DPID]bool) // sources sharing a path suffix share its rules
		for _, src := range sources {
			path, ok := topo.ShortestPath(src, out.Switch)
			if !ok {
				return nil, fmt.Errorf("isolation: egress switch %v unreachable from %v", out.Switch, src)
			}
			for _, hop := range path {
				switch {
				case laid[hop.DPID]:
				case hop.DPID == out.Switch:
					rules = append(rules, rule(hop.DPID, append(append([]of.Action(nil), rewrites...), of.Output(out.Port))...))
				default:
					rules = append(rules, rule(hop.DPID, of.Output(hop.OutPort)))
				}
				laid[hop.DPID] = true
			}
		}
	}
	return rules, nil
}

// deleteFlow removes the app's translated rules matching the virtual
// match from every member switch, under org: the delete the app was
// allowed, or a transaction's undo of a translated insert.
func (t *translator) deleteFlow(org controller.Origin, match *of.Match, priority uint16, strict bool) error {
	physMatch := orAny(match).Clone()
	physMatch.SetMasked(of.FieldInPort, 0, 0)
	for _, sw := range t.kernel.Topology().SwitchIDs() {
		entries, err := t.kernel.Flows(sw, physMatch)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.Owner != t.app {
				continue // never touch other apps' physical rules
			}
			if strict && e.Priority != priority {
				continue
			}
			if err := t.kernel.DeleteFlowAs(org, sw, e.Match, e.Priority, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// flowStats aggregates the app's translated rules across member
// switches, grouped by physical match.
func (t *translator) flowStats(match *of.Match) ([]of.FlowStatsEntry, error) {
	physMatch := orAny(match).Clone()
	physMatch.SetMasked(of.FieldInPort, 0, 0)
	agg := make(map[string]*of.FlowStatsEntry)
	var order []string
	for _, sw := range t.kernel.Topology().SwitchIDs() {
		// Aggregate over the kernel's authoritative per-switch counters.
		rows, err := t.kernel.FlowStats(sw, physMatch)
		if err != nil {
			return nil, err
		}
		owned, err := t.kernel.Flows(sw, physMatch)
		if err != nil {
			return nil, err
		}
		ours := make(map[string]bool, len(owned))
		for _, e := range owned {
			if e.Owner == t.app {
				ours[e.Match.Key()+fmt.Sprint(e.Priority)] = true
			}
		}
		for _, row := range rows {
			key := row.Match.Key() + fmt.Sprint(row.Priority)
			if !ours[key] {
				continue
			}
			// Strip the physical in-port for the virtual view key.
			vMatch := row.Match.Clone()
			vMatch.SetMasked(of.FieldInPort, 0, 0)
			vkey := vMatch.Key() + fmt.Sprint(row.Priority)
			if entry, ok := agg[vkey]; ok {
				entry.Packets += row.Packets
				entry.Bytes += row.Bytes
			} else {
				agg[vkey] = &of.FlowStatsEntry{
					Match: vMatch, Priority: row.Priority, Cookie: row.Cookie,
					Packets: row.Packets, Bytes: row.Bytes,
				}
				order = append(order, vkey)
			}
		}
	}
	sort.Strings(order)
	out := make([]of.FlowStatsEntry, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out, nil
}

// portStats maps virtual ports to physical attachment points and queries
// each.
func (t *translator) portStats(vport uint16) ([]of.PortStatsEntry, error) {
	m := t.mapping()
	var vports []uint16
	if vport == of.PortNone {
		for p := 1; p <= m.NumPorts(); p++ {
			vports = append(vports, uint16(p))
		}
	} else {
		vports = []uint16{vport}
	}
	out := make([]of.PortStatsEntry, 0, len(vports))
	for _, vp := range vports {
		ap, err := m.Physical(vp)
		if err != nil {
			return nil, err
		}
		rows, err := t.kernel.PortStats(ap.Switch, ap.Port)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			row.Port = vp
			out = append(out, row)
		}
	}
	return out, nil
}

// switchStats aggregates switch-level counters over all member switches.
func (t *translator) switchStats() (of.SwitchStats, error) {
	var agg of.SwitchStats
	for _, sw := range t.kernel.Topology().SwitchIDs() {
		s, err := t.kernel.SwitchStats(sw)
		if err != nil {
			return of.SwitchStats{}, err
		}
		agg.FlowCount += s.FlowCount
		agg.PacketsTotal += s.PacketsTotal
		agg.BytesTotal += s.BytesTotal
	}
	return agg, nil
}
