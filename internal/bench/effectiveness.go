package bench

import (
	"errors"
	"fmt"
	"time"

	"sdnshield/internal/apps"
	"sdnshield/internal/apps/malicious"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
	"sdnshield/internal/reconcile"
)

// AttackOutcome is one cell pair of Table I: how one attack class fared
// on one runtime.
type AttackOutcome struct {
	Class     int
	Attack    string
	Runtime   string // "baseline" or "sdnshield"
	Succeeded bool
	// DeniedSteps counts attack steps the permission engine blocked.
	DeniedSteps uint64
	// LaunchDenied reports the app could not even initialize.
	LaunchDenied bool
	// Err is the harness failure (network wiring, an app launch, a
	// data-plane probe) that kept the attack from being measured; the
	// fields above are then meaningless.
	Err error
}

// attackerIP is where the Class 2 drop box listens.
var attackerIP = of.IPv4FromOctets(203, 0, 113, 9)

// securityPolicy is the administrator's template policy for third-party
// apps: the Scenario 1 boundary plus the attack-pattern mutual
// exclusions of §III/§V-A. Reconciliation cuts every attack app's
// requested permissions down to this envelope.
const securityPolicy = `
LET boundary = {
	PERM visible_topology
	PERM read_statistics LIMITING PORT_LEVEL
	PERM network_access LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0
}
ASSERT EITHER { PERM network_access } OR { PERM send_packet_out }
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
ASSERT APP untrusted <= boundary
`

// attacker is a proof-of-concept malicious app: it ships an over-broad
// manifest and counts the attack steps the permission engine denied.
type attacker interface {
	isolation.App
	RequestedPermissions() string
	Denied() uint64
}

// attack is one row of Table I.
type attack struct {
	name     string
	switches int
	firewall bool // the attack targets the firewall, launched beside L2
	// The paper's literature cells for the class.
	trafficIsolation, stateAnalysis string
	// app builds the attacker against the network's hosts.
	app func(hosts []*netsim.Host) attacker
	// strike drives the attack (launched reports whether the attacker
	// initialized) and reads off the data plane whether it succeeded.
	strike func(e *attackEnv, app attacker, launched bool) (bool, error)
}

const attackWait = 300 * time.Millisecond

// attacks are Table I's rows, one proof-of-concept app per attack class.
var attacks = []attack{
	{
		// Sniff packet-ins, inject TCP RSTs into HTTP sessions. Success: a
		// victim host receives a forged RST.
		name: "intrusion to data plane (TCP RST injection)", switches: 2,
		trafficIsolation: "partial", stateAnalysis: "no",
		app: func([]*netsim.Host) attacker { return malicious.NewRSTInjector("") },
		strike: func(e *attackEnv, _ attacker, _ bool) (bool, error) {
			e.warmUp()
			h1, h2 := e.built.Hosts[0], e.built.Hosts[1]
			// An HTTP session between the victims.
			h1.SendTCP(h2, 45000, 80, of.TCPFlagSYN, []byte("GET /"))
			h2.SendTCP(h1, 80, 45000, of.TCPFlagACK, []byte("200 OK"))
			gotRST := func(h *netsim.Host) bool {
				_, ok := h.WaitFor(func(p *of.Packet) bool {
					return p.IPProto == of.IPProtoTCP && p.TCPFlags&of.TCPFlagRST != 0
				}, attackWait)
				return ok
			}
			return gotRST(h1) || gotRST(h2), nil
		},
	},
	{
		// Dump topology/config to a remote attacker. Success: the
		// attacker's drop box received data.
		name: "information leakage (topology exfiltration)", switches: 3,
		trafficIsolation: "no", stateAnalysis: "no",
		app: func([]*netsim.Host) attacker { return malicious.NewLeaker("", attackerIP, 80) },
		strike: func(e *attackEnv, app attacker, launched bool) (bool, error) {
			dropBox := e.kernel.HostOS().RegisterEndpoint(attackerIP, 80)
			if launched {
				//nolint:errcheck // denial is the expected shielded outcome
				app.(*malicious.Leaker).Exfiltrate()
			}
			return len(dropBox.Received()) > 0, nil
		},
	},
	{
		// Divert h1→h2 traffic through the attacker's host h3. Success: h3
		// observes a packet addressed to h2.
		name: "rule manipulation (man-in-the-middle reroute)", switches: 3,
		trafficIsolation: "partial", stateAnalysis: "partial",
		app: func(h []*netsim.Host) attacker {
			return malicious.NewRouteHijacker("", h[0].IP(), h[1].IP(), h[2].IP())
		},
		strike: func(e *attackEnv, app attacker, launched bool) (bool, error) {
			h1, h2, h3 := e.built.Hosts[0], e.built.Hosts[1], e.built.Hosts[2]
			e.warmUp()
			if launched {
				//nolint:errcheck // success is read off the data plane
				app.(*malicious.RouteHijacker).Hijack()
			}
			e.barrier()
			h3.ClearInbox()
			h1.SendTCP(h2, 46000, 80, of.TCPFlagSYN, []byte("secret"))
			_, diverted := h3.WaitFor(func(p *of.Packet) bool { return p.IPDst == h2.IP() }, attackWait)
			return diverted, nil
		},
	},
	{
		// Evade the firewall's port-22 ACL by dynamic-flow tunneling.
		// Success: h2 receives port-22 traffic despite the ACL.
		name: "attacking other apps (dynamic-flow tunneling)", switches: 2, firewall: true,
		trafficIsolation: "no", stateAnalysis: "partial",
		app: func(h []*netsim.Host) attacker { return malicious.NewTunneler("", h[0].IP(), h[1].IP(), 22) },
		strike: func(e *attackEnv, app attacker, launched bool) (bool, error) {
			h1, h2 := e.built.Hosts[0], e.built.Hosts[1]
			e.warmUp()
			e.barrier()
			// Sanity: the firewall does block port 22 without the tunnel.
			h1.SendTCP(h2, 47000, 22, of.TCPFlagSYN, nil)
			if _, leaked := h2.WaitFor(func(p *of.Packet) bool { return p.TPDst == 22 }, 100*time.Millisecond); leaked {
				return false, fmt.Errorf("firewall baseline broken: port 22 passed without tunnel")
			}
			if launched {
				//nolint:errcheck // success is read off the data plane
				app.(*malicious.Tunneler).Establish()
			}
			e.barrier()
			h2.ClearInbox()
			h1.SendTCP(h2, 47001, 22, of.TCPFlagSYN, []byte("ssh"))
			_, smuggled := h2.WaitFor(func(p *of.Packet) bool { return p.TPDst == 22 }, attackWait)
			return smuggled, nil
		},
	},
}

// attackEnv is one fresh netsim network under a kernel with both runtimes.
type attackEnv struct {
	controlPlane
	built *netsim.Built
}

// FaultWrap decorates a switch's controller-side connection, typically
// with a faults.Wrap plan; nil leaves the connection clean.
type FaultWrap func(dpid of.DPID, ctrl of.Conn) of.Conn

func newAttackEnv(switches int, runtime string, wrap FaultWrap) (*attackEnv, error) {
	b, err := netsim.Linear(switches)
	if err != nil {
		return nil, err
	}
	k := controller.New(b.Topo, nil)
	if err := b.Wire(func(conn of.Conn) error {
		_, err := k.AcceptSwitch(conn)
		return err
	}, wrap); err != nil {
		k.Stop()
		b.Net.Stop()
		return nil, err
	}
	return &attackEnv{controlPlane: newControlPlane(k, runtime, isolation.Config{}), built: b}, nil
}

func (e *attackEnv) close() {
	e.stop()
	e.built.Net.Stop()
}

// reconciled repairs an attacker's requested manifest against
// securityPolicy; its Reconciled set is what SDNShield grants.
func reconciled(app attacker) (*reconcile.Result, error) {
	manifest, err := permlang.Parse(app.RequestedPermissions())
	if err != nil {
		return nil, err
	}
	policy, err := policylang.Parse(securityPolicy)
	if err != nil {
		return nil, err
	}
	engine := reconcile.New()
	engine.RegisterApp("untrusted", manifest.Set())
	return engine.Reconcile("untrusted", manifest, policy)
}

// barrier synchronizes with every switch so previously issued flow-mods
// are applied before the data plane is probed.
func (e *attackEnv) barrier() {
	for _, sw := range e.kernel.Switches() {
		//nolint:errcheck // best-effort synchronization
		e.kernel.Barrier(sw.DPID)
	}
}

// warmUp primes MAC learning between the hosts.
func (e *attackEnv) warmUp() {
	for _, h := range e.built.Hosts {
		h.Send(of.NewARPRequest(h.MAC(), h.IP(), 0))
	}
	time.Sleep(30 * time.Millisecond)
	for _, h := range e.built.Hosts {
		h.ClearInbox()
	}
}

// RunEffectiveness reproduces the §IX-B1 experiment: every Table I attack
// on the baseline controller, then on the SDNShield-enabled one with the
// attacker's manifest reconciled against securityPolicy. A non-nil wrap
// layers faults over every switch's control connection, so the outcomes
// can be validated under degraded transport too. Every row reports an
// outcome; one the harness could not measure carries its failure in Err,
// and the returned error joins those failures.
func RunEffectiveness(wrap FaultWrap) ([]AttackOutcome, error) {
	var out []AttackOutcome
	var failures []error
	for _, runtime := range runtimes {
		for i, a := range attacks {
			o := AttackOutcome{Class: i + 1, Attack: a.name, Runtime: runtime}
			if err := a.run(&o, wrap); err != nil {
				o.Err = err
				failures = append(failures, fmt.Errorf("class %d on %s: %w", o.Class, runtime, err))
			}
			out = append(out, o)
		}
	}
	return out, errors.Join(failures...)
}

// run measures the attack on o.Runtime: a fresh network, the L2 substrate
// (and the firewall) under their own manifests, the attacker under its
// reconciled one, then the strike.
func (a attack) run(o *AttackOutcome, wrap FaultWrap) error {
	e, err := newAttackEnv(a.switches, o.Runtime, wrap)
	if err != nil {
		return err
	}
	defer e.close()
	if a.firewall {
		fw := apps.NewFirewall("firewall", []uint16{22})
		if err := e.launch(fw, manifest(fw)); err != nil {
			return err
		}
	}
	l2 := apps.NewL2Switch("l2switch")
	if err := e.launch(l2, manifest(l2)); err != nil {
		return err
	}
	app := a.app(e.built.Hosts)
	var set *core.Set // the baseline grants everything
	if o.Runtime == "sdnshield" {
		res, err := reconciled(app)
		if err != nil {
			return err
		}
		set = res.Reconciled
	}
	launchErr := e.launch(app, set)
	o.LaunchDenied = launchErr != nil
	o.Succeeded, err = a.strike(e, app, launchErr == nil)
	o.DeniedSteps = app.Denied()
	return err
}

// FormatTable1 renders the outcomes the way Table I reads: per attack
// class, whether each runtime stops it. The traffic-isolation and
// state-analysis columns are the paper's analytical values, reproduced
// for comparison.
func FormatTable1(outcomes []AttackOutcome) string {
	cell := func(class int, runtime string) string {
		for _, o := range outcomes {
			if o.Class != class || o.Runtime != runtime {
				continue
			}
			switch {
			case o.Err != nil:
				return "harness failure"
			case o.Succeeded:
				return "vulnerable"
			}
			return "protected"
		}
		return "?"
	}
	t := NewTable("Table I: attack protection coverage (measured: baseline & SDNShield; literature: others)",
		"class", "attack", "baseline", "traffic-isolation*", "state-analysis*", "sdnshield")
	for i, a := range attacks {
		t.AddRow(i+1, a.name, cell(i+1, "baseline"), a.trafficIsolation, a.stateAnalysis, cell(i+1, "sdnshield"))
	}
	return t.String()
}
