package apps

import (
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// env wires a linear network, a kernel and both runtimes.
type env struct {
	built  *netsim.Built
	kernel *controller.Kernel
	shield *isolation.Shield
	mono   *isolation.Monolith
}

func newEnv(t *testing.T, switches int) *env {
	t.Helper()
	b, err := netsim.Linear(switches)
	if err != nil {
		t.Fatal(err)
	}
	k := controller.New(b.Topo, nil)
	for _, sw := range b.Net.Switches() {
		ctrlSide, swSide := of.Pipe()
		if err := sw.Start(swSide); err != nil {
			t.Fatal(err)
		}
		if _, err := k.AcceptSwitch(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
	s := isolation.NewShield(k, isolation.Config{})
	t.Cleanup(func() {
		s.Stop()
		k.Stop()
		b.Net.Stop()
	})
	return &env{built: b, kernel: k, shield: s, mono: isolation.NewMonolith(k)}
}

func grantManifest(t *testing.T, s *isolation.Shield, name, manifest string) {
	t.Helper()
	s.SetPermissions(name, permlang.MustParse(manifest).Set())
}

// pingAndWait sends a TCP segment from hosts[i] to hosts[j] and waits for
// delivery.
func pingAndWait(t *testing.T, e *env, i, j int, dport uint16, timeout time.Duration) bool {
	t.Helper()
	e.built.Hosts[j].ClearInbox()
	e.built.Hosts[i].SendTCP(e.built.Hosts[j], 40000, dport, of.TCPFlagSYN, []byte("ping"))
	_, ok := e.built.Hosts[j].WaitFor(func(p *of.Packet) bool { return p.TPDst == dport }, timeout)
	return ok
}

func TestL2SwitchOnMonolith(t *testing.T) {
	e := newEnv(t, 3)
	l2 := NewL2Switch("")
	if err := e.mono.Launch(l2); err != nil {
		t.Fatal(err)
	}

	// Prime MAC learning with ARP broadcasts from both ends, as in the
	// paper's scenario.
	h1, h3 := e.built.Hosts[0], e.built.Hosts[2]
	h1.Send(of.NewARPRequest(h1.MAC(), h1.IP(), h3.IP()))
	h3.Send(of.NewARPRequest(h3.MAC(), h3.IP(), h1.IP()))
	time.Sleep(20 * time.Millisecond)

	if !pingAndWait(t, e, 0, 2, 80, 2*time.Second) {
		t.Fatal("unicast not delivered after learning")
	}
	pins1, _, _ := l2.Stats()
	// A second packet should ride the installed rules without new
	// packet-ins on the learned path.
	if !pingAndWait(t, e, 0, 2, 80, 2*time.Second) {
		t.Fatal("second packet lost")
	}
	time.Sleep(20 * time.Millisecond)
	pins2, flows, _ := l2.Stats()
	if flows == 0 {
		t.Error("no switching rules installed")
	}
	if pins2 != pins1 {
		t.Errorf("second packet caused %d extra packet-ins", pins2-pins1)
	}
}

func TestL2SwitchOnShieldWithManifest(t *testing.T) {
	e := newEnv(t, 2)
	l2 := NewL2Switch("l2switch")
	grantManifest(t, e.shield, "l2switch", l2.RequiredPermissions())
	if err := e.shield.Launch(l2); err != nil {
		t.Fatal(err)
	}

	h1, h2 := e.built.Hosts[0], e.built.Hosts[1]
	h1.Send(of.NewARPRequest(h1.MAC(), h1.IP(), h2.IP()))
	h2.Send(of.NewARPRequest(h2.MAC(), h2.IP(), h1.IP()))
	time.Sleep(20 * time.Millisecond)

	if !pingAndWait(t, e, 0, 1, 8080, 2*time.Second) {
		t.Fatal("shielded l2switch failed to forward")
	}
	_, flows, denials := l2.Stats()
	if flows == 0 {
		t.Error("no rules installed under shield")
	}
	if denials != 0 {
		t.Errorf("legitimate app hit %d denials", denials)
	}
}

func TestRouterReactiveRouting(t *testing.T) {
	e := newEnv(t, 3)
	r := NewRouter("")
	grantManifest(t, e.shield, "router", r.RequiredPermissions())
	if err := e.shield.Launch(r); err != nil {
		t.Fatal(err)
	}
	if !pingAndWait(t, e, 0, 2, 443, 2*time.Second) {
		t.Fatal("router did not establish the path")
	}
	if r.Routes() == 0 {
		t.Error("no routes recorded")
	}
	if r.Denials() != 0 {
		t.Errorf("router hit %d denials", r.Denials())
	}
	// The installed rules carry the router's ownership.
	flows, err := e.kernel.Flows(2, nil)
	if err != nil || len(flows) == 0 {
		t.Fatalf("no rules on middle switch: %v", err)
	}
	if flows[0].Owner != "router" {
		t.Errorf("owner = %q", flows[0].Owner)
	}
}

func TestAltoAndTrafficEngineer(t *testing.T) {
	e := newEnv(t, 3)
	alto := NewAlto("")
	te := NewTrafficEngineer("", [][2]of.IPv4{
		{e.built.Hosts[0].IP(), e.built.Hosts[2].IP()},
	})
	grantManifest(t, e.shield, "alto", alto.RequiredPermissions())
	grantManifest(t, e.shield, "te", te.RequiredPermissions())

	if err := e.shield.Launch(te); err != nil {
		t.Fatal(err)
	}
	if err := e.shield.Launch(alto); err != nil {
		t.Fatal(err)
	}

	// The initial publication triggers a TE reaction installing routes on
	// every switch along the path.
	deadline := time.Now().Add(2 * time.Second)
	for {
		installed := 0
		for dpid := of.DPID(1); dpid <= 3; dpid++ {
			if flows, err := e.kernel.Flows(dpid, nil); err == nil && len(flows) > 0 {
				installed++
			}
		}
		if installed == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TE routes incomplete (%d/3 switches, %d reactions, %d denials)",
				installed, te.Reactions(), te.Denials())
		}
		time.Sleep(time.Millisecond)
	}
	// The shadow tables hold the routes once the flow-mods are sent; the
	// switches apply them asynchronously, so fence each before the ping.
	for dpid := of.DPID(1); dpid <= 3; dpid++ {
		if err := e.kernel.Barrier(dpid); err != nil {
			t.Fatal(err)
		}
	}
	if !pingAndWait(t, e, 0, 2, 9000, 2*time.Second) {
		t.Fatal("TE route does not carry traffic")
	}
	if alto.Updates() == 0 {
		t.Error("no ALTO updates recorded")
	}
	if te.Denials() != 0 {
		t.Errorf("TE hit %d denials", te.Denials())
	}

	// A cost change triggers another reaction.
	before := te.Reactions()
	if err := alto.SetLinkCost(core.NewLinkID(1, 2), 10); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for te.Reactions() == before {
		if time.Now().After(deadline) {
			t.Fatal("TE did not react to the cost update")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMonitorScenario1(t *testing.T) {
	e := newEnv(t, 2)
	collectorIP := of.IPv4FromOctets(10, 1, 0, 9)
	collector := e.kernel.HostOS().RegisterEndpoint(collectorIP, 443)
	outsider := e.kernel.HostOS().RegisterEndpoint(of.IPv4FromOctets(8, 8, 8, 8), 80)

	m := NewMonitor("", collectorIP, 443)
	// The reconciled Scenario 1 permissions (insert_flow truncated).
	grantManifest(t, e.shield, "monitor", `
PERM visible_topology LIMITING SWITCH {1,2}
PERM read_statistics
PERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0
`)
	if err := e.shield.Launch(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Poll(); err != nil {
		t.Fatalf("poll failed: %v", err)
	}
	if m.Reports() != 1 || len(collector.Received()) != 1 {
		t.Error("report not delivered")
	}
	if len(outsider.Received()) != 0 {
		t.Error("report leaked outside the admin range")
	}
}

func TestFirewallBlocksTraffic(t *testing.T) {
	e := newEnv(t, 2)
	fw := NewFirewall("", []uint16{22})
	l2 := NewL2Switch("")
	grantManifest(t, e.shield, "firewall", fw.RequiredPermissions())
	grantManifest(t, e.shield, "l2switch", l2.RequiredPermissions())
	if err := e.shield.Launch(fw); err != nil {
		t.Fatal(err)
	}
	if err := e.shield.Launch(l2); err != nil {
		t.Fatal(err)
	}
	if fw.Installed() == 0 {
		t.Fatal("no ACL rules installed")
	}
	if fw.Denials() != 0 {
		t.Errorf("firewall hit %d denials", fw.Denials())
	}

	h1, h2 := e.built.Hosts[0], e.built.Hosts[1]
	h1.Send(of.NewARPRequest(h1.MAC(), h1.IP(), h2.IP()))
	h2.Send(of.NewARPRequest(h2.MAC(), h2.IP(), h1.IP()))
	time.Sleep(20 * time.Millisecond)

	if !pingAndWait(t, e, 0, 1, 80, 2*time.Second) {
		t.Fatal("allowed port blocked")
	}
	if pingAndWait(t, e, 0, 1, 22, 100*time.Millisecond) {
		t.Fatal("blocked port passed the firewall")
	}
}
