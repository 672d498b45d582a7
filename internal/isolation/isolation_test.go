package isolation

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
	"sdnshield/internal/topology"
)

// testEnv is a netsim network wired to a kernel plus a shield runtime.
type testEnv struct {
	built  *netsim.Built
	kernel *controller.Kernel
	shield *Shield
}

func newEnv(t *testing.T, switches int) *testEnv {
	t.Helper()
	return newEnvOver(t, switches, nil)
}

// newEnvOver is newEnv with each switch's control connection, on the
// kernel's side, passed through wrap (nil: none).
func newEnvOver(t *testing.T, switches int, wrap func(of.DPID, of.Conn) of.Conn) *testEnv {
	t.Helper()
	return newEnvWith(t, switches, wrap, Config{KSDWorkers: 2, EventQueueSize: 64})
}

// newEnvWith builds a linear network of switches, a kernel wired to it
// through wrap (nil: none) and a shield of cfg over it, all stopped when
// the test ends.
func newEnvWith(t *testing.T, switches int, wrap func(of.DPID, of.Conn) of.Conn, cfg Config) *testEnv {
	t.Helper()
	b, k := wire(t, switches, wrap)
	s := NewShield(k, cfg)
	t.Cleanup(func() {
		s.Stop()
		k.Stop()
		b.Net.Stop()
	})
	return &testEnv{built: b, kernel: k, shield: s}
}

// wire builds a linear network of switches and a kernel that has
// accepted each, its control connection passed through wrap (nil: none).
// The caller stops both.
func wire(t *testing.T, switches int, wrap func(of.DPID, of.Conn) of.Conn) (*netsim.Built, *controller.Kernel) {
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
		if wrap != nil {
			ctrlSide = wrap(sw.DPID(), ctrlSide)
		}
		if _, err := k.AcceptSwitch(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
	return b, k
}

// funcApp adapts a closure into an App.
type funcApp struct {
	name string
	init func(API) error
}

func (f *funcApp) Name() string       { return f.name }
func (f *funcApp) Init(api API) error { return f.init(api) }
func app(name string, init func(API) error) *funcApp {
	return &funcApp{name: name, init: init}
}

func grant(t *testing.T, s *Shield, name, manifest string) {
	t.Helper()
	s.SetPermissions(name, permlang.MustParse(manifest).Set())
}

func TestShieldedInsertFlowAllowedAndDenied(t *testing.T) {
	env := newEnv(t, 2)
	grant(t, env.shield, "router", "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS")

	var api API
	if err := env.shield.Launch(app("router", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	spec := controller.FlowSpec{
		Match:    of.NewMatch().Set(of.FieldIPDst, uint64(env.built.Hosts[1].IP())),
		Priority: 10,
		Actions:  []of.Action{of.Output(3)},
	}
	if err := api.InsertFlow(1, spec); err != nil {
		t.Fatalf("forward rule denied: %v", err)
	}
	// Rule landed on the switch with ownership in the shadow.
	if owner, ok := env.kernel.FlowOwner(1, spec.Match, 10); !ok || owner != "router" {
		t.Errorf("owner = %q, %v", owner, ok)
	}

	// Denied: drop action.
	bad := spec
	bad.Match = of.NewMatch().Set(of.FieldIPDst, 42)
	bad.Actions = []of.Action{of.Drop()}
	var denied *permengine.DeniedError
	if err := api.InsertFlow(1, bad); !errors.As(err, &denied) {
		t.Fatalf("drop rule should be denied, got %v", err)
	}

	// Denied: no manifest at all.
	grantless := app("ghost", func(a API) error {
		return a.InsertFlow(1, spec)
	})
	if err := env.shield.Launch(grantless); err == nil {
		t.Fatal("ghost app's insert should fail Init")
	}
}

func TestOwnershipPreventsOverride(t *testing.T) {
	// The §VII Scenario 2 property: a routing app with OWN_FLOWS cannot
	// overwrite (shadow) the firewall's rules.
	env := newEnv(t, 2)
	grant(t, env.shield, "firewall", "PERM insert_flow")
	grant(t, env.shield, "router", "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS")

	var fwAPI, rtAPI API
	if err := env.shield.Launch(app("firewall", func(a API) error { fwAPI = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("router", func(a API) error { rtAPI = a; return nil })); err != nil {
		t.Fatal(err)
	}

	// Firewall blocks port 22 with priority 100.
	fwMatch := of.NewMatch().Set(of.FieldTPDst, 22)
	if err := fwAPI.InsertFlow(1, controller.FlowSpec{Match: fwMatch, Priority: 100, Actions: []of.Action{of.Drop()}}); err != nil {
		t.Fatal(err)
	}

	// Router tries to shadow it with a higher-priority forward rule
	// (dynamic-flow-tunneling step 1): denied.
	evil := of.NewMatch().Set(of.FieldTPDst, 22).Set(of.FieldIPDst, uint64(env.built.Hosts[1].IP()))
	err := rtAPI.InsertFlow(1, controller.FlowSpec{Match: evil, Priority: 200, Actions: []of.Action{of.Output(3)}})
	var denied *permengine.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("override should be denied, got %v", err)
	}

	// A lower-priority rule in disjoint flow space is fine.
	ok := of.NewMatch().Set(of.FieldTPDst, 443)
	if err := rtAPI.InsertFlow(1, controller.FlowSpec{Match: ok, Priority: 50, Actions: []of.Action{of.Output(3)}}); err != nil {
		t.Fatalf("disjoint rule denied: %v", err)
	}

	// Router cannot delete or modify the firewall's rule either.
	if err := rtAPI.DeleteFlow(1, fwMatch, 0, false); err == nil {
		t.Error("foreign delete should be denied")
	}
	if err := rtAPI.ModifyFlow(1, fwMatch, 100, []of.Action{of.Output(3)}); err == nil {
		t.Error("foreign modify should be denied")
	}
	// The firewall rule is intact.
	if owner, ok := env.kernel.FlowOwner(1, fwMatch, 100); !ok || owner != "firewall" {
		t.Errorf("firewall rule gone: %q, %v", owner, ok)
	}
}

func TestFlowVisibilityFiltering(t *testing.T) {
	env := newEnv(t, 1)
	grant(t, env.shield, "writer", "PERM insert_flow")
	grant(t, env.shield, "peeker", "PERM read_flow_table LIMITING OWN_FLOWS OR IP_DST 10.13.0.0 MASK 255.255.0.0\nPERM insert_flow")

	var writer, peeker API
	if err := env.shield.Launch(app("writer", func(a API) error { writer = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("peeker", func(a API) error { peeker = a; return nil })); err != nil {
		t.Fatal(err)
	}

	inSubnet := of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 13, 1, 1)))
	outSubnet := of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(192, 168, 1, 1)))
	if err := writer.InsertFlow(1, controller.FlowSpec{Match: inSubnet, Priority: 5, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := writer.InsertFlow(1, controller.FlowSpec{Match: outSubnet, Priority: 5, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Fatal(err)
	}
	own := of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(172, 16, 0, 1)))
	if err := peeker.InsertFlow(1, controller.FlowSpec{Match: own, Priority: 5, Actions: []of.Action{of.Output(1)}}); err != nil {
		t.Fatal(err)
	}

	entries, err := peeker.Flows(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("visible entries = %d, want 2 (own + in-subnet)", len(entries))
	}
	for _, e := range entries {
		v, _ := e.Match.Get(of.FieldIPDst)
		ip := of.IPv4(v)
		if e.Owner != "peeker" && !ip.InSubnet(of.IPv4FromOctets(10, 13, 0, 0), of.PrefixMask(16)) {
			t.Errorf("leaked entry %v owned by %s", e.Match, e.Owner)
		}
	}

	// An app with no read token is denied outright.
	grant(t, env.shield, "blind", "PERM insert_flow")
	var blind API
	if err := env.shield.Launch(app("blind", func(a API) error { blind = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if _, err := blind.Flows(1, nil); err == nil {
		t.Error("read without token should be denied")
	}
}

func TestHostSyscallMediation(t *testing.T) {
	env := newEnv(t, 1)
	adminIP := of.IPv4FromOctets(10, 1, 0, 5)
	attackerIP := of.IPv4FromOctets(203, 0, 113, 7)
	admin := env.kernel.HostOS().RegisterEndpoint(adminIP, 443)
	attacker := env.kernel.HostOS().RegisterEndpoint(attackerIP, 80)

	grant(t, env.shield, "monitor", `
PERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0
PERM read_statistics
`)
	var api API
	if err := env.shield.Launch(app("monitor", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	conn, err := api.HostConnect(adminIP, 443)
	if err != nil {
		t.Fatalf("admin connect denied: %v", err)
	}
	conn.Send([]byte("report"))
	if len(admin.Received()) != 1 {
		t.Error("admin report lost")
	}

	if _, err := api.HostConnect(attackerIP, 80); err == nil {
		t.Fatal("exfiltration connect should be denied")
	}
	if len(attacker.Received()) != 0 {
		t.Error("data leaked to attacker")
	}

	// File system and process runtime are not granted.
	if _, err := api.HostReadFile("/etc/passwd"); err == nil {
		t.Error("file read should be denied")
	}
	if err := api.HostWriteFile("/tmp/x", nil); err == nil {
		t.Error("file write should be denied")
	}
	if err := api.HostExec("sh"); err == nil {
		t.Error("exec should be denied")
	}
}

func TestEventDeliveryFilteringAndRedaction(t *testing.T) {
	env := newEnv(t, 2)
	// subnetApp only sees packet-ins for 10.0.0.2 and has no read_payload.
	grant(t, env.shield, "subnetApp", `
PERM pkt_in_event LIMITING IP_DST 10.0.0.2
`)
	// fullApp sees everything including payloads.
	grant(t, env.shield, "fullApp", `
PERM pkt_in_event
PERM read_payload
`)

	type rec struct {
		dst     of.IPv4
		payload []byte
	}
	var mu sync.Mutex
	events := map[string][]rec{}
	listen := func(name string) func(API) error {
		return func(a API) error {
			return a.Subscribe(controller.EventPacketIn, func(ev controller.Event) {
				mu.Lock()
				events[name] = append(events[name], rec{
					dst:     ev.PacketIn.Packet.IPDst,
					payload: ev.PacketIn.Packet.Payload,
				})
				mu.Unlock()
			})
		}
	}
	if err := env.shield.Launch(app("subnetApp", listen("subnetApp"))); err != nil {
		t.Fatal(err)
	}
	if err := env.shield.Launch(app("fullApp", listen("fullApp"))); err != nil {
		t.Fatal(err)
	}

	h1, h2 := env.built.Hosts[0], env.built.Hosts[1]
	h1.SendTCP(h2, 1, 80, 0, []byte("secret")) // dst 10.0.0.2
	h2.SendTCP(h1, 1, 80, 0, []byte("other"))  // dst 10.0.0.1

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		full := len(events["fullApp"])
		mu.Unlock()
		if full >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events = %v", events)
		}
		time.Sleep(time.Millisecond)
	}
	// Allow any in-flight deliveries to subnetApp to complete.
	time.Sleep(20 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if len(events["subnetApp"]) != 1 {
		t.Fatalf("subnetApp saw %d events, want 1", len(events["subnetApp"]))
	}
	if events["subnetApp"][0].dst != h2.IP() {
		t.Error("wrong event passed the filter")
	}
	if len(events["subnetApp"][0].payload) != 0 {
		t.Error("payload must be redacted without read_payload")
	}
	for _, r := range events["fullApp"] {
		if len(r.payload) == 0 {
			t.Error("fullApp should see payloads")
		}
	}
}

func TestSubscribeWithoutTokenDenied(t *testing.T) {
	env := newEnv(t, 1)
	grant(t, env.shield, "mute", "PERM read_statistics")
	err := env.shield.Launch(app("mute", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) {})
	}))
	if err == nil {
		t.Fatal("subscription without token must fail at load time")
	}
}

func TestPanicContainment(t *testing.T) {
	env := newEnv(t, 1)
	grant(t, env.shield, "crasher", "PERM pkt_in_event")

	// Panic in Init is contained and reported.
	err := env.shield.Launch(app("crasher", func(API) error { panic("boom") }))
	if err == nil {
		t.Fatal("panicking init must error")
	}

	// Panic in a handler is absorbed; the controller survives.
	grant(t, env.shield, "flaky", "PERM pkt_in_event")
	launched := app("flaky", func(a API) error {
		return a.Subscribe(controller.EventPacketIn, func(controller.Event) { panic("handler boom") })
	})
	if err := env.shield.Launch(launched); err != nil {
		t.Fatal(err)
	}
	env.built.Hosts[0].Send(of.NewARPRequest(env.built.Hosts[0].MAC(), env.built.Hosts[0].IP(), 0))

	c, ok := env.shield.Container("flaky")
	if !ok {
		t.Fatal("container missing")
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Panics() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler panic not observed")
		}
		time.Sleep(time.Millisecond)
	}
	// Kernel still functional.
	if _, err := env.kernel.SwitchStats(1); err != nil {
		t.Errorf("kernel broken after app panic: %v", err)
	}
}

func TestPacketOutProvenance(t *testing.T) {
	env := newEnv(t, 2)
	grant(t, env.shield, "responder", `
PERM pkt_in_event
PERM send_pkt_out LIMITING FROM_PKT_IN
`)
	var api API
	pins := make(chan *of.PacketIn, 16)
	if err := env.shield.Launch(app("responder", func(a API) error {
		api = a
		return a.Subscribe(controller.EventPacketIn, func(ev controller.Event) {
			pins <- ev.PacketIn
		})
	})); err != nil {
		t.Fatal(err)
	}

	env.built.Hosts[0].SendTCP(env.built.Hosts[1], 9, 9, 0, nil)
	var pin *of.PacketIn
	select {
	case pin = <-pins:
	case <-time.After(2 * time.Second):
		t.Fatal("no packet-in")
	}

	// Re-emitting the buffered packet is allowed.
	if err := api.SendPacketOut(pin.DPID, pin.BufferID, of.PortNone, []of.Action{of.Output(3)}, nil); err != nil {
		t.Fatalf("buffered packet-out denied: %v", err)
	}
	// Fabricated packets are blocked (Class 1 defense).
	forged := of.NewTCPPacket(of.MAC{9}, of.MAC{8}, 1, 2, 3, 4, of.TCPFlagRST)
	if err := api.SendPacketOut(1, 0, of.PortNone, []of.Action{of.Flood()}, forged); err == nil {
		t.Fatal("forged packet-out should be denied")
	}
}

func TestMonolithAllowsEverything(t *testing.T) {
	b, err := netsim.Linear(2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Stop()
	k := controller.New(b.Topo, nil)
	defer k.Stop()
	for _, sw := range b.Net.Switches() {
		ctrlSide, swSide := of.Pipe()
		if err := sw.Start(swSide); err != nil {
			t.Fatal(err)
		}
		if _, err := k.AcceptSwitch(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMonolith(k)
	var api API
	if err := m.Launch(app("anything", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(app("anything", func(a API) error { return nil })); err == nil {
		t.Error("duplicate launch accepted")
	}

	if err := api.InsertFlow(1, controller.FlowSpec{Match: of.NewMatch(), Priority: 1, Actions: []of.Action{of.Drop()}}); err != nil {
		t.Errorf("monolith denied insert: %v", err)
	}
	if !api.HasPermission(core.TokenHostNetwork) {
		t.Error("monolith must report all permissions")
	}
	if _, err := api.Switches(); err != nil {
		t.Error(err)
	}
	if err := api.HostExec("anything"); err != nil {
		t.Error(err)
	}
	if err := api.Publish("alto/x", 1); err != nil {
		t.Error(err)
	}
	if v, ok, err := api.ReadModel("alto/x"); err != nil || !ok || v != 1 {
		t.Error("model round trip failed")
	}
	if m.Kernel() != k {
		t.Error("kernel accessor wrong")
	}
}

func TestTransactionAtomicity(t *testing.T) {
	env := newEnv(t, 2)
	grant(t, env.shield, "txapp", "PERM insert_flow LIMITING MAX_PRIORITY 100\nPERM delete_flow\nPERM read_flow_table")
	var api API
	if err := env.shield.Launch(app("txapp", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	m1 := of.NewMatch().Set(of.FieldTPDst, 80)
	m2 := of.NewMatch().Set(of.FieldTPDst, 443)

	// Second insert violates MAX_PRIORITY: nothing must be installed.
	tx := api.Transaction().
		InsertFlow(1, controller.FlowSpec{Match: m1, Priority: 10, Actions: []of.Action{of.Output(3)}}).
		InsertFlow(1, controller.FlowSpec{Match: m2, Priority: 999, Actions: []of.Action{of.Output(3)}})
	err := tx.Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) || txErr.Stage != "check" {
		t.Fatalf("err = %v", err)
	}
	if flows, _ := env.kernel.Flows(1, nil); len(flows) != 0 {
		t.Fatalf("partial transaction applied: %v", flows)
	}

	// All-valid transaction commits.
	tx = api.Transaction().
		InsertFlow(1, controller.FlowSpec{Match: m1, Priority: 10, Actions: []of.Action{of.Output(3)}}).
		InsertFlow(1, controller.FlowSpec{Match: m2, Priority: 20, Actions: []of.Action{of.Output(3)}})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if flows, _ := env.kernel.Flows(1, nil); len(flows) != 2 {
		t.Fatalf("expected 2 flows, got %d", len(flows))
	}
	if tx.Len() != 2 {
		t.Error("Len wrong")
	}

	// Delete + reinstall rollback: deleting on an unknown switch aborts
	// and the prior delete is reverted.
	tx = api.Transaction().
		DeleteFlow(1, m1, 10, true).
		InsertFlow(42, controller.FlowSpec{Match: m2, Priority: 10, Actions: []of.Action{of.Output(1)}})
	err = tx.Commit()
	if err == nil {
		t.Fatal("expected apply failure on unknown switch")
	}
	if flows, _ := env.kernel.Flows(1, nil); len(flows) != 2 {
		t.Fatalf("rollback failed: %d flows remain", len(flows))
	}
}

func TestVirtualBigSwitchTranslation(t *testing.T) {
	env := newEnv(t, 3)
	grant(t, env.shield, "tenant", `
PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS
PERM insert_flow
PERM delete_flow
PERM read_statistics
`)
	var api API
	if err := env.shield.Launch(app("tenant", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}

	// The tenant sees exactly one switch with the 5 external ports of the
	// 3-switch linear topology (h1, s1 left, h2, h3, s3 right).
	switches, err := api.Switches()
	if err != nil {
		t.Fatal(err)
	}
	if len(switches) != 1 || switches[0].DPID != 0 {
		t.Fatalf("switches = %v", switches)
	}
	if len(switches[0].Ports) != 5 {
		t.Fatalf("virtual ports = %d, want 5", len(switches[0].Ports))
	}
	links, err := api.Links()
	if err != nil || len(links) != 0 {
		t.Fatalf("big switch must expose no links: %v, %v", links, err)
	}
	hosts, err := api.Hosts()
	if err != nil || len(hosts) != 3 {
		t.Fatalf("hosts = %v, %v", hosts, err)
	}
	for _, h := range hosts {
		if h.Switch != 0 || h.Port == 0 {
			t.Errorf("host not mapped to virtual port: %+v", h)
		}
	}

	// Install a virtual rule: traffic to h3 -> the virtual port of h3.
	h3 := env.built.Hosts[2]
	var h3VPort uint16
	for _, h := range hosts {
		if h.IP == h3.IP() {
			h3VPort = h.Port
		}
	}
	spec := controller.FlowSpec{
		Match:    of.NewMatch().Set(of.FieldIPDst, uint64(h3.IP())),
		Priority: 10,
		Actions:  []of.Action{of.Output(h3VPort)},
	}
	if err := api.InsertFlow(0, spec); err != nil {
		t.Fatal(err)
	}
	// Physical rules landed on all three switches (path from any ingress).
	for dpid := of.DPID(1); dpid <= 3; dpid++ {
		flows, err := env.kernel.Flows(dpid, nil)
		if err != nil || len(flows) == 0 {
			t.Fatalf("no translated rule on switch %v", dpid)
		}
		if flows[0].Owner != "tenant" {
			t.Errorf("translated rule owner = %q", flows[0].Owner)
		}
	}
	// Addressing a physical switch is denied by the virtual filter.
	if err := api.InsertFlow(2, spec); err == nil {
		t.Error("physical DPID must be rejected")
	}

	// Synchronize with the switches before probing the data plane.
	for dpid := of.DPID(1); dpid <= 3; dpid++ {
		if err := env.kernel.Barrier(dpid); err != nil {
			t.Fatal(err)
		}
	}

	// Data-plane check: h1 -> h3 flows through.
	env.built.Hosts[0].SendTCP(h3, 5, 80, 0, []byte("x"))
	if _, ok := h3.WaitFor(func(p *of.Packet) bool { return p.TPDst == 80 }, 2*time.Second); !ok {
		t.Fatal("virtual rule does not forward")
	}

	// Stats aggregate over member switches.
	ss, err := api.SwitchStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.FlowCount != 3 || ss.PacketsTotal < 3 {
		t.Errorf("aggregated stats = %+v", ss)
	}
	fs, err := api.FlowStats(0, nil)
	if err != nil || len(fs) != 1 {
		t.Fatalf("virtual flow stats = %v, %v", fs, err)
	}
	if fs[0].Packets < 3 {
		t.Errorf("aggregated packets = %d", fs[0].Packets)
	}
	ps, err := api.PortStats(0, of.PortNone)
	if err != nil || len(ps) != 5 {
		t.Fatalf("virtual port stats = %v, %v", ps, err)
	}

	// Virtual delete removes every translated rule.
	if err := api.DeleteFlow(0, spec.Match, 10, false); err != nil {
		t.Fatal(err)
	}
	for dpid := of.DPID(1); dpid <= 3; dpid++ {
		if flows, _ := env.kernel.Flows(dpid, nil); len(flows) != 0 {
			t.Errorf("rule remains on switch %v", dpid)
		}
	}
}

func TestTopologyVisibilityFiltering(t *testing.T) {
	env := newEnv(t, 3)
	grant(t, env.shield, "tenant", "PERM visible_topology LIMITING SWITCH {1,2}")
	var api API
	if err := env.shield.Launch(app("tenant", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	switches, err := api.Switches()
	if err != nil {
		t.Fatal(err)
	}
	if len(switches) != 2 {
		t.Fatalf("visible switches = %v", switches)
	}
	links, err := api.Links()
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 || links[0].ID() != core.NewLinkID(1, 2) {
		t.Fatalf("visible links = %v", links)
	}
	hosts, err := api.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("visible hosts = %v", hosts)
	}
	// modify_topology is not granted.
	if err := api.AddLink(topology.Link{A: 1, APort: 3, B: 2, BPort: 2}); err == nil {
		t.Error("AddLink without modify_topology should be denied")
	}
	if err := api.RemoveLink(1, 2); err == nil {
		t.Error("RemoveLink without modify_topology should be denied")
	}
}

func TestModelAccessMediation(t *testing.T) {
	env := newEnv(t, 1)
	grant(t, env.shield, "alto", "PERM visible_topology\nPERM modify_topology")
	grant(t, env.shield, "te", "PERM visible_topology")
	grant(t, env.shield, "mute", "PERM read_statistics")

	var altoAPI, teAPI, muteAPI API
	for name, ptr := range map[string]*API{"alto": &altoAPI, "te": &teAPI, "mute": &muteAPI} {
		p := ptr
		if err := env.shield.Launch(app(name, func(a API) error { *p = a; return nil })); err != nil {
			t.Fatal(err)
		}
	}
	if err := altoAPI.Publish("alto/cost", 42); err != nil {
		t.Fatalf("alto publish denied: %v", err)
	}
	if err := teAPI.Publish("alto/cost", 43); err == nil {
		t.Error("te publish should be denied (no modify_topology)")
	}
	if v, ok, err := teAPI.ReadModel("alto/cost"); err != nil || !ok || v != 42 {
		t.Errorf("te read = (%v,%v,%v)", v, ok, err)
	}
	if _, _, err := muteAPI.ReadModel("alto/cost"); err == nil {
		t.Error("mute read should be denied")
	}
}

func TestShieldStoppedBehaviour(t *testing.T) {
	env := newEnv(t, 1)
	grant(t, env.shield, "late", "PERM read_statistics")
	var api API
	if err := env.shield.Launch(app("late", func(a API) error { api = a; return nil })); err != nil {
		t.Fatal(err)
	}
	env.shield.Stop()
	if _, err := api.SwitchStats(1); !errors.Is(err, ErrShieldStopped) {
		t.Errorf("err = %v, want ErrShieldStopped", err)
	}
	if err := env.shield.Launch(app("x", func(API) error { return nil })); !errors.Is(err, ErrShieldStopped) {
		t.Errorf("launch after stop = %v", err)
	}
	// Idempotent stop.
	env.shield.Stop()
}
