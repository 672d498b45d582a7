package permengine

import (
	"fmt"
	"strings"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// BenchmarkEngineCheckInsert times Engine.Check of an allowed insert that
// replaces one of the app's 1 024 rules resident in a kernel's shadow
// table, as api_large's inserts do, under a grant that reads no stateful
// value (all_flows), one that reads the flow owner (own_flows) and one
// that reads the rule count (rule_cap).
func BenchmarkEngineCheckInsert(b *testing.B) {
	built, err := netsim.Linear(1)
	if err != nil {
		b.Fatal(err)
	}
	k := controller.New(built.Topo, nil)
	defer built.Net.Stop()
	defer k.Stop()
	ctrlSide, swSide := of.Pipe()
	if err := built.Net.Switches()[0].Start(swSide); err != nil {
		b.Fatal(err)
	}
	if _, err := k.AcceptSwitch(ctrlSide); err != nil {
		b.Fatal(err)
	}
	const resident, priority = 1024, 100
	forward := []of.Action{of.Output(1)}
	matches := make([]*of.Match, resident)
	for i := range matches {
		matches[i] = of.NewMatch().Set(of.FieldEthType, uint64(of.EthTypeIPv4)).
			Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, byte(1+i%8), byte(i>>8), byte(i))))
		spec := controller.FlowSpec{Match: matches[i], Priority: priority, Actions: forward}
		if err := k.InsertFlow("app", 1, spec); err != nil {
			b.Fatal(err)
		}
	}

	e := New(k)
	for _, bc := range []struct{ name, filter string }{
		{"all_flows", "MAX_PRIORITY 60000 AND ALL_FLOWS"},
		{"own_flows", "OWN_FLOWS"},
		{"rule_cap", "MAX_RULE_COUNT 1024"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e.SetPermissions("app", permlang.MustParse("PERM insert_flow LIMITING ACTION FORWARD AND "+bc.filter).Set())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call := core.Call{App: "app", Token: core.TokenInsertFlow, DPID: 1, HasDPID: true,
					Match: matches[i%resident], Actions: forward, Priority: priority, HasPriority: true}
				if err := e.Check(&call); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// activationTokens are the tokens of the Fig. 5 complexity manifests,
// in grant order (benchmark/gen.go's manifestTokens).
var activationTokens = []string{
	"insert_flow", "read_statistics", "read_flow_table", "delete_flow",
	"send_pkt_out", "pkt_in_event", "flow_event", "visible_topology",
	"host_network", "file_system", "modify_flow", "topology_event",
	"error_event", "read_payload", "modify_topology",
}

// activationManifest renders a Fig. 5 complexity manifest as the
// benchmark renders it: each of the first tokens limited to an OR-chain
// of filters-2 IP_DST /16 predicates cycling through 8 subnets, conjoined
// with a priority cap and ALL_FLOWS.
func activationManifest(tokens, filters int) string {
	var sb strings.Builder
	for i := 0; i < tokens; i++ {
		fmt.Fprintf(&sb, "PERM %s LIMITING (", activationTokens[i])
		for j := 0; j < filters-2; j++ {
			if j > 0 {
				sb.WriteString(" OR ")
			}
			fmt.Fprintf(&sb, "IP_DST 10.%d.0.0 MASK 255.255.0.0", 1+j%8)
		}
		sb.WriteString(") AND MAX_PRIORITY 60000 AND ALL_FLOWS\n")
	}
	return sb.String()
}

// BenchmarkSetPermissions times the activation of the medium (5 tokens ×
// 15 filters) and large (15 × 20) manifests: what SetPermissions builds
// for every later check, and nothing a reader renders on demand.
func BenchmarkSetPermissions(b *testing.B) {
	for _, bc := range []struct {
		name            string
		tokens, filters int
	}{{"medium", 5, 15}, {"large", 15, 20}} {
		b.Run(bc.name, func(b *testing.B) {
			set := permlang.MustParse(activationManifest(bc.tokens, bc.filters)).Set()
			e := New(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetPermissions("app", set)
			}
		})
	}
}
