package permengine

import (
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
