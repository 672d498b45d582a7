package reconcile

import (
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
)

// scenario1Manifest is the §VII Scenario 1 monitoring-app manifest.
const scenario1Manifest = `
PERM visible_topology LIMITING LocalTopo
PERM read_statistics
PERM network_access LIMITING AdminRange
PERM insert_flow
`

// scenario1Policy is the §VII Scenario 1 administrator policy.
const scenario1Policy = `
LET LocalTopo = {SWITCH 0,1 LINK 0-1}
LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`

func reconcileScenario1(t *testing.T) *Result {
	t.Helper()
	manifest, err := permlang.Parse(scenario1Manifest)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := policylang.Parse(scenario1Policy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Reconcile("monitor", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScenario1Reconciliation(t *testing.T) {
	// The paper's worked example: stubs are expanded, the mutual
	// exclusion fires, insert_flow is truncated, and the final manifest
	// is the three-permission set of §VII.
	res := reconcileScenario1(t)

	if res.Clean {
		t.Error("scenario 1 must report the mutual-exclusion violation")
	}
	if len(res.Violations) != 1 || res.Violations[0].Kind != ViolationMutualExclusion {
		t.Fatalf("violations = %v", res.Violations)
	}
	if !strings.Contains(res.Violations[0].Repair, "insert_flow") {
		t.Errorf("repair should revoke insert_flow: %v", res.Violations[0])
	}

	final := res.Reconciled
	if final.Has(core.TokenInsertFlow) {
		t.Error("insert_flow must be truncated")
	}
	for _, want := range []core.Token{
		core.TokenVisibleTopology, core.TokenReadStatistics, core.TokenHostNetwork,
	} {
		if !final.Has(want) {
			t.Errorf("final set missing %v", want)
		}
	}

	// Stub expansion: topology restricted to switches 0,1.
	topoCall := &core.Call{App: "monitor", Token: core.TokenVisibleTopology,
		Switches: []of.DPID{0, 1}}
	if !final.Allows(topoCall) {
		t.Error("switches 0,1 should be visible")
	}
	topoCall.Switches = []of.DPID{2}
	if final.Allows(topoCall) {
		t.Error("switch 2 must be hidden by LocalTopo")
	}

	// AdminRange: web connections only to 10.1.0.0/16.
	conn := &core.Call{App: "monitor", Token: core.TokenHostNetwork,
		HostIP: of.IPv4FromOctets(10, 1, 200, 1), HasHostIP: true}
	if !final.Allows(conn) {
		t.Error("admin-range connect should pass")
	}
	conn.HostIP = of.IPv4FromOctets(203, 0, 113, 9)
	if final.Allows(conn) {
		t.Error("leak outside AdminRange must be denied")
	}

	// Requested (pre-repair) still holds insert_flow.
	if !res.Requested.Has(core.TokenInsertFlow) {
		t.Error("Requested must capture the pre-repair set")
	}
}

func TestMutualExclusionNotHeld(t *testing.T) {
	manifest := permlang.MustParse("PERM read_statistics\nPERM flow_event")
	policy := policylang.MustParse(`ASSERT EITHER { PERM network_access } OR { PERM insert_flow }`)
	res, err := New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || len(res.Violations) != 0 {
		t.Errorf("no violation expected: %v", res.Violations)
	}
	// Holding only one side is fine too.
	manifest = permlang.MustParse("PERM network_access")
	res, err = New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("single side must not violate: %v", res.Violations)
	}
}

func TestBoundaryAssertionRepairs(t *testing.T) {
	// §V-A monitoring template; app requests more than allowed.
	policySrc := `
LET templatePerm = {
	PERM read_topology
	PERM read_statistics LIMITING PORT_LEVEL
	PERM network_access LIMITING IP_DST 192.168.0.0 MASK 255.255.0.0
}
ASSERT monitorAppPerm <= templatePerm
`
	manifest := permlang.MustParse(`
PERM read_statistics
PERM network_access
PERM insert_flow
`)
	policy := policylang.MustParse(`LET monitorAppPerm = APP monitor` + policySrc)
	res, err := New().Reconcile("monitor", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("over-privileged manifest must violate the boundary")
	}
	var boundary *Violation
	for i := range res.Violations {
		if res.Violations[i].Kind == ViolationBoundary {
			boundary = &res.Violations[i]
		}
	}
	if boundary == nil {
		t.Fatalf("no boundary violation: %v", res.Violations)
	}
	if boundary.Repair == "" {
		t.Error("boundary violation should be repaired by intersection")
	}

	final := res.Reconciled
	if final.Has(core.TokenInsertFlow) {
		t.Error("insert_flow is outside the boundary and must be dropped")
	}
	statsCall := &core.Call{App: "monitor", Token: core.TokenReadStatistics, StatsLevel: of.StatsFlow}
	if final.Allows(statsCall) {
		t.Error("flow-level stats exceed PORT_LEVEL boundary")
	}
	statsCall.StatsLevel = of.StatsPort
	if !final.Allows(statsCall) {
		t.Error("port-level stats survive")
	}
	conn := &core.Call{App: "monitor", Token: core.TokenHostNetwork,
		HostIP: of.IPv4FromOctets(192, 168, 5, 5), HasHostIP: true}
	if !final.Allows(conn) {
		t.Error("collector-range connect survives the meet")
	}
	conn.HostIP = of.IPv4FromOctets(8, 8, 8, 8)
	if final.Allows(conn) {
		t.Error("out-of-range connect must be denied after the meet")
	}

	// The repaired set must satisfy the boundary.
	res2, err := New().Reconcile("monitor", setToManifest(final), policy)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Clean {
		t.Errorf("repaired set still violates: %v", res2.Violations)
	}
}

// setToManifest converts a reconciled set back into a manifest (round
// trip through the permission language).
func setToManifest(s *core.Set) *permlang.Manifest {
	return permlang.MustParse(s.String())
}

func TestConformingAppIsClean(t *testing.T) {
	policy := policylang.MustParse(`
LET templatePerm = {
	PERM read_statistics LIMITING PORT_LEVEL
}
ASSERT APP monitor <= templatePerm
`)
	manifest := permlang.MustParse(`PERM read_statistics LIMITING SWITCH_LEVEL`)
	res, err := New().Reconcile("monitor", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("conforming app flagged: %v", res.Violations)
	}
	if eq, _ := res.Reconciled.Equal(res.Requested); !eq {
		t.Error("clean reconciliation must not alter the set")
	}
}

func TestUnresolvedMacroReported(t *testing.T) {
	manifest := permlang.MustParse(`PERM network_access LIMITING AdminRange`)
	res, err := New().Reconcile("app", manifest, policylang.MustParse(``))
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || res.Violations[0].Kind != ViolationUnresolvedMacro {
		t.Errorf("expected unresolved-macro violation, got %v", res.Violations)
	}
	// The permission stays but denies at runtime.
	if !res.Reconciled.Has(core.TokenHostNetwork) {
		t.Error("permission should remain pending binding")
	}
	call := &core.Call{App: "app", Token: core.TokenHostNetwork,
		HostIP: of.IPv4FromOctets(10, 0, 0, 1), HasHostIP: true}
	if res.Reconciled.Allows(call) {
		t.Error("unresolved stub must deny")
	}
}

func TestUnknownReferences(t *testing.T) {
	manifest := permlang.MustParse(`PERM flow_event`)
	policy := policylang.MustParse(`ASSERT APP ghost <= { PERM flow_event }`)
	res, err := New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || res.Violations[0].Kind != ViolationUnknownReference {
		t.Errorf("expected unknown-reference, got %v", res.Violations)
	}

	policy = policylang.MustParse(`ASSERT mystery <= { PERM flow_event }`)
	res, err = New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Error("unbound variable must be flagged")
	}
}

func TestRegisteredAppReference(t *testing.T) {
	e := New()
	e.RegisterApp("firewall", core.NewSetOf(
		core.Permission{Token: core.TokenInsertFlow},
		core.Permission{Token: core.TokenDeleteFlow},
	))
	// Policy: this app may hold at most what the firewall holds.
	policy := policylang.MustParse(`ASSERT APP newapp <= APP firewall`)
	manifest := permlang.MustParse("PERM insert_flow\nPERM host_network")
	res, err := e.Reconcile("newapp", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Error("host_network exceeds the firewall's envelope")
	}
	if res.Reconciled.Has(core.TokenHostNetwork) {
		t.Error("repair must drop host_network")
	}
	if !res.Reconciled.Has(core.TokenInsertFlow) {
		t.Error("insert_flow is inside the envelope")
	}
}

func TestMeetJoinInPolicy(t *testing.T) {
	policy := policylang.MustParse(`
LET a = { PERM read_statistics LIMITING PORT_LEVEL }
LET b = { PERM read_statistics LIMITING FLOW_LEVEL PERM flow_event }
ASSERT APP app <= a JOIN b
`)
	manifest := permlang.MustParse(`PERM read_statistics LIMITING FLOW_LEVEL
PERM flow_event`)
	res, err := New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("join boundary should admit the manifest: %v", res.Violations)
	}

	policy = policylang.MustParse(`
LET a = { PERM read_statistics LIMITING PORT_LEVEL PERM flow_event }
LET b = { PERM read_statistics LIMITING FLOW_LEVEL }
ASSERT APP app <= a MEET b
`)
	res, err = New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Error("meet boundary drops flow_event, so the manifest violates")
	}
	if res.Reconciled.Has(core.TokenFlowEvent) {
		t.Error("repair must drop flow_event")
	}
}

func TestEqualityAndStrictComparisons(t *testing.T) {
	manifest := permlang.MustParse(`PERM flow_event`)
	tests := []struct {
		policy string
		clean  bool
	}{
		{`ASSERT APP app = { PERM flow_event }`, true},
		{`ASSERT APP app = { PERM pkt_in_event }`, false},
		{`ASSERT APP app < { PERM flow_event PERM pkt_in_event }`, true},
		{`ASSERT APP app < { PERM flow_event }`, false}, // equal, not strict
		{`ASSERT { PERM flow_event PERM pkt_in_event } > APP app`, true},
		{`ASSERT NOT APP app = { PERM pkt_in_event }`, true},
		{`ASSERT APP app <= { PERM flow_event } AND APP app <= { PERM flow_event PERM error_event }`, true},
		{`ASSERT APP app <= { PERM pkt_in_event } OR APP app <= { PERM flow_event }`, true},
	}
	for _, tt := range tests {
		t.Run(tt.policy, func(t *testing.T) {
			res, err := New().Reconcile("app", manifest, policylang.MustParse(tt.policy))
			if err != nil {
				t.Fatal(err)
			}
			if res.Clean != tt.clean {
				t.Errorf("clean = %v, want %v (violations %v)", res.Clean, tt.clean, res.Violations)
			}
		})
	}
}

func TestCircularBindingDetected(t *testing.T) {
	policy := policylang.MustParse(`
LET a = b
LET b = a
ASSERT APP app <= a
`)
	res, err := New().Reconcile("app", permlang.MustParse("PERM flow_event"), policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || res.Violations[0].Kind != ViolationUnknownReference {
		t.Errorf("circular binding must be flagged: %v", res.Violations)
	}
}

func TestSequentialConstraintInteraction(t *testing.T) {
	// The boundary repair runs first and already removes insert_flow, so
	// the later mutual exclusion holds without further truncation.
	policy := policylang.MustParse(`
ASSERT APP app <= { PERM network_access PERM read_statistics }
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`)
	manifest := permlang.MustParse(`
PERM network_access
PERM read_statistics
PERM insert_flow
`)
	res, err := New().Reconcile("app", manifest, policy)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[ViolationKind]int)
	for _, v := range res.Violations {
		kinds[v.Kind]++
	}
	if kinds[ViolationBoundary] != 1 || kinds[ViolationMutualExclusion] != 0 {
		t.Errorf("violations = %v", res.Violations)
	}
	if res.Reconciled.Has(core.TokenInsertFlow) {
		t.Error("insert_flow gone after boundary repair")
	}
	if !res.Reconciled.Has(core.TokenHostNetwork) {
		t.Error("network_access must survive")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: ViolationMutualExclusion, Constraint: "ASSERT EITHER a OR b",
		Detail: "both held", Repair: "revoked b"}
	s := v.String()
	for _, want := range []string{"mutual-exclusion", "both held", "revoked b"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNilPolicyAndManifest(t *testing.T) {
	res, err := New().Reconcile("app", permlang.MustParse("PERM flow_event"), nil)
	if err != nil || !res.Clean {
		t.Errorf("nil policy should be a clean no-op: (%v, %v)", res, err)
	}
	if _, err := New().Reconcile("app", nil, nil); err == nil {
		t.Error("nil manifest must error")
	}
}
