package policylang

import (
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

func TestParsePaperMutualExclusion(t *testing.T) {
	// §V-A: network_access and send_packet_out must not coexist.
	pol, err := Parse(`ASSERT EITHER { PERM network_access } OR { PERM send_packet_out }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 1 {
		t.Fatalf("got %d statements", len(pol.Statements))
	}
	excl, ok := pol.Statements[0].(*AssertExclusive)
	if !ok {
		t.Fatalf("statement = %T", pol.Statements[0])
	}
	a, ok := excl.A.(*PermLit)
	if !ok || !a.Set.Has(core.TokenHostNetwork) {
		t.Errorf("left operand = %v", excl.A)
	}
	b, ok := excl.B.(*PermLit)
	if !ok || !b.Set.Has(core.TokenSendPktOut) {
		t.Errorf("right operand = %v", excl.B)
	}
}

func TestParsePaperMonitorTemplate(t *testing.T) {
	// §V-A permission-boundary example, verbatim modulo line wraps.
	src := `
LET templatePerm = {
	PERM read_topology
	PERM read_statistics LIMITING PORT_LEVEL
	PERM network_access LIMITING IP_DST 192.168.0.0 MASK 255.255.0.0
}
ASSERT monitorAppPerm <= templatePerm
`
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lets := pol.Bindings()
	if len(lets) != 1 || lets[0].Name != "templatePerm" {
		t.Fatalf("bindings = %v", lets)
	}
	lit, ok := lets[0].Perm.(*PermLit)
	if !ok {
		t.Fatalf("binding value = %T", lets[0].Perm)
	}
	if !lit.Set.Has(core.TokenVisibleTopology) || !lit.Set.Has(core.TokenReadStatistics) ||
		!lit.Set.Has(core.TokenHostNetwork) {
		t.Errorf("template set = %s", lit.Set)
	}

	constraints := pol.Constraints()
	if len(constraints) != 1 {
		t.Fatalf("constraints = %v", constraints)
	}
	ab, ok := constraints[0].(*AssertBool)
	if !ok {
		t.Fatalf("constraint = %T", constraints[0])
	}
	cmp, ok := ab.Expr.(*CmpExpr)
	if !ok || cmp.Op != CmpLe {
		t.Fatalf("expr = %v", ab.Expr)
	}
	if v, ok := cmp.L.(*PermVar); !ok || v.Name != "monitorAppPerm" {
		t.Errorf("lhs = %v", cmp.L)
	}
}

func TestParseScenario1Policy(t *testing.T) {
	// §VII Scenario 1: stub bindings plus the mutual exclusion.
	src := `
LET LocalTopo = {SWITCH 0,1 LINK 0-1}
LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}
ASSERT EITHER { PERM network_access } OR { PERM insert_flow }
`
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lets := pol.Bindings()
	if len(lets) != 2 {
		t.Fatalf("bindings = %d", len(lets))
	}
	if lets[0].Filter == nil || lets[0].Perm != nil {
		t.Error("LocalTopo must bind a filter macro")
	}
	leaf, ok := lets[0].Filter.(*core.Leaf)
	if !ok {
		t.Fatalf("LocalTopo = %T", lets[0].Filter)
	}
	topo, ok := leaf.F.(*core.PhysTopoFilter)
	if !ok || !topo.AllowsSwitch(0) || !topo.AllowsSwitch(1) || topo.AllowsSwitch(2) {
		t.Errorf("LocalTopo = %v", leaf.F)
	}
	if !topo.AllowsLink(core.NewLinkID(0, 1)) {
		t.Error("explicit link 0-1 must be allowed")
	}

	leaf2 := lets[1].Filter.(*core.Leaf)
	pred, ok := leaf2.F.(*core.PredFilter)
	if !ok || pred.Field() != of.FieldIPDst ||
		of.IPv4(pred.Value()) != of.IPv4FromOctets(10, 1, 0, 0) {
		t.Errorf("AdminRange = %v", leaf2.F)
	}
}

func TestParseAppBindingAndSetOps(t *testing.T) {
	src := `
LET monitorPerm = APP monitor
LET combined = monitorPerm JOIN { PERM flow_event }
LET narrowed = combined MEET { PERM flow_event }
ASSERT narrowed <= combined
`
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lets := pol.Bindings()
	if app, ok := lets[0].Perm.(*PermApp); !ok || app.AppName != "monitor" {
		t.Errorf("APP binding = %v", lets[0].Perm)
	}
	if _, ok := lets[1].Perm.(*PermJoin); !ok {
		t.Errorf("JOIN = %v", lets[1].Perm)
	}
	meet, ok := lets[2].Perm.(*PermMeet)
	if !ok {
		t.Fatalf("MEET = %v", lets[2].Perm)
	}
	if v, ok := meet.L.(*PermVar); !ok || v.Name != "combined" {
		t.Errorf("MEET lhs = %v", meet.L)
	}
}

func TestParseBooleanCombinations(t *testing.T) {
	src := `ASSERT a <= b AND NOT (c = d) OR (a MEET b) <= c`
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ab := pol.Statements[0].(*AssertBool)
	or, ok := ab.Expr.(*BoolOr)
	if !ok {
		t.Fatalf("top = %T", ab.Expr)
	}
	and, ok := or.L.(*BoolAnd)
	if !ok {
		t.Fatalf("or.L = %T", or.L)
	}
	if _, ok := and.R.(*BoolNot); !ok {
		t.Errorf("and.R = %T", and.R)
	}
	right, ok := or.R.(*CmpExpr)
	if !ok {
		t.Fatalf("or.R = %T", or.R)
	}
	if _, ok := right.L.(*PermMeet); !ok {
		t.Errorf("parenthesized MEET misparsed: %T", right.L)
	}
}

func TestParseCmpOperators(t *testing.T) {
	ops := map[string]CmpOp{"<": CmpLt, ">": CmpGt, "<=": CmpLe, ">=": CmpGe, "=": CmpEq}
	for src, want := range ops {
		pol, err := Parse("ASSERT a " + src + " b")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cmp := pol.Statements[0].(*AssertBool).Expr.(*CmpExpr)
		if cmp.Op != want {
			t.Errorf("op %q parsed as %v", src, cmp.Op)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	srcs := []string{
		`ASSERT EITHER { PERM host_network } OR { PERM send_pkt_out }`,
		`LET t = { PERM read_statistics LIMITING PORT_LEVEL }
ASSERT APP monitor <= t`,
		`LET AdminRange = {IP_DST 10.1.0.0 MASK 255.255.0.0}`,
		`ASSERT (a MEET b) <= c AND NOT a = b`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Errorf("unstable round trip:\n1: %s\n2: %s", p1, p2)
		}
	}
}

func TestParsePolicyErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSubstr string
	}{
		{"stray token", "FROB x", "expected LET or ASSERT"},
		{"let without eq", "LET x { PERM flow_event }", "expected '='"},
		{"let without name", "LET = { PERM flow_event }", "expected a binding name"},
		{"assert without cmp", "ASSERT a b", "comparison operator"},
		{"unclosed block", "LET t = { PERM flow_event", "expected '}'"},
		{"bad perm in block", "LET t = { PERM warp_speed }", "unknown permission token"},
		{"either missing or", "ASSERT EITHER { PERM flow_event } { PERM pkt_in_event }", "expected OR"},
		{"app without name", "LET x = APP =", "expected an app name"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSubstr) {
				t.Errorf("error %q missing %q", err, tt.wantSubstr)
			}
		})
	}
}

func TestParseMultiStatementPolicy(t *testing.T) {
	src := `
# template for all monitoring apps
LET templatePerm = {
	PERM read_topology
	PERM read_statistics LIMITING PORT_LEVEL
}
LET m1 = APP monitor1
LET m2 = APP monitor2
ASSERT m1 <= templatePerm
ASSERT m2 <= templatePerm
ASSERT EITHER { PERM host_network } OR { PERM insert_flow }
`
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Bindings()) != 3 || len(pol.Constraints()) != 3 {
		t.Errorf("got %d bindings, %d constraints", len(pol.Bindings()), len(pol.Constraints()))
	}
}

// TestParseBacktracksThroughSave: a '(' opening a permission expression
// is first tried as a parenthesized assertion; that attempt parses the
// permission block (and places its filter nodes), fails at ')', and
// Restore rewinds so the comparison parses the block again. The second
// parse must build the block's filter afresh and the rest of the
// assertion must parse from where the first attempt began.
func TestParseBacktracksThroughSave(t *testing.T) {
	src := "LET c = { PERM read_statistics }\n" +
		"ASSERT ({ PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0 OR OWN_FLOWS } MEET b) <= c AND (a <= c)"
	pol, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	const want = "LET c = { PERM read_statistics }\n" +
		"ASSERT (({ PERM insert_flow LIMITING (IP_DST 10.0.0.0 MASK 255.0.0.0 OR OWN_FLOWS) } MEET b) <= c AND a <= c)"
	if got := pol.String(); got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	and, ok := pol.Statements[1].(*AssertBool).Expr.(*BoolAnd)
	if !ok {
		t.Fatalf("assertion = %T, want a BoolAnd", pol.Statements[1].(*AssertBool).Expr)
	}
	cmp, ok := and.L.(*CmpExpr)
	if !ok || cmp.Op != CmpLe {
		t.Fatalf("left = %#v, want a <= comparison", and.L)
	}
	meet, ok := cmp.L.(*PermMeet)
	if !ok {
		t.Fatalf("compared = %T, want a MEET", cmp.L)
	}
	lit := meet.L.(*PermLit)
	filter, ok := lit.Set.FilterFor(core.TokenInsertFlow)
	if !ok || filter == nil || filter.String() != "(IP_DST 10.0.0.0 MASK 255.0.0.0 OR OWN_FLOWS)" {
		t.Errorf("block filter = %v", filter)
	}
}
