package permengine

import (
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// Filter joins TestDifferentialOneSemantics as a side arm: the row
// predicate must return the oracle's verdict on every call of the corpus
// (whose stateful attributes are pre-filled) and leave no trace in the
// history.
func init() {
	sideArms = append(sideArms, struct {
		name    string
		allowed func(e *Engine, call *core.Call) bool
	}{"Filter", func(e *Engine, call *core.Call) bool { return e.Filter(call.App, call.Token)(call) }})
}

// TestFilterIsPure: the predicate does not resolve stateful attributes,
// is fixed at the time it is taken, and admits nothing for an app or
// token the engine does not know.
func TestFilterIsPure(t *testing.T) {
	match := of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, 1)))
	e := New(&fakeState{owners: map[string]string{match.Key(): "other"}})
	e.SetPermissions("m", permlang.MustParse("PERM read_flow_table LIMITING OWN_FLOWS").Set())
	row := &core.Call{App: "m", Token: core.TokenReadFlowTable, DPID: 1, HasDPID: true, Match: match}
	allows := e.Filter("m", core.TokenReadFlowTable)
	checks0, _ := decisions()
	if !allows(row) || row.HasFlowOwner {
		t.Fatalf("Filter resolved the row's owner (HasFlowOwner=%v): it must see the row as given", row.HasFlowOwner)
	}
	if err := e.Check(row); err == nil {
		t.Fatal("Check resolves the foreign owner and must deny")
	}
	e.SetPermissions("m", permlang.MustParse("PERM insert_flow").Set())
	if !allows(&core.Call{App: "m", Token: core.TokenReadFlowTable}) {
		t.Error("a predicate taken before SetPermissions must keep the grant it was taken from")
	}
	if e.Filter("m", core.TokenReadFlowTable)(row) || e.Filter("ghost", core.TokenReadFlowTable)(row) {
		t.Error("an ungranted token or unknown app must admit no row")
	}
	if checks, _ := decisions(); checks-checks0 != 1 {
		t.Errorf("checks_total counted %d checks, want the one Check", checks-checks0)
	}
}
