package permengine

import (
	"math/rand"
	"strings"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// TestExplainAgreesWithCheckProperty is the forensic-consistency
// property: on random filter trees and random calls, Explain's verdict
// must agree with the engine's Check verdict, and every filter_rejected
// denial must name at least one concrete failing clause with at least
// one concretely failing filter leaf.
func TestExplainAgreesWithCheckProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := []core.Filter{
		core.NewPredFilter(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 13, 0, 0)), uint64(of.PrefixMask(16))),
		core.NewActionFilter(core.ActionClassForward),
		core.NewOwnerFilter(true),
		core.NewMaxPriorityFilter(50),
		core.NewPktOutFilter(false),
		core.NewStatsFilter(of.StatsPort),
	}
	var build func(depth int) core.Expr
	build = func(depth int) core.Expr {
		if depth == 0 || r.Intn(3) == 0 {
			return core.NewLeaf(pool[r.Intn(len(pool))])
		}
		switch r.Intn(3) {
		case 0:
			return &core.And{L: build(depth - 1), R: build(depth - 1)}
		case 1:
			return &core.Or{L: build(depth - 1), R: build(depth - 1)}
		default:
			return &core.Not{X: build(depth - 1)}
		}
	}
	for i := 0; i < 2000; i++ {
		// A fresh engine per policy; conjoin up to three random subtrees
		// so the clause decomposition is exercised, not just one clause.
		expr := build(2)
		for extra := r.Intn(3); extra > 0; extra-- {
			expr = &core.And{L: expr, R: build(2)}
		}
		e := New(nil)
		e.SetPermissions("me", core.NewSetOf(core.Permission{Token: core.TokenInsertFlow, Filter: expr}))
		call := &core.Call{
			App:           "me",
			Token:         core.TokenInsertFlow,
			DPID:          1,
			HasDPID:       true,
			Match:         of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, byte(13+r.Intn(2)), 0, 1))),
			Actions:       [][]of.Action{{of.Output(1)}, {of.Drop()}, {}}[r.Intn(3)],
			Priority:      uint16(r.Intn(100)),
			HasPriority:   true,
			FlowOwner:     []string{"me", "other", ""}[r.Intn(3)],
			HasFlowOwner:  true,
			FromPktIn:     r.Intn(2) == 0,
			HasProvenance: true,
			StatsLevel:    []of.StatsType{of.StatsFlow, of.StatsPort, of.StatsSwitch}[r.Intn(3)],
		}
		checkErr := e.Check(call)
		ex := e.Explain(call)
		if ex.Allowed != (checkErr == nil) {
			t.Fatalf("Explain.Allowed=%v but Check err=%v on %s for %s", ex.Allowed, checkErr, expr, call)
		}
		if ex.Allowed {
			if ex.Reason != ReasonAllowed || len(ex.FailingClauses) != 0 {
				t.Fatalf("allowed explanation carries reason %q, failing clauses %v", ex.Reason, ex.FailingClauses)
			}
			continue
		}
		if ex.Reason != ReasonFilterRejected {
			t.Fatalf("denial reason = %q, want %q", ex.Reason, ReasonFilterRejected)
		}
		if len(ex.FailingClauses) == 0 {
			t.Fatalf("denial names no failing clause: %+v", ex)
		}
		fc := ex.Clauses[ex.FailingClauses[0]]
		if !fc.Evaluated || fc.Passed || fc.Expr == "" {
			t.Fatalf("failing clause not concrete: %+v", fc)
		}
		// With negation pushed to the leaves the clause is a monotone
		// function of the effective leaf values, so a false clause must
		// contain at least one ineffective leaf — the concrete filter
		// that rejected the call.
		ineffective := 0
		for _, lf := range fc.Leaves {
			if !lf.Effective {
				ineffective++
			}
		}
		if ineffective == 0 {
			t.Fatalf("failing clause %q has no ineffective leaf: %+v", fc.Expr, fc.Leaves)
		}
	}
}

// TestExplainShortCircuitMarking: clauses after the first failure are
// reported as short-circuited, never as passed or failed.
func TestExplainShortCircuitMarking(t *testing.T) {
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 10 AND ACTION FORWARD").Set())
	call := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	call.Priority = 200 // fails clause 0; clause 1 would pass
	if err := e.Check(call); err == nil {
		t.Fatal("call must be denied")
	}
	ex := e.Explain(call)
	if ex.Allowed || len(ex.Clauses) != 2 {
		t.Fatalf("unexpected explanation: %+v", ex)
	}
	if !ex.Clauses[0].Evaluated || ex.Clauses[0].Passed {
		t.Fatalf("clause 0 should have evaluated and failed: %+v", ex.Clauses[0])
	}
	if ex.Clauses[1].Evaluated || !ex.Clauses[1].ShortCircuited {
		t.Fatalf("clause 1 should be short-circuited: %+v", ex.Clauses[1])
	}
}

func TestExplainNoManifestAndUngranted(t *testing.T) {
	e := New(nil)
	ex := e.Explain(&core.Call{App: "ghost", Token: core.TokenInsertFlow})
	if ex.Allowed || ex.Reason != ReasonNoManifest {
		t.Fatalf("no-manifest explanation: %+v", ex)
	}
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics").Set())
	ex = e.Explain(&core.Call{App: "m", Token: core.TokenInsertFlow})
	if ex.Allowed || ex.Reason != ReasonTokenUngranted {
		t.Fatalf("ungranted explanation: %+v", ex)
	}
	if len(ex.Granted) != 1 || ex.Granted[0] != core.TokenReadStatistics.String() {
		t.Fatalf("granted list = %v", ex.Granted)
	}
}

// TestExplainDenialRetention: a denied call carrying a correlation ID
// is retained (deep-copied) and recoverable by corr, so /explain can
// re-evaluate the exact call behind an audit denial.
func TestExplainDenialRetention(t *testing.T) {
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics LIMITING PORT_LEVEL").Set())
	call := &core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsFlow, Corr: 4242}
	if err := e.Check(call); err == nil {
		t.Fatal("call must be denied")
	}
	// Mutate the original after the check: the retained copy must not
	// follow (forensics needs the call as it was denied).
	call.StatsLevel = of.StatsPort
	got, ok := e.RetainedDenial(4242)
	if !ok {
		t.Fatal("denial with corr not retained")
	}
	if got.StatsLevel != of.StatsFlow {
		t.Fatalf("retained call mutated: stats level %v", got.StatsLevel)
	}
	ex := e.Explain(got)
	if ex.Allowed || ex.Reason != ReasonFilterRejected {
		t.Fatalf("re-evaluated retained denial: %+v", ex)
	}
	if _, ok := e.RetainedDenial(9999); ok {
		t.Fatal("unknown corr must not resolve")
	}
	// Corr 0 (no audit correlation) is never retained.
	before := len(e.RetainedDenials(0))
	if err := e.Check(&core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsFlow}); err == nil {
		t.Fatal("call must be denied")
	}
	if got := len(e.RetainedDenials(0)); got != before {
		t.Fatalf("corr-0 denial retained: %d -> %d", before, got)
	}
}

// TestExplainDecidingRepair: when reconciliation provenance mentions
// the failing clause, the explanation names the repair that introduced
// the deciding term.
func TestExplainDecidingRepair(t *testing.T) {
	e := New(nil)
	e.Activate("m", Grant{
		Set: permlang.MustParse("PERM insert_flow LIMITING MAX_PRIORITY 10").Set(),
		Provenance: []string{
			"[narrowed] priority bound: manifest requested unbounded priority (repaired: MAX_PRIORITY 10)",
		},
	})
	call := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	call.Priority = 200
	if err := e.Check(call); err == nil {
		t.Fatal("call must be denied")
	}
	ex := e.Explain(call)
	if ex.DecidingRepair == "" {
		t.Fatalf("deciding repair not identified; provenance %v, failing %v", ex.Provenance, ex.FailingClauses)
	}
	if !strings.Contains(ex.DecidingRepair, "MAX_PRIORITY 10") {
		t.Fatalf("deciding repair = %q", ex.DecidingRepair)
	}
	// RemoveApp clears provenance with the rest of the app state.
	e.RemoveApp("m")
	if notes := e.Explain(call).Provenance; notes != nil {
		t.Fatalf("provenance survives RemoveApp: %v", notes)
	}
}
