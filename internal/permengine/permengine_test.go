package permengine

import (
	"errors"
	"math/rand"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// fakeState is a scripted StateProvider.
type fakeState struct {
	owners map[string]string // match key -> owner
	counts map[string]int    // app -> count
}

func (f *fakeState) FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	if f.owners == nil {
		return "", false
	}
	o, ok := f.owners[match.Key()]
	return o, ok
}

func (f *fakeState) ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	o, ok := f.FlowOwner(dpid, match, priority)
	if !ok || o == app {
		return "", false
	}
	return o, true
}

func (f *fakeState) RuleCount(app string, dpid of.DPID) int {
	if f.counts == nil {
		return 0
	}
	return f.counts[app]
}

func insertFlowCall(app string, dstIP of.IPv4, actions []of.Action) *core.Call {
	return &core.Call{
		App:         app,
		Token:       core.TokenInsertFlow,
		DPID:        1,
		HasDPID:     true,
		Match:       of.NewMatch().Set(of.FieldIPDst, uint64(dstIP)),
		Actions:     actions,
		Priority:    10,
		HasPriority: true,
	}
}

func TestCheckTokenAndFilter(t *testing.T) {
	e := New(&fakeState{})
	e.SetPermissions("router", permlang.MustParse(
		"PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS").Set())

	// Allowed: forward rule, fresh flow.
	call := insertFlowCall("router", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(2)})
	if err := e.Check(call); err != nil {
		t.Fatalf("forward rule denied: %v", err)
	}
	// Denied: drop action.
	call = insertFlowCall("router", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Drop()})
	var denied *DeniedError
	if err := e.Check(call); !errors.As(err, &denied) {
		t.Fatalf("drop rule should be denied, got %v", err)
	}
	if denied.App != "router" || denied.Token != core.TokenInsertFlow {
		t.Errorf("denied = %+v", denied)
	}
	// Denied: missing token.
	err := e.Check(&core.Call{App: "router", Token: core.TokenHostNetwork,
		HostIP: of.IPv4FromOctets(1, 1, 1, 1), HasHostIP: true})
	if !errors.As(err, &denied) {
		t.Fatal("ungranted token should deny")
	}
	// Denied: unknown app.
	err = e.Check(insertFlowCall("ghost", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)}))
	if !errors.As(err, &denied) {
		t.Fatal("unknown app should deny")
	}

	checks, denials := e.Stats()
	if checks != 4 || denials != 3 {
		t.Errorf("stats = (%d, %d)", checks, denials)
	}
}

func TestStatefulOwnershipResolution(t *testing.T) {
	firewallMatch := of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, 1)))
	state := &fakeState{owners: map[string]string{firewallMatch.Key(): "firewall"}}
	e := New(state)
	e.SetPermissions("router", permlang.MustParse(
		"PERM insert_flow LIMITING OWN_FLOWS").Set())

	// Inserting over the firewall's flow is denied via resolved ownership.
	call := insertFlowCall("router", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(2)})
	if err := e.Check(call); err == nil {
		t.Fatal("overriding a foreign flow must be denied")
	}
	// A fresh flow passes.
	call = insertFlowCall("router", of.IPv4FromOctets(10, 9, 9, 9), []of.Action{of.Output(2)})
	if err := e.Check(call); err != nil {
		t.Fatalf("fresh flow denied: %v", err)
	}
}

func TestStatefulRuleCountResolution(t *testing.T) {
	state := &fakeState{counts: map[string]int{"greedy": 10}}
	e := New(state)
	e.SetPermissions("greedy", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_RULE_COUNT 10").Set())
	call := insertFlowCall("greedy", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	if err := e.Check(call); err == nil {
		t.Fatal("rule count at cap must deny")
	}
	state.counts["greedy"] = 9
	call = insertFlowCall("greedy", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	if err := e.Check(call); err != nil {
		t.Fatalf("below cap denied: %v", err)
	}
}

func TestHasTokenAndRemove(t *testing.T) {
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics").Set())
	if !e.HasToken("m", core.TokenReadStatistics) || e.HasToken("m", core.TokenInsertFlow) {
		t.Error("HasToken wrong")
	}
	if _, ok := e.Permissions("m"); !ok {
		t.Error("Permissions lookup failed")
	}
	e.RemoveApp("m")
	if e.HasToken("m", core.TokenReadStatistics) {
		t.Error("removed app retains tokens")
	}
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	// The compiled closures must agree with core's interpreted Eval on
	// random expressions and calls.
	r := rand.New(rand.NewSource(5))
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
		expr := build(3)
		compiledFn := CompileFilter(expr)
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
		if compiledFn(call) != expr.Eval(call) {
			t.Fatalf("compiled/interpreted divergence on %s for %s", expr, call)
		}
	}
}

func TestUnresolvedMacroDenies(t *testing.T) {
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse("PERM host_network LIMITING AdminRange").Set())
	err := e.Check(&core.Call{App: "m", Token: core.TokenHostNetwork,
		HostIP: of.IPv4FromOctets(10, 1, 0, 1), HasHostIP: true})
	if err == nil {
		t.Fatal("unresolved macro must deny at runtime")
	}
}

func TestActivityLog(t *testing.T) {
	e := New(nil, WithActivityLog(3))
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics LIMITING PORT_LEVEL").Set())

	allow := &core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsPort}
	deny := &core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsFlow}
	e.Check(allow)
	e.Check(deny)
	e.Check(allow)
	e.Check(deny) // 4 records into capacity 3: oldest evicted

	log := e.Log()
	if log.Total() != 4 {
		t.Errorf("Total = %d", log.Total())
	}
	recs := log.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d", len(recs))
	}
	// Oldest-first: deny, allow, deny.
	if recs[0].Allowed || !recs[1].Allowed || recs[2].Allowed {
		t.Errorf("order wrong: %v", recs)
	}
	if len(log.Denials()) != 2 {
		t.Errorf("denials = %v", log.Denials())
	}
	if recs[0].String() == "" {
		t.Error("empty record rendering")
	}
}

func TestTransactionCommit(t *testing.T) {
	e := New(nil)
	e.SetPermissions("app", permlang.MustParse("PERM insert_flow LIMITING MAX_PRIORITY 100").Set())

	var applied []int
	mkCall := func(prio uint16) *core.Call {
		c := insertFlowCall("app", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
		c.Priority = prio
		return c
	}
	plan := func(id int, prio uint16, failApply bool) PlannedCall {
		call := mkCall(prio)
		return PlannedCall{
			Check: func() error { return e.Check(call) },
			Apply: func() error {
				if failApply {
					return errors.New("switch rejected")
				}
				applied = append(applied, id)
				return nil
			},
			Revert: func() error {
				for i, a := range applied {
					if a == id {
						applied = append(applied[:i], applied[i+1:]...)
						break
					}
				}
				return nil
			},
		}
	}

	// All-pass transaction.
	tx := new(Tx).Add(plan(1, 10, false)).Add(plan(2, 20, false))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(applied) != 2 {
		t.Fatalf("applied = %v", applied)
	}

	// Check failure: nothing applied (the paper's problematic
	// intermediate state is avoided).
	applied = nil
	tx = new(Tx).Add(plan(1, 10, false)).Add(plan(2, 999, false))
	err := tx.Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) || txErr.Stage != "check" || txErr.Index != 1 {
		t.Fatalf("err = %v", err)
	}
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Error("cause should unwrap to DeniedError")
	}
	if len(applied) != 0 {
		t.Fatalf("applied despite check failure: %v", applied)
	}

	// Apply failure: rollback of the applied prefix.
	applied = nil
	tx = new(Tx).Add(plan(1, 10, false)).Add(plan(2, 20, true)).Add(plan(3, 30, false))
	err = tx.Commit()
	if !errors.As(err, &txErr) || txErr.Stage != "apply" || txErr.Index != 1 {
		t.Fatalf("err = %v", err)
	}
	if len(applied) != 0 {
		t.Fatalf("rollback incomplete: %v", applied)
	}
	if tx.Len() != 3 {
		t.Errorf("Len = %d", tx.Len())
	}
}

func TestTransactionRollbackErrorSurfaces(t *testing.T) {
	tx := new(Tx).
		Add(PlannedCall{
			Apply:  func() error { return nil },
			Revert: func() error { return errors.New("revert failed") },
		}).
		Add(PlannedCall{Apply: func() error { return errors.New("boom") }})
	err := tx.Commit()
	var txErr *TxError
	if !errors.As(err, &txErr) || len(txErr.RollbackErrors) != 1 {
		t.Fatalf("err = %v", err)
	}
	if txErr.Error() == "" {
		t.Error("empty error text")
	}
}
