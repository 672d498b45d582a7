package permengine

import (
	"errors"
	"math/rand"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
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

func (f *fakeState) RuleCountBesides(app string, dpid of.DPID, match *of.Match, priority uint16) int {
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
	checks0, denials0 := decisions()

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

	checks, denials := decisions()
	if checks-checks0 != 4 || denials-denials0 != 3 {
		t.Errorf("checks_total moved by (%d, %d), want (4, 3)", checks-checks0, denials-denials0)
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

// TestDecisionsLandInJournal: every decision Check takes is one
// permission event in the audit journal, in order, the denials carrying
// their reason.
func TestDecisionsLandInJournal(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	e := New(nil)
	e.SetPermissions("journaled", permlang.MustParse("PERM read_statistics LIMITING PORT_LEVEL").Set())

	j := audit.Default()
	j.Flush()
	start := j.LastSeq()
	allow := &core.Call{App: "journaled", Token: core.TokenReadStatistics, StatsLevel: of.StatsPort, Corr: 41}
	deny := &core.Call{App: "journaled", Token: core.TokenReadStatistics, StatsLevel: of.StatsFlow, Corr: 42}
	e.Check(allow)
	e.Check(deny)
	e.Check(allow)
	j.Flush()

	events := j.Query(audit.Filter{App: "journaled", AfterSeq: start})
	want := []audit.Verdict{audit.VerdictAllow, audit.VerdictDeny, audit.VerdictAllow}
	if len(events) != len(want) {
		t.Fatalf("journal holds %d events for 3 checks: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Kind != audit.KindPermission || ev.Verdict != want[i] || ev.Token != "read_statistics" {
			t.Fatalf("event %d = %+v, want permission/%s", i, ev, want[i])
		}
	}
	if events[1].Corr != 42 || events[1].Detail == "" || events[0].Detail != "" {
		t.Fatalf("denial %+v must carry its corr and reason, allow %+v no detail", events[1], events[0])
	}
	denials := j.Query(audit.Filter{App: "journaled", Kind: audit.KindPermission, Verdict: audit.VerdictDeny, AfterSeq: start})
	if len(denials) != 1 {
		t.Fatalf("denials = %+v", denials)
	}
}

// TestDenialFormatsOnce: a filter denial renders its detail in one
// buffer — the detail string and the DeniedError are the check's only
// allocations — and the detail names the call as Call.String does.
func TestDenialFormatsOnce(t *testing.T) {
	prev := audit.SetEnabled(true)
	t.Cleanup(func() {
		audit.Default().Flush()
		audit.SetEnabled(prev)
	})
	e := New(nil)
	e.SetPermissions("app", permlang.MustParse("PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0").Set())
	call := core.Call{App: "app", Token: core.TokenInsertFlow, HasDPID: true, DPID: 2, Priority: 7, HasPriority: true,
		Match: of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(192, 168, 1, 1))), Actions: []of.Action{of.Output(1)},
		HasFlowOwner: true, HasRuleCount: true}
	var denied *DeniedError
	if err := e.Check(&call); !errors.As(err, &denied) {
		t.Fatalf("Check = %v, want a denial", err)
	}
	if want := "filter rejected call " + call.String(); denied.Detail != want {
		t.Errorf("detail %q, want %q", denied.Detail, want)
	}
	if n := testing.AllocsPerRun(200, func() { _ = e.Check(&call) }); n != 2 {
		t.Errorf("a denied check allocates %v times, want 2 (its detail and its error)", n)
	}
}
