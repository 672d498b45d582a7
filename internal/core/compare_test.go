package core

import (
	"math/rand"
	"testing"

	"sdnshield/internal/of"
)

func mustIncludes(t *testing.T, a, b Expr) bool {
	t.Helper()
	inc, err := Includes(a, b)
	if err != nil {
		t.Fatalf("Includes(%s, %s): %v", ExprString(a), ExprString(b), err)
	}
	return inc
}

func TestIncludesPaperSubnetExample(t *testing.T) {
	// §V-B: an insert_flow permission on a 192.168.0.0/16 IP dst filter
	// includes the same permission on a 192.168.1.0/24 IP dst filter.
	wide := NewLeaf(ipDstFilter(192, 168, 0, 0, 16))
	narrow := NewLeaf(ipDstFilter(192, 168, 1, 0, 24))
	if !mustIncludes(t, wide, narrow) {
		t.Error("/16 must include /24")
	}
	if mustIncludes(t, narrow, wide) {
		t.Error("/24 must not include /16")
	}
}

func TestIncludesNilConventions(t *testing.T) {
	leaf := NewLeaf(NewOwnerFilter(true))
	if !mustIncludes(t, nil, leaf) || !mustIncludes(t, nil, nil) {
		t.Error("nil (unrestricted) includes everything")
	}
	if mustIncludes(t, leaf, nil) {
		t.Error("OWN_FLOWS must not include the unrestricted permission")
	}
	// A total filter does include the unrestricted permission on its
	// dimension.
	if !mustIncludes(t, NewLeaf(NewOwnerFilter(false)), nil) {
		t.Error("ALL_FLOWS is total, so it includes unrestricted")
	}
}

func TestIncludesComposite(t *testing.T) {
	own := NewLeaf(NewOwnerFilter(true))
	all := NewLeaf(NewOwnerFilter(false))
	sub16 := NewLeaf(ipDstFilter(10, 13, 0, 0, 16))
	sub24 := NewLeaf(ipDstFilter(10, 13, 7, 0, 24))
	prio := NewLeaf(NewMaxPriorityFilter(100))
	prioTight := NewLeaf(NewMaxPriorityFilter(50))

	tests := []struct {
		name string
		a, b Expr
		want bool
	}{
		{"or widens", &Or{L: own, R: sub16}, own, true},
		{"or widens 2", &Or{L: own, R: sub16}, sub24, true},
		{"and narrows", sub16, &And{L: sub24, R: prio}, true},
		{"conjunct not covered", &And{L: sub16, R: prio}, sub24, false},
		{"conjunction ordered", &And{L: sub16, R: prio}, &And{L: sub24, R: prioTight}, true},
		{"conjunction reversed operands", &And{L: prio, R: sub16}, &And{L: prioTight, R: sub24}, true},
		{"disjunction of disjoint covers union member", &Or{L: sub16, R: prio}, prio, true},
		{"all covers own", all, own, true},
		{"own does not cover all", own, all, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := mustIncludes(t, tt.a, tt.b); got != tt.want {
				t.Errorf("Includes = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIncludesWithNegation(t *testing.T) {
	sub16 := ipDstFilter(10, 13, 0, 0, 16)
	sub24 := ipDstFilter(10, 13, 7, 0, 24)
	other := ipDstFilter(10, 14, 0, 0, 16)

	// ¬narrow ⊇ ¬wide  ⇔  wide ⊇ narrow.
	if !mustIncludes(t, &Not{X: NewLeaf(sub24)}, &Not{X: NewLeaf(sub16)}) {
		t.Error("¬/24 must include ¬/16")
	}
	if mustIncludes(t, &Not{X: NewLeaf(sub16)}, &Not{X: NewLeaf(sub24)}) {
		t.Error("¬/16 must not include ¬/24")
	}
	// ¬f ⊇ g when f and g are disjoint.
	if !mustIncludes(t, &Not{X: NewLeaf(other)}, NewLeaf(sub16)) {
		t.Error("¬(10.14/16) must include 10.13/16")
	}
	if mustIncludes(t, &Not{X: NewLeaf(sub16)}, NewLeaf(sub24)) {
		t.Error("¬(10.13/16) must not include 10.13.7/24")
	}
	// f ⊇ ¬g only when f is total.
	if !mustIncludes(t, NewLeaf(NewOwnerFilter(false)), &Not{X: NewLeaf(NewOwnerFilter(true))}) {
		t.Error("ALL_FLOWS includes ¬OWN_FLOWS")
	}
	if mustIncludes(t, NewLeaf(sub16), &Not{X: NewLeaf(sub24)}) {
		t.Error("a subnet filter must not include a negated one")
	}
	// Unsatisfiable right side is included in anything.
	contradiction := &And{L: NewLeaf(sub16), R: NewLeaf(other)}
	if !mustIncludes(t, NewLeaf(NewMaxPriorityFilter(1)), contradiction) {
		t.Error("empty behaviour set is included in anything")
	}
}

// --- property-based checks of Algorithm 1 --------------------------------

// filterPool is a diverse set of singleton filters for random expressions.
func filterPool() []Filter {
	return []Filter{
		ipDstFilter(10, 13, 0, 0, 16),
		ipDstFilter(10, 13, 7, 0, 24),
		ipDstFilter(10, 14, 0, 0, 16),
		ipSrcFilter(192, 168, 0, 0, 16),
		NewWildcardFilter(of.FieldIPDst, uint64(of.PrefixMask(24))),
		NewActionFilter(ActionClassForward),
		NewActionFilter(ActionClassDrop),
		NewModifyActionFilter(of.FieldIPDst),
		NewOwnerFilter(true),
		NewOwnerFilter(false),
		NewMaxPriorityFilter(100),
		NewMinPriorityFilter(50),
		NewTableSizeFilter(10),
		NewPktOutFilter(false),
		NewPktOutFilter(true),
		NewStatsFilter(of.StatsPort),
		NewStatsFilter(of.StatsFlow),
	}
}

// randomExpr builds a random expression of bounded depth over the pool.
func randomExpr(r *rand.Rand, pool []Filter, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return NewLeaf(pool[r.Intn(len(pool))])
	}
	switch r.Intn(4) {
	case 0:
		return &And{L: randomExpr(r, pool, depth-1), R: randomExpr(r, pool, depth-1)}
	case 1:
		return &Or{L: randomExpr(r, pool, depth-1), R: randomExpr(r, pool, depth-1)}
	case 2:
		return &Not{X: randomExpr(r, pool, depth-1)}
	default:
		return NewLeaf(pool[r.Intn(len(pool))])
	}
}

// randomFullCall draws a call carrying every attribute dimension the pool
// inspects, so vacuous truth never masks a comparison.
func randomFullCall(r *rand.Rand) *Call {
	m := of.NewMatch()
	// Randomly pick dst inside one of the pool subnets or outside.
	dstChoices := []of.IPv4{
		of.IPv4FromOctets(10, 13, 7, byte(r.Intn(256))),
		of.IPv4FromOctets(10, 13, byte(r.Intn(256)), 1),
		of.IPv4FromOctets(10, 14, 2, 2),
		of.IPv4FromOctets(172, 16, 0, 1),
	}
	dst := dstChoices[r.Intn(len(dstChoices))]
	switch r.Intn(3) {
	case 0:
		m.Set(of.FieldIPDst, uint64(dst))
	case 1:
		m.SetMasked(of.FieldIPDst, uint64(dst), uint64(of.PrefixMask(8+r.Intn(25))))
	default:
		// leave wildcarded
	}
	if r.Intn(2) == 0 {
		m.Set(of.FieldIPSrc, uint64(of.IPv4FromOctets(192, 168, byte(r.Intn(2)), 5)))
	}

	actionsChoices := [][]of.Action{
		{of.Output(uint16(r.Intn(8)))},
		{of.Flood()},
		{of.Drop()},
		{},
		{of.SetField(of.FieldIPDst, uint64(r.Intn(1<<16)))},
		{of.SetField(of.FieldIPDst, 9), of.Output(1)},
		{of.SetField(of.FieldIPSrc, 9), of.Output(1)},
	}
	owners := []string{"me", "other", ""}
	return &Call{
		App:           "me",
		Token:         TokenInsertFlow,
		DPID:          of.DPID(r.Intn(4)),
		HasDPID:       true,
		Match:         m,
		Actions:       actionsChoices[r.Intn(len(actionsChoices))],
		Priority:      uint16(r.Intn(200)),
		HasPriority:   true,
		RuleCount:     r.Intn(15),
		HasRuleCount:  true,
		FlowOwner:     owners[r.Intn(len(owners))],
		HasFlowOwner:  true,
		FromPktIn:     r.Intn(2) == 0,
		HasProvenance: true,
		StatsLevel:    []of.StatsType{of.StatsFlow, of.StatsPort, of.StatsSwitch}[r.Intn(3)],
	}
}

func TestPropertyIncludesSoundness(t *testing.T) {
	// Algorithm 1 must be sound: whenever it claims A ⊇ B, every call
	// admitted by B is admitted by A.
	r := rand.New(rand.NewSource(1))
	pool := filterPool()
	claims := 0
	for i := 0; i < 4000; i++ {
		a := randomExpr(r, pool, 3)
		b := randomExpr(r, pool, 3)
		inc, err := Includes(a, b)
		if err != nil || !inc {
			continue
		}
		claims++
		for j := 0; j < 60; j++ {
			call := randomFullCall(r)
			if b.Eval(call) && !a.Eval(call) {
				t.Fatalf("soundness violated:\n A=%s\n B=%s\n call=%s (owner=%q prio=%d actions=%v)",
					a, b, call, call.FlowOwner, call.Priority, call.Actions)
			}
		}
	}
	if claims < 50 {
		t.Errorf("only %d inclusion claims exercised; generator too weak", claims)
	}
}

func TestPropertyIncludesReflexiveAndLattice(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pool := filterPool()
	for i := 0; i < 1500; i++ {
		a := randomExpr(r, pool, 3)
		b := randomExpr(r, pool, 3)
		if !mustIncludes(t, a, a) {
			t.Fatalf("reflexivity violated for %s", a)
		}
		// A ⊇ A∧B (meet is a lower bound).
		if !mustIncludes(t, a, &And{L: a, R: b}) {
			t.Fatalf("meet lower bound violated for A=%s B=%s", a, b)
		}
		// A∨B ⊇ A (join is an upper bound).
		if !mustIncludes(t, &Or{L: a, R: b}, a) {
			t.Fatalf("join upper bound violated for A=%s B=%s", a, b)
		}
	}
}

func TestPropertyIncludesTransitivity(t *testing.T) {
	// On chains where inclusion is decided positively, transitivity must
	// hold.
	r := rand.New(rand.NewSource(3))
	pool := filterPool()
	checked := 0
	for i := 0; i < 6000 && checked < 200; i++ {
		a := randomExpr(r, pool, 2)
		b := randomExpr(r, pool, 2)
		c := randomExpr(r, pool, 2)
		if mustIncludes(t, a, b) && mustIncludes(t, b, c) {
			checked++
			// The conservative algorithm may fail to re-derive a ⊇ c
			// syntactically, but it must never contradict it semantically:
			// verify with random calls instead of demanding Includes(a,c).
			for j := 0; j < 40; j++ {
				call := randomFullCall(r)
				if c.Eval(call) && !a.Eval(call) {
					t.Fatalf("semantic transitivity violated: A=%s B=%s C=%s", a, b, c)
				}
			}
		}
	}
	if checked < 20 {
		t.Skipf("only %d chains found", checked)
	}
}
