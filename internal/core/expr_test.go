package core

import (
	"testing"

	"sdnshield/internal/of"
)

func ipDstFilter(a, b, c, d byte, bits int) *PredFilter {
	return NewPredFilter(of.FieldIPDst, uint64(of.IPv4FromOctets(a, b, c, d)), uint64(of.PrefixMask(bits)))
}

func ipSrcFilter(a, b, c, d byte, bits int) *PredFilter {
	return NewPredFilter(of.FieldIPSrc, uint64(of.IPv4FromOctets(a, b, c, d)), uint64(of.PrefixMask(bits)))
}

func TestExprEvalPaperComposition(t *testing.T) {
	// §IV-B: read_flow_table limited to own flows OR flows touching
	// 10.13.0.0/16 in either direction.
	expr := &Or{
		L: &Or{
			L: NewLeaf(NewOwnerFilter(true)),
			R: NewLeaf(ipSrcFilter(10, 13, 0, 0, 16)),
		},
		R: NewLeaf(ipDstFilter(10, 13, 0, 0, 16)),
	}

	call := func(owner string, src, dst of.IPv4) *Call {
		m := of.NewMatch().Set(of.FieldIPSrc, uint64(src)).Set(of.FieldIPDst, uint64(dst))
		return &Call{App: "monitor", Token: TokenReadFlowTable,
			Match: m, FlowOwner: owner, HasFlowOwner: true}
	}

	tests := []struct {
		name string
		call *Call
		want bool
	}{
		{"own flow elsewhere", call("monitor", of.IPv4FromOctets(1, 1, 1, 1), of.IPv4FromOctets(2, 2, 2, 2)), true},
		{"foreign flow in subnet via dst", call("router", of.IPv4FromOctets(1, 1, 1, 1), of.IPv4FromOctets(10, 13, 9, 9)), true},
		{"foreign flow in subnet via src", call("router", of.IPv4FromOctets(10, 13, 1, 1), of.IPv4FromOctets(8, 8, 8, 8)), true},
		{"foreign flow outside subnet", call("router", of.IPv4FromOctets(1, 1, 1, 1), of.IPv4FromOctets(8, 8, 8, 8)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := expr.Eval(tt.call); got != tt.want {
				t.Errorf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestExprEvalNegationAndVacuity(t *testing.T) {
	pred := NewLeaf(ipDstFilter(10, 0, 0, 0, 8))
	notPred := &Not{X: pred}

	inside := &Call{Token: TokenInsertFlow,
		Match: of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 1, 1, 1)))}
	outside := &Call{Token: TokenInsertFlow,
		Match: of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(9, 1, 1, 1)))}
	noAttr := &Call{Token: TokenReadStatistics, StatsLevel: of.StatsPort}

	if pred.Eval(inside) != true || pred.Eval(outside) != false {
		t.Error("leaf evaluation wrong")
	}
	if notPred.Eval(inside) != false || notPred.Eval(outside) != true {
		t.Error("negation wrong")
	}
	// Filters not applicable to the call pass it through, with or without
	// negation.
	if !pred.Eval(noAttr) || !notPred.Eval(noAttr) {
		t.Error("inapplicable filters must be vacuously true under any sign")
	}
	// Double negation.
	if (&Not{X: notPred}).Eval(outside) != false {
		t.Error("double negation broken")
	}
	// De Morgan shapes evaluated via the neg-pushdown path.
	a, b := NewLeaf(NewOwnerFilter(true)), pred
	notAnd := &Not{X: &And{L: a, R: b}}
	wantCall := &Call{Token: TokenInsertFlow, FlowOwner: "other", HasFlowOwner: true,
		Match: of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 1, 1, 1)))}
	// a false (foreign flow), b true -> and false -> not true.
	wantCall.App = "me"
	if !notAnd.Eval(wantCall) {
		t.Error("¬(a∧b) should hold when a is false")
	}
	notOr := &Not{X: &Or{L: a, R: b}}
	if notOr.Eval(wantCall) {
		t.Error("¬(a∨b) should fail when b holds")
	}
}

func TestAndAllOrAll(t *testing.T) {
	f1 := NewLeaf(NewOwnerFilter(true))
	f2 := NewLeaf(NewMaxPriorityFilter(10))

	if AndAll() != nil || AndAll(nil, nil) != nil {
		t.Error("empty conjunction is unrestricted")
	}
	if got := AndAll(nil, f1, nil); got != f1 {
		t.Error("nil operands must be dropped from conjunction")
	}
	if _, ok := AndAll(f1, f2).(*And); !ok {
		t.Error("two operands make an And")
	}
	if OrAll() != nil {
		t.Error("empty disjunction is unrestricted")
	}
	if OrAll(f1, nil) != nil {
		t.Error("nil absorbs disjunction")
	}
	if _, ok := OrAll(f1, f2).(*Or); !ok {
		t.Error("two operands make an Or")
	}
}

func TestExprEqualAndString(t *testing.T) {
	f1 := NewLeaf(NewOwnerFilter(true))
	f2 := NewLeaf(NewMaxPriorityFilter(10))
	a := &And{L: f1, R: f2}
	b := &And{L: NewLeaf(NewOwnerFilter(true)), R: NewLeaf(NewMaxPriorityFilter(10))}

	if !ExprEqual(a, b) {
		t.Error("structurally equal expressions")
	}
	if ExprEqual(a, &And{L: f2, R: f1}) {
		t.Error("ExprEqual is structural, operand order matters")
	}
	if !ExprEqual(nil, nil) || ExprEqual(a, nil) || ExprEqual(nil, a) {
		t.Error("nil handling broken")
	}
	if got := a.String(); got != "(OWN_FLOWS AND MAX_PRIORITY 10)" {
		t.Errorf("String = %q", got)
	}
	if got := (&Not{X: f1}).String(); got != "NOT OWN_FLOWS" {
		t.Errorf("String = %q", got)
	}
	if ExprString(nil) != "*" {
		t.Error("nil renders as *")
	}
}

func TestToCNFToDNFShapes(t *testing.T) {
	x := NewLeaf(NewOwnerFilter(true))
	y := NewLeaf(NewMaxPriorityFilter(10))
	z := NewLeaf(NewTableSizeFilter(5))

	// (x ∧ y) ∨ z : CNF = (x∨z) ∧ (y∨z); DNF = (x∧y) ∨ z.
	e := &Or{L: &And{L: x, R: y}, R: z}
	cnf, err := ToCNF(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cnf) != 2 || len(cnf[0]) != 2 || len(cnf[1]) != 2 {
		t.Errorf("CNF shape = %v", cnf)
	}
	dnf, err := ToDNF(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(dnf) != 2 || len(dnf[0]) != 2 || len(dnf[1]) != 1 {
		t.Errorf("DNF shape = %v", dnf)
	}

	// Negation pushes to leaves: ¬(x ∨ y) = ¬x ∧ ¬y.
	n := &Not{X: &Or{L: x, R: y}}
	cnf, err = ToCNF(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(cnf) != 2 || !cnf[0][0].Neg || !cnf[1][0].Neg {
		t.Errorf("negated CNF = %v", cnf)
	}

	// nil expression conventions.
	if c, err := ToCNF(nil); err != nil || len(c) != 0 {
		t.Errorf("ToCNF(nil) = %v, %v", c, err)
	}
	if d, err := ToDNF(nil); err != nil || len(d) != 1 || len(d[0]) != 0 {
		t.Errorf("ToDNF(nil) = %v, %v", d, err)
	}
}

func TestNormalizationBudget(t *testing.T) {
	// Alternate AND of ORs deep enough to overflow the clause budget in
	// DNF.
	leafPool := []Expr{
		NewLeaf(NewOwnerFilter(true)),
		NewLeaf(NewMaxPriorityFilter(9)),
	}
	e := leafPool[0]
	for i := 0; i < 40; i++ {
		e = &And{L: e, R: &Or{L: leafPool[i%2], R: leafPool[(i+1)%2]}}
	}
	if _, err := ToDNF(e); err == nil {
		t.Skip("expression did not overflow budget; widen the generator")
	}
	// The comparison must degrade conservatively, not panic.
	if inc, err := Includes(e, e); err == nil && inc {
		t.Log("includes still decided within budget")
	}
}

func TestSubstituteMacrosSharesUnboundSubtrees(t *testing.T) {
	kept := &Or{L: NewLeaf(NewOwnerFilter(true)), R: &Not{X: NewLeaf(NewMaxPriorityFilter(9))}}
	admin := NewLeaf(ipSrcFilter(10, 0, 0, 0, 8))
	e := &And{L: kept, R: &Not{X: &MacroRef{Name: "AdminRange"}}}

	got, missing := SubstituteMacros(e, map[string]Expr{"AdminRange": admin})
	if len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
	a, ok := got.(*And)
	if !ok || a.L != Expr(kept) || !ExprEqual(a.R, &Not{X: admin}) {
		t.Fatalf("substituted %s, want %s AND NOT %s with the left subtree shared", got, kept, admin)
	}
	if got, missing := SubstituteMacros(e, nil); got != Expr(e) || len(missing) != 1 {
		t.Fatalf("nothing bound: got %s (copied: %v), missing %v", got, got != Expr(e), missing)
	}
}
