package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// strangeExpr is an expression type normalization does not know.
type strangeExpr struct{}

func (strangeExpr) Eval(*Call) bool { return true }
func (strangeExpr) String() string  { return "STRANGE" }
func (strangeExpr) isExpr()         {}

// emptyOwnerFilter is an ownership filter that admits no call. No filter
// of the language is empty, but the clause rules must treat one exactly
// as the clause product does: it contradicts a total filter only when it
// comes first.
type emptyOwnerFilter struct{}

func (emptyOwnerFilter) Dimension() string          { return DimOwner }
func (emptyOwnerFilter) Test(*Call) (bool, bool)    { return false, true }
func (emptyOwnerFilter) Includes(other Filter) bool { return other == Filter(emptyOwnerFilter{}) }
func (emptyOwnerFilter) DisjointWith(Filter) bool   { return true }
func (emptyOwnerFilter) Total() bool                { return false }
func (emptyOwnerFilter) Equal(other Filter) bool    { return other == Filter(emptyOwnerFilter{}) }
func (emptyOwnerFilter) String() string             { return "NO_FLOWS" }

// differentialPool is filterPool with the empty filter added.
func differentialPool() []Filter { return append(filterPool(), emptyOwnerFilter{}) }

// agreeWithMaterialised fails t unless Includes(a, b) returns the verdict
// and the error of the materialised clause product.
func agreeWithMaterialised(t testing.TB, a, b Expr) {
	t.Helper()
	got, gotErr := Includes(a, b)
	want, wantErr := includesMaterialised(a, b)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Includes(%s, %s) = %v, %v; the clause product says %v, %v",
			ExprString(a), ExprString(b), got, gotErr, want, wantErr)
	}
}

// withMacros rebuilds e with each leaf replaced, at odds 1 in n, by an
// unresolved macro named after its position.
func withMacros(r *rand.Rand, e Expr, n int) Expr {
	switch v := e.(type) {
	case *Leaf:
		if r.Intn(n) == 0 {
			return &MacroRef{Name: fmt.Sprintf("M%d", r.Intn(100))}
		}
		return v
	case *Not:
		return &Not{X: withMacros(r, v.X, n)}
	case *And:
		return &And{L: withMacros(r, v.L, n), R: withMacros(r, v.R, n)}
	case *Or:
		return &Or{L: withMacros(r, v.L, n), R: withMacros(r, v.R, n)}
	default:
		return e
	}
}

// randomPair draws the operands of one differential case. Independent
// operands are mostly not included; a conjunction under a disjunction
// mostly is, so both verdicts are exercised.
func randomPair(r *rand.Rand, pool []Filter) (a, b Expr) {
	a, b = randomExpr(r, pool, 3), randomExpr(r, pool, 3)
	switch r.Intn(4) {
	case 0:
		b = &And{L: a, R: b}
	case 1:
		a = &Or{L: b, R: a}
	case 2:
		a = &Or{L: randomExpr(r, pool, 2), R: &Not{X: randomExpr(r, pool, 2)}}
	}
	if r.Intn(20) == 0 {
		a = withMacros(r, a, 3)
	}
	if r.Intn(20) == 0 {
		b = withMacros(r, b, 3)
	}
	switch r.Intn(40) {
	case 0:
		a = nil
	case 1:
		b = nil
	}
	return a, b
}

func TestIncludesMatchesMaterialised(t *testing.T) {
	const pairs = 100_000
	r := rand.New(rand.NewSource(49))
	pool := differentialPool()
	verdicts := map[string]int{}
	for i := 0; i < pairs; i++ {
		a, b := randomPair(r, pool)
		agreeWithMaterialised(t, a, b)
		inc, err := Includes(a, b)
		verdicts[fmt.Sprint(inc, err != nil)]++
	}
	t.Logf("verdicts over %d pairs (included, error): %v", pairs, verdicts)
	for _, key := range []string{"true false", "false false", "false true"} {
		if verdicts[key] < pairs/100 {
			t.Errorf("only %d of %d pairs ended %q: the generator no longer exercises that outcome", verdicts[key], pairs, key)
		}
	}
}

// agreeWithNegatedDNF fails t unless ToCNF(e) returns the oracle's CNF,
// the flipped DNF of ¬e, clause for clause and literal for literal, and
// its error.
func agreeWithNegatedDNF(t testing.TB, e Expr) {
	t.Helper()
	got, gotErr := ToCNF(e)
	want, wantErr := materialisedCNF(e)
	if !slices.EqualFunc(got, want, slices.Equal[Clause]) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("ToCNF(%s) = %v, %v; the flipped DNF of its negation is %v, %v",
			ExprString(e), got, gotErr, want, wantErr)
	}
}

func TestToCNFMatchesNegatedDNF(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	pool := differentialPool()
	for i := 0; i < 50_000; i++ {
		a, b := randomPair(r, pool)
		agreeWithNegatedDNF(t, a)
		agreeWithNegatedDNF(t, b)
	}
}

func TestToCNFAllocsFlatInWidth(t *testing.T) {
	// The CNF of an n-way disjunction is one clause of n literals: its
	// allocations must not grow with n.
	allocs := func(n int) float64 {
		leaves := make([]Expr, n)
		for i := range leaves {
			leaves[i] = NewLeaf(ipDstFilter(10, byte(i), 0, 0, 16))
		}
		e := OrAll(leaves...)
		return testing.AllocsPerRun(100, func() { _, _ = ToCNF(e) })
	}
	if narrow, wide := allocs(4), allocs(19); narrow != wide {
		t.Fatalf("ToCNF allocates %v times for a 4-way disjunction and %v for a 19-way one", narrow, wide)
	}
}

func TestIncludesErrorOrder(t *testing.T) {
	x := NewLeaf(NewOwnerFilter(true))
	y := NewLeaf(NewMaxPriorityFilter(9))
	macro := func(name string) Expr { return &MacroRef{Name: name} }
	// wide has a DNF and a CNF of 2^15 clauses.
	var wide, wideCNF Expr = x, x
	for i := 0; i < 15; i++ {
		wide = &And{L: wide, R: &Or{L: x, R: y}}
		wideCNF = &Or{L: wideCNF, R: &And{L: x, R: y}}
	}
	cases := []struct {
		name string
		a, b Expr
		want string
	}{
		{"left macro before right macro", &And{L: x, R: macro("A")}, macro("B"), `"A"`},
		{"left too large before right macro", wideCNF, macro("B"), ErrExprTooLarge.Error()},
		{"right macro, left subtree first", x, &Or{L: macro("L"), R: macro("R")}, `"L"`},
		{"right subtree too large before a later macro", x, &Or{L: wide, R: macro("R")}, ErrExprTooLarge.Error()},
		{"right macro before a later subtree too large", x, &Or{L: macro("L"), R: wide}, `"L"`},
		{"negated right macro", x, &Not{X: &And{L: y, R: macro("N")}}, `"N"`},
		{"unknown node", x, &And{L: y, R: strangeExpr{}}, "unknown expression type"},
		{"nil inside the right operand", x, &Or{L: y, R: nil}, "<nil>"},
		{"unrestricted left hides the right error", nil, macro("B"), "<nil>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agreeWithMaterialised(t, c.a, c.b)
			_, err := Includes(c.a, c.b)
			if got := fmt.Sprint(err); !strings.Contains(got, c.want) {
				t.Fatalf("error %q, want it to name %s", got, c.want)
			}
		})
	}
}

func TestIncludesClauseBudgetEdge(t *testing.T) {
	x := NewLeaf(ipDstFilter(10, 1, 0, 0, 16))
	y := NewLeaf(ipDstFilter(10, 2, 0, 0, 16))
	z := NewLeaf(NewMaxPriorityFilter(9))
	// atBudget's DNF is the product of 14 two-clause factors: exactly
	// maxClauses clauses. One more disjunct overflows the budget, and so
	// does the same product reached through negation.
	var atBudget Expr = &Or{L: x, R: y}
	for i := 1; i < 14; i++ {
		atBudget = &And{L: atBudget, R: &Or{L: x, R: z}}
	}
	if n, err := dnfSize(atBudget, false); err != nil || n != maxClauses {
		t.Fatalf("dnfSize = %d, %v; want %d", n, err, maxClauses)
	}
	overBudget := &Or{L: atBudget, R: z}
	negOverBudget := &Not{X: &And{L: &Not{X: atBudget}, R: &Not{X: z}}}
	lefts := []Expr{
		NewLeaf(ipDstFilter(10, 0, 0, 0, 12)), // includes x and y: decided at depth 1
		&Or{L: x, R: z},                       // decided at depth 1 or 2
		x,                                     // misses y ∧ z ∧ … ∧ z
		&And{L: &Or{L: x, R: y}, R: &Or{L: z, R: x}},
	}
	for _, a := range lefts {
		agreeWithMaterialised(t, a, atBudget)
		for _, b := range []Expr{overBudget, negOverBudget} {
			agreeWithMaterialised(t, a, b)
			if _, err := Includes(a, b); !errors.Is(err, ErrExprTooLarge) {
				t.Fatalf("Includes(%s, maxClauses+1 clauses): %v, want ErrExprTooLarge", a, err)
			}
		}
	}
}

func TestIncludesTotalLiteralOrder(t *testing.T) {
	// A positive total literal contradicts nothing that follows it in a
	// conjunction, but an earlier literal is checked against it: both
	// orders, every partner and every sign must match the clause product.
	pool := differentialPool()
	var totals []Filter
	for _, f := range pool {
		if f.Total() {
			totals = append(totals, f)
		}
	}
	if len(totals) == 0 {
		t.Fatal("filterPool holds no total filter")
	}
	for _, tot := range totals {
		for _, partner := range pool {
			for _, negs := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				tl, pl := Expr(NewLeaf(tot)), Expr(NewLeaf(partner))
				if negs[0] {
					tl = &Not{X: tl}
				}
				if negs[1] {
					pl = &Not{X: pl}
				}
				for _, a := range pool {
					left := NewLeaf(a)
					agreeWithMaterialised(t, left, &And{L: tl, R: pl})
					agreeWithMaterialised(t, left, &And{L: pl, R: tl})
					agreeWithMaterialised(t, &Not{X: left}, &And{L: pl, R: tl})
				}
			}
		}
	}
}

// decodeExpr reads a prefix-coded expression over pool off the front of
// data, at most depth levels deep, and returns it with the unread rest.
// Codes 0–2 are a leaf (the next byte picks the filter), 3 a
// conjunction, 4 a disjunction, 5 a negation, 6 an unresolved macro and
// 7 a nil subexpression. Running out of data ends in a leaf.
func decodeExpr(data []byte, pool []Filter, depth int) (Expr, []byte) {
	if len(data) < 2 {
		return NewLeaf(pool[0]), nil
	}
	code, pick := data[0]%8, int(data[1])%len(pool)
	data = data[1:]
	if depth <= 0 && code >= 3 && code <= 5 {
		code = 0
	}
	switch code {
	case 3, 4:
		l, rest := decodeExpr(data, pool, depth-1)
		r, rest := decodeExpr(rest, pool, depth-1)
		if code == 3 {
			return &And{L: l, R: r}, rest
		}
		return &Or{L: l, R: r}, rest
	case 5:
		x, rest := decodeExpr(data, pool, depth-1)
		return &Not{X: x}, rest
	case 6:
		return &MacroRef{Name: fmt.Sprintf("M%d", pick)}, data[1:]
	case 7:
		return nil, data
	default:
		return NewLeaf(pool[pick]), data[1:]
	}
}

func FuzzIncludes(f *testing.F) {
	f.Add([]byte{3, 0, 4, 1, 0, 2, 0, 8, 0, 9})
	f.Add([]byte{4, 0, 0, 0, 3, 5, 0, 10, 0, 16})
	f.Add([]byte{7, 3, 0, 1, 6, 2})
	f.Add([]byte{0, 8, 3, 0, 16, 5, 0, 13})
	pool := differentialPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		a, rest := decodeExpr(data, pool, 10)
		b, _ := decodeExpr(rest, pool, 10)
		agreeWithMaterialised(t, a, b)
		agreeWithNegatedDNF(t, a)
	})
}

// admissionShape builds one admission of the market benchmark's corpus:
// a boundary granting tokens permission tokens, each limited to
// IP_DST 10.0.0.0/12, and a manifest granting the same tokens, each
// limited to (preds IP_DST /16 predicates OR-ed together) AND
// MAX_PRIORITY 60000 AND ALL_FLOWS. The manifest lies inside the
// boundary, so admission compares every DNF clause of every token.
func admissionShape(tokens, preds int) (boundary, manifest *Set) {
	boundary, manifest = NewSet(), NewSet()
	for i := 0; i < tokens; i++ {
		tok := Token(i + 1)
		boundary.Grant(tok, NewLeaf(ipDstFilter(10, 0, 0, 0, 12)))
		subnets := make([]Expr, preds)
		for j := range subnets {
			subnets[j] = NewLeaf(ipDstFilter(10, byte(1+j%8), 0, 0, 16))
		}
		manifest.Grant(tok, AndAll(OrAll(subnets...), NewLeaf(NewMaxPriorityFilter(60000)), NewLeaf(NewOwnerFilter(false))))
	}
	return boundary, manifest
}

// BenchmarkIncludes measures the admission check "manifest <= boundary"
// (Algorithm 1 once per token) at the small, medium and large manifest
// shapes of §IX-B2, as tokens × predicates.
func BenchmarkIncludes(b *testing.B) {
	for _, shape := range []struct{ tokens, preds int }{{1, 8}, {5, 13}, {15, 18}} {
		boundary, manifest := admissionShape(shape.tokens, shape.preds)
		b.Run(fmt.Sprintf("%dx%d", shape.tokens, shape.preds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if inc, err := boundary.Includes(manifest); err != nil || !inc {
					b.Fatalf("Includes = %v, %v; want true", inc, err)
				}
			}
		})
	}
}

var renderSink string

// BenchmarkSortedString measures the canonical rendering of the large
// manifest, which the market's verdict cache stores with every verdict.
func BenchmarkSortedString(b *testing.B) {
	_, manifest := admissionShape(15, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		renderSink = manifest.SortedString()
	}
}
