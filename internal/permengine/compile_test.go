package permengine

import (
	"math/rand"
	"reflect"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/permlang"
)

// chainExpr draws an AND or OR chain of 8–16 terms over the pool, joined
// in a random tree shape, with at least one Not among its terms. Below
// the top depth a term may be a chain of its own (either kind).
func chainExpr(r *rand.Rand, pool []core.Expr, depth int) core.Expr {
	terms := make([]core.Expr, 8+r.Intn(9))
	for i := range terms {
		if depth > 0 && r.Intn(4) == 0 {
			terms[i] = chainExpr(r, pool, depth-1)
		} else {
			terms[i] = pool[r.Intn(len(pool))]
		}
		if r.Intn(3) == 0 {
			terms[i] = &core.Not{X: terms[i]}
		}
	}
	if k := r.Intn(len(terms)); !isNot(terms[k]) {
		terms[k] = &core.Not{X: terms[k]}
	}
	return joinChain(r, r.Intn(2) == 0, terms)
}

func isNot(e core.Expr) bool {
	_, ok := e.(*core.Not)
	return ok
}

// joinChain joins terms, in order, with And (and) or Or, splitting them
// at a random point at every level.
func joinChain(r *rand.Rand, and bool, terms []core.Expr) core.Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	k := 1 + r.Intn(len(terms)-1)
	l, rt := joinChain(r, and, terms[:k]), joinChain(r, and, terms[k:])
	if and {
		return &core.And{L: l, R: rt}
	}
	return &core.Or{L: l, R: rt}
}

// sourceLeaves lists every leaf of e in source order, as Explain records
// it under the negation pushed down from the root; a leaf's Effective is
// core's evaluation of the literal (the leaf, or its Not).
func sourceLeaves(e core.Expr, neg bool, call *core.Call, out []LeafExplain) []LeafExplain {
	switch v := e.(type) {
	case *core.Not:
		return sourceLeaves(v.X, !neg, call, out)
	case *core.And:
		return sourceLeaves(v.R, neg, call, sourceLeaves(v.L, neg, call, out))
	case *core.Or:
		return sourceLeaves(v.R, neg, call, sourceLeaves(v.L, neg, call, out))
	}
	var literal core.Expr = e
	if neg {
		literal = &core.Not{X: e}
	}
	lf := LeafExplain{Negated: neg, Effective: literal.Eval(call)}
	switch v := e.(type) {
	case *core.Leaf:
		lf.Filter, lf.Dimension = v.F.String(), v.F.Dimension()
		lf.Matched, lf.Applicable = v.F.Test(call)
	case *core.MacroRef:
		lf.Filter, lf.Dimension, lf.Applicable = v.Name, "macro", true
	}
	return append(out, lf)
}

// TestCompiledChainsAgreeWithCore: the n-ary lowering of AND and OR
// chains decides every call as core.Set.Allows does, and under Explain
// records every leaf of the chain in source order — none skipped by a
// short-circuit — with its polarity and effective value. The root is
// negated once or twice, so the grant is one clause and each chain kind
// meets both polarities.
func TestCompiledChainsAgreeWithCore(t *testing.T) {
	pool := diffPool()
	r := rand.New(rand.NewSource(42))
	apps := []string{"chain"}
	var allowed, denied int
	for policy := 0; policy < 200; policy++ {
		expr := core.Expr(&core.Not{X: chainExpr(r, pool, 2)})
		if r.Intn(2) == 0 {
			expr = &core.Not{X: expr}
		}
		set := core.NewSetOf(core.Permission{Token: core.TokenInsertFlow, Filter: expr})
		e := New(nil)
		e.SetPermissions("chain", set)
		for i := 0; i < 20; i++ {
			call := diffCall(r, apps, 0)
			call.Token = core.TokenInsertFlow
			want := set.Allows(call)
			if got := e.Check(call) == nil; got != want {
				t.Fatalf("policy %d: Check = %v, core says %v for %s under %s", policy, got, want, call, expr)
			}
			if want {
				allowed++
			} else {
				denied++
			}
			ex := e.Explain(call)
			if ex.Allowed != want || len(ex.Clauses) != 1 {
				t.Fatalf("policy %d: Explain allowed=%v with %d clauses, core says %v for %s under %s",
					policy, ex.Allowed, len(ex.Clauses), want, call, expr)
			}
			if wantLeaves := sourceLeaves(expr, false, call, nil); !reflect.DeepEqual(ex.Clauses[0].Leaves, wantLeaves) {
				t.Fatalf("policy %d: Explain leaves for %s under %s\n got %+v\nwant %+v",
					policy, call, expr, ex.Clauses[0].Leaves, wantLeaves)
			}
		}
	}
	if allowed == 0 || denied == 0 {
		t.Fatalf("degenerate corpus: %d allowed, %d denied", allowed, denied)
	}
}

// TestSetPermissionsAllocs pins what activating the medium manifest
// allocates: the checking program, and no clause text or heat slab.
// A change of the count, either way, is a change of what activation
// builds — update the pin with the reason.
func TestSetPermissionsAllocs(t *testing.T) {
	const want = 114
	set := permlang.MustParse(activationManifest(5, 15)).Set()
	e := New(nil)
	if n := testing.AllocsPerRun(200, func() { e.SetPermissions("app", set) }); n != want {
		t.Fatalf("SetPermissions(medium) allocates %v times, want %d", n, want)
	}
}
