package core

import (
	"fmt"
	"slices"
)

// This file implements the paper's Algorithm 1: deciding the inclusion
// relation of a pair of filter expressions. The left operand is converted
// to CNF; inclusion holds iff every disjunctive clause of the left
// includes every conjunctive clause of the right operand's DNF, where a
// clause pair is decided by per-dimension singleton comparison. The
// result is sound and conservative, exactly as in the paper.
//
// The right operand's DNF is never built. Its clauses are streamed
// depth-first into one reused literal slice, and each pushed literal
// marks the left clauses it satisfies. Both ways a pair can hold (a left
// clause satisfied by one literal, an unsatisfiable conjunction) survive
// the extension of a clause, so a prefix that satisfies every left
// clause, or is unsatisfiable, decides all of its completions and its
// subtree is skipped. The verdicts are those of the clause product.

// literalIncludes reports whether the behaviour set of literal a includes
// that of literal x. Only same-dimension literals are comparable.
func literalIncludes(a, x Literal) bool {
	if a.F.Dimension() != x.F.Dimension() {
		return false
	}
	switch {
	case !a.Neg && !x.Neg:
		return a.F.Includes(x.F)
	case a.Neg && x.Neg:
		// ¬f ⊇ ¬g  ⇔  g ⊇ f
		return x.F.Includes(a.F)
	case a.Neg && !x.Neg:
		// ¬f ⊇ g  ⇔  f ∩ g = ∅
		return a.F.DisjointWith(x.F) || x.F.DisjointWith(a.F)
	default:
		// f ⊇ ¬g holds only when f covers its whole dimension.
		return a.F.Total()
	}
}

// literalsContradict reports whether two literals of one conjunctive
// clause cannot hold simultaneously (making the clause unsatisfiable).
func literalsContradict(a, b Literal) bool {
	if a.F.Dimension() != b.F.Dimension() {
		return false
	}
	switch {
	case !a.Neg && !b.Neg:
		return a.F.DisjointWith(b.F) || b.F.DisjointWith(a.F)
	case a.Neg && !b.Neg:
		// ¬f ∧ g = ∅ ⇔ g ⊆ f
		return a.F.Includes(b.F)
	case !a.Neg && b.Neg:
		return b.F.Includes(a.F)
	default:
		// ¬f ∧ ¬g: empty only if f ∪ g covers the dimension; conservative.
		return false
	}
}

// admitsAll reports whether literal l is positive and total: a
// disjunctive clause holding it admits everything.
func admitsAll(l Literal) bool { return !l.Neg && l.F.Total() }

// Includes reports whether filter expression a includes (permits at least
// everything permitted by) filter expression b, per Algorithm 1. A nil
// expression is unrestricted. The result is conservative: false with a
// nil error means inclusion could not be established; ErrExprTooLarge
// signals the expressions exceeded the normalization budget.
func Includes(a, b Expr) (bool, error) {
	if a == nil {
		return true, nil
	}
	cnfA, err := ToCNF(a)
	if err != nil {
		return false, err
	}
	if b != nil {
		if _, err := dnfSize(b, false); err != nil {
			return false, err
		}
	}
	var markBuf [8]int32
	w := dnfWalk{left: cnfA, mark: markBuf[:0]}
	for _, clause := range cnfA {
		m := int32(-1)
		if !slices.ContainsFunc(clause, admitsAll) {
			m = 0
			w.open++
		}
		w.mark = append(w.mark, m)
	}
	if w.open == 0 || b == nil { // a nil b's DNF is the one empty conjunction
		return w.open == 0, nil
	}
	var prefix [16]Literal
	var rest [16]conjunct
	return w.walk(b, false, prefix[:0], rest[:0]), nil
}

// dnfSize counts the clauses of the DNF of e (of ¬e when neg) without
// building it. Its errors, and their order, are those of building it: the
// first unresolved macro, unknown node or oversized subtree met in a
// post-order walk, left subtree first. Clause counts only grow toward the
// root, so one count per node bounds every intermediate product.
func dnfSize(e Expr, neg bool) (int, error) {
	var l, r Expr
	var disj bool
	switch v := e.(type) {
	case *Leaf:
		return 1, nil
	case *MacroRef:
		return 0, fmt.Errorf("core: unresolved macro %q in expression", v.Name)
	case *Not:
		return dnfSize(v.X, !neg)
	case *Or: // ¬(L∨R) = ¬L ∧ ¬R
		l, r, disj = v.L, v.R, !neg
	case *And: // ¬(L∧R) = ¬L ∨ ¬R
		l, r, disj = v.L, v.R, neg
	default:
		return 0, fmt.Errorf("core: unknown expression type %T", e)
	}
	nl, err := dnfSize(l, neg)
	if err != nil {
		return 0, err
	}
	nr, err := dnfSize(r, neg)
	if err != nil {
		return 0, err
	}
	n := nl * nr
	if disj {
		n = nl + nr
	}
	if n > maxClauses {
		return 0, ErrExprTooLarge
	}
	return n, nil
}

// conjunct is a subexpression (negated when neg) whose DNF clauses extend
// every clause of the subtree under walk.
type conjunct struct {
	e   Expr
	neg bool
}

// dnfWalk is the state of one depth-first walk of a right operand's DNF
// against the left operand's CNF.
type dnfWalk struct {
	left []Clause
	// mark[c] is the depth of the prefix literal that first satisfied
	// left clause c, 0 while none has, -1 when c admits everything.
	mark []int32
	open int // left clauses no prefix literal satisfies
}

// walk reports whether every left clause includes every clause of the
// conjunction prefix ∧ DNF(e, negated when neg) ∧ rest, rest's last
// conjunct first. It leaves prefix and rest as it found them.
func (w *dnfWalk) walk(e Expr, neg bool, prefix []Literal, rest []conjunct) bool {
	for {
		not, ok := e.(*Not)
		if !ok {
			break
		}
		e, neg = not.X, !neg
	}
	var l, r Expr
	var disj bool
	switch v := e.(type) {
	case *Leaf:
		return w.push(Literal{F: v.F, Neg: neg}, prefix, rest)
	case *Or:
		l, r, disj = v.L, v.R, !neg
	case *And:
		l, r, disj = v.L, v.R, neg
	default: // dnfSize has refused every other node
		return false
	}
	if disj {
		return w.walk(l, neg, prefix, rest) && w.walk(r, neg, prefix, rest)
	}
	return w.walk(l, neg, prefix, append(rest, conjunct{r, neg}))
}

// push extends prefix with x and walks the last conjunct of rest; with
// none left the clause is complete. x is first checked against the
// prefix by the clause product's rule: a negated total literal is empty
// by itself, and an earlier positive total literal contradicts nothing.
func (w *dnfWalk) push(x Literal, prefix []Literal, rest []conjunct) bool {
	if x.Neg && x.F.Total() {
		return true // every completion is empty, included in anything
	}
	for _, l := range prefix {
		if !admitsAll(l) && literalsContradict(l, x) {
			return true
		}
	}
	depth := int32(len(prefix) + 1)
	for c, clause := range w.left {
		if w.mark[c] != 0 {
			continue
		}
		for _, l := range clause {
			if literalIncludes(l, x) {
				w.mark[c] = depth
				w.open--
				break
			}
		}
	}
	ok := w.open == 0 // every left clause holds whatever follows
	if n := len(rest); !ok && n > 0 {
		c := rest[n-1]
		ok = w.walk(c.e, c.neg, append(prefix, x), rest[:n-1])
		rest[n-1] = c // the walk may have appended over it
	}
	for c, m := range w.mark {
		if m == depth {
			w.mark[c] = 0
			w.open++
		}
	}
	return ok
}

// Equivalent reports mutual inclusion of two filter expressions.
func Equivalent(a, b Expr) (bool, error) {
	ab, err := Includes(a, b)
	if err != nil || !ab {
		return false, err
	}
	return Includes(b, a)
}
