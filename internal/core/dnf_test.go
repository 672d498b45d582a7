package core

import "fmt"

// The materialised Algorithm 1, kept as the oracle of the walk in
// compare.go: a recursive builder of whole normal forms as clause lists
// (the right operand's DNF, and the left operand's CNF as the flipped
// DNF of its negation), then every (left clause, right clause) pair.
// Includes must return its verdicts and its errors, and ToCNF its
// clauses.

// ToDNF converts an expression into disjunctive normal form: a slice of
// conjunctive clauses. A nil expression yields a DNF with a single empty
// clause (the always-true conjunction).
func ToDNF(e Expr) ([]Clause, error) {
	if e == nil {
		return []Clause{{}}, nil
	}
	return normalToDNF(e, false)
}

// normalToDNF computes DNF of e (negated when neg).
func normalToDNF(e Expr, neg bool) ([]Clause, error) {
	switch v := e.(type) {
	case *Leaf:
		return []Clause{{Literal{F: v.F, Neg: neg}}}, nil
	case *MacroRef:
		return nil, fmt.Errorf("core: unresolved macro %q in expression", v.Name)
	case *Not:
		return normalToDNF(v.X, !neg)
	case *Or:
		if neg { // ¬(L∨R) = ¬L ∧ ¬R
			return dnfOfAnd(v.L, v.R, true)
		}
		l, err := normalToDNF(v.L, false)
		if err != nil {
			return nil, err
		}
		r, err := normalToDNF(v.R, false)
		if err != nil {
			return nil, err
		}
		return boundedConcat(l, r)
	case *And:
		if neg { // ¬(L∧R) = ¬L ∨ ¬R
			l, err := normalToDNF(v.L, true)
			if err != nil {
				return nil, err
			}
			r, err := normalToDNF(v.R, true)
			if err != nil {
				return nil, err
			}
			return boundedConcat(l, r)
		}
		return dnfOfAnd(v.L, v.R, false)
	default:
		return nil, fmt.Errorf("core: unknown expression type %T", e)
	}
}

// dnfOfAnd distributes (L ∧ R) over the DNFs of the operands.
func dnfOfAnd(left, right Expr, neg bool) ([]Clause, error) {
	l, err := normalToDNF(left, neg)
	if err != nil {
		return nil, err
	}
	r, err := normalToDNF(right, neg)
	if err != nil {
		return nil, err
	}
	return boundedCross(l, r)
}

func boundedConcat(l, r []Clause) ([]Clause, error) {
	if len(l)+len(r) > maxClauses {
		return nil, ErrExprTooLarge
	}
	out := make([]Clause, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...), nil
}

func boundedCross(l, r []Clause) ([]Clause, error) {
	if len(l)*len(r) > maxClauses {
		return nil, ErrExprTooLarge
	}
	out := make([]Clause, 0, len(l)*len(r))
	for _, a := range l {
		for _, b := range r {
			merged := make(Clause, 0, len(a)+len(b))
			merged = append(merged, a...)
			merged = append(merged, b...)
			out = append(out, merged)
		}
	}
	return out, nil
}

// materialisedCNF is the oracle's CNF of e, by De Morgan the DNF of ¬e
// with every literal negated. A nil expression yields an empty CNF.
func materialisedCNF(e Expr) ([]Clause, error) {
	if e == nil {
		return nil, nil
	}
	cnf, err := normalToDNF(e, true)
	for _, clause := range cnf {
		for i := range clause {
			clause[i].Neg = !clause[i].Neg
		}
	}
	return cnf, err
}

// conjUnsatisfiable reports whether a conjunctive clause is empty
// (contains contradictory literals). Conservative: false when unsure.
func conjUnsatisfiable(x Clause) bool {
	for i := range x {
		if !x[i].Neg && x[i].F.Total() {
			continue
		}
		for j := i + 1; j < len(x); j++ {
			if literalsContradict(x[i], x[j]) {
				return true
			}
		}
		// A negated total literal is itself empty.
		if x[i].Neg && x[i].F.Total() {
			return true
		}
	}
	return false
}

// disjClauseIncludesConj implements Algorithm 1's step 2 on one pair: a
// disjunctive clause (from the left CNF) against a conjunctive clause
// (from the right DNF).
func disjClauseIncludesConj(a, x Clause) bool {
	// A clause containing a positive total literal admits everything.
	for _, lit := range a {
		if !lit.Neg && lit.F.Total() {
			return true
		}
	}
	// An unsatisfiable conjunction is the empty set, included in anything.
	if conjUnsatisfiable(x) {
		return true
	}
	for _, lit := range a {
		for _, xLit := range x {
			if literalIncludes(lit, xLit) {
				return true
			}
		}
	}
	return false
}

// includesMaterialised is Includes over the materialised clause product.
func includesMaterialised(a, b Expr) (bool, error) {
	if a == nil {
		return true, nil
	}
	cnfA, err := materialisedCNF(a)
	if err != nil {
		return false, err
	}
	dnfB, err := ToDNF(b)
	if err != nil {
		return false, err
	}
	for _, clauseA := range cnfA {
		for _, clauseB := range dnfB {
			if !disjClauseIncludesConj(clauseA, clauseB) {
				return false, nil
			}
		}
	}
	return true, nil
}
