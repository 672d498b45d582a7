package core

import (
	"errors"
	"fmt"
)

// Literal is a possibly-negated singleton filter — the atom of the CNF and
// DNF normal forms Algorithm 1 operates on.
type Literal struct {
	F   Filter
	Neg bool
}

// String renders the literal.
func (l Literal) String() string {
	if l.Neg {
		return "NOT " + l.F.String()
	}
	return l.F.String()
}

// Clause is a set of literals. In a CNF it is read as a disjunction; in a
// DNF as a conjunction.
type Clause []Literal

// ErrExprTooLarge reports that normalization exceeded the clause budget.
// Callers must treat the comparison conservatively (assume non-inclusion).
var ErrExprTooLarge = errors.New("core: normal form exceeds clause budget")

// maxClauses bounds CNF/DNF blow-up. Permission manifests carry tens of
// filters (the paper's "large" complexity is 15 tokens × 10–20 filters),
// far below this.
const maxClauses = 1 << 14

// ToCNF converts an expression into conjunctive normal form: a slice of
// disjunctive clauses. A nil expression yields an empty CNF (no
// constraint, always true).
func ToCNF(e Expr) ([]Clause, error) {
	if e == nil {
		return nil, nil
	}
	return normalToCNF(e, false)
}

// normalToCNF computes CNF of e (negated when neg), pushing negation to
// the leaves (NNF) on the way down.
func normalToCNF(e Expr, neg bool) ([]Clause, error) {
	switch v := e.(type) {
	case *Leaf:
		return []Clause{{Literal{F: v.F, Neg: neg}}}, nil
	case *MacroRef:
		return nil, fmt.Errorf("core: unresolved macro %q in expression", v.Name)
	case *Not:
		return normalToCNF(v.X, !neg)
	case *And:
		if neg { // ¬(L∧R) = ¬L ∨ ¬R
			return cnfOfOr(v.L, v.R, true)
		}
		l, err := normalToCNF(v.L, false)
		if err != nil {
			return nil, err
		}
		r, err := normalToCNF(v.R, false)
		if err != nil {
			return nil, err
		}
		return boundedConcat(l, r)
	case *Or:
		if neg { // ¬(L∨R) = ¬L ∧ ¬R
			l, err := normalToCNF(v.L, true)
			if err != nil {
				return nil, err
			}
			r, err := normalToCNF(v.R, true)
			if err != nil {
				return nil, err
			}
			return boundedConcat(l, r)
		}
		return cnfOfOr(v.L, v.R, false)
	default:
		return nil, fmt.Errorf("core: unknown expression type %T", e)
	}
}

// cnfOfOr distributes (L ∨ R) over the CNFs of the operands.
func cnfOfOr(left, right Expr, neg bool) ([]Clause, error) {
	l, err := normalToCNF(left, neg)
	if err != nil {
		return nil, err
	}
	r, err := normalToCNF(right, neg)
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
