package core

import "errors"

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
	var stack walkStack
	return stack.toCNF(e)
}

// toCNF emits the CNF of e through the walk Includes streams its right
// operand with. By De Morgan it is the DNF of ¬e with every literal
// negated, so the walk runs over ¬e and prunes nothing; dnfSize bounds
// its clauses and returns the errors of building them.
func (s *walkStack) toCNF(e Expr) ([]Clause, error) {
	if e == nil {
		return nil, nil
	}
	n, err := dnfSize(e, true)
	if err != nil {
		return nil, err
	}
	cnf := make([]Clause, 0, n)
	w := dnfWalk{cnf: &cnf}
	w.walk(e, true, s.prefix[:0], s.rest[:0])
	return cnf, nil
}
