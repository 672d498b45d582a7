package core

// Expr is a filter expression: the AND/OR/NOT composition of singleton
// filters from the permission-language grammar (Appendix A). A nil Expr
// denotes the unrestricted permission (every call passes).
type Expr interface {
	// Eval labels a call. Filters whose attribute dimension is absent from
	// the call pass it through (vacuous truth), including under negation.
	Eval(call *Call) bool
	// String renders the expression in permission-language syntax.
	String() string

	isExpr()
}

// Leaf wraps one singleton filter.
type Leaf struct {
	F Filter
}

// NewLeaf wraps a filter into an expression.
func NewLeaf(f Filter) *Leaf { return &Leaf{F: f} }

func (*Leaf) isExpr() {}

// Eval implements Expr.
func (l *Leaf) Eval(call *Call) bool { return evalExpr(l, call, false) }

// String implements Expr.
func (l *Leaf) String() string { return l.F.String() }

// And is the conjunction of two filter expressions.
type And struct {
	L, R Expr
}

func (*And) isExpr() {}

// Eval implements Expr.
func (a *And) Eval(call *Call) bool { return evalExpr(a, call, false) }

// String implements Expr.
func (a *And) String() string { return string(AppendExpr(nil, a)) }

// Or is the disjunction of two filter expressions.
type Or struct {
	L, R Expr
}

func (*Or) isExpr() {}

// Eval implements Expr.
func (o *Or) Eval(call *Call) bool { return evalExpr(o, call, false) }

// String implements Expr.
func (o *Or) String() string { return string(AppendExpr(nil, o)) }

// Not is the negation of a filter expression.
type Not struct {
	X Expr
}

func (*Not) isExpr() {}

// Eval implements Expr.
func (n *Not) Eval(call *Call) bool { return evalExpr(n, call, false) }

// String implements Expr.
func (n *Not) String() string { return string(AppendExpr(nil, n)) }

// MacroRef is an unresolved permission-filter stub (§V-A "permission
// customization"): a named placeholder like AdminRange the administrator
// binds via a LET statement before deployment. A manifest containing
// unresolved macros cannot be enforced: MacroRef evaluates to false
// (deny) and normalization rejects it, so reconciliation must substitute
// every stub first.
type MacroRef struct {
	Name string
}

func (*MacroRef) isExpr() {}

// Eval implements Expr; an unresolved stub denies.
func (m *MacroRef) Eval(*Call) bool { return false }

// String implements Expr.
func (m *MacroRef) String() string { return m.Name }

// ContainsMacro reports whether the expression still carries unresolved
// macro stubs.
func ContainsMacro(e Expr) bool {
	switch v := e.(type) {
	case *MacroRef:
		return true
	case *Not:
		return ContainsMacro(v.X)
	case *And:
		return ContainsMacro(v.L) || ContainsMacro(v.R)
	case *Or:
		return ContainsMacro(v.L) || ContainsMacro(v.R)
	default:
		return false
	}
}

// SubstituteMacros replaces every macro stub using the bindings map; the
// second result lists stubs with no binding (left in place). Subtrees
// without a bound stub are returned as they are, not copied: expressions
// are immutable, and a reconciled set then shares the manifest's nodes.
func SubstituteMacros(e Expr, bindings map[string]Expr) (Expr, []string) {
	switch v := e.(type) {
	case nil:
		return nil, nil
	case *MacroRef:
		if repl, ok := bindings[v.Name]; ok {
			return repl, nil
		}
		return v, []string{v.Name}
	case *Leaf:
		return v, nil
	case *Not:
		x, missing := SubstituteMacros(v.X, bindings)
		if x == v.X {
			return v, missing
		}
		return &Not{X: x}, missing
	case *And:
		l, m1 := SubstituteMacros(v.L, bindings)
		r, m2 := SubstituteMacros(v.R, bindings)
		if l == v.L && r == v.R {
			return v, append(m1, m2...)
		}
		return &And{L: l, R: r}, append(m1, m2...)
	case *Or:
		l, m1 := SubstituteMacros(v.L, bindings)
		r, m2 := SubstituteMacros(v.R, bindings)
		if l == v.L && r == v.R {
			return v, append(m1, m2...)
		}
		return &Or{L: l, R: r}, append(m1, m2...)
	default:
		return e, nil
	}
}

// evalExpr evaluates with negation pushed to the leaves, so that a filter
// inapplicable to the call stays vacuously true whether or not it appears
// under a NOT.
func evalExpr(e Expr, call *Call, neg bool) bool {
	switch v := e.(type) {
	case *Leaf:
		matched, applicable := v.F.Test(call)
		if !applicable {
			return true
		}
		if neg {
			return !matched
		}
		return matched
	case *Not:
		return evalExpr(v.X, call, !neg)
	case *And:
		if neg { // ¬(L ∧ R) = ¬L ∨ ¬R
			return evalExpr(v.L, call, true) || evalExpr(v.R, call, true)
		}
		return evalExpr(v.L, call, false) && evalExpr(v.R, call, false)
	case *Or:
		if neg { // ¬(L ∨ R) = ¬L ∧ ¬R
			return evalExpr(v.L, call, true) && evalExpr(v.R, call, true)
		}
		return evalExpr(v.L, call, false) || evalExpr(v.R, call, false)
	default:
		return false
	}
}

// AndAll folds a slice of expressions into a conjunction. nil elements
// (unrestricted) are dropped; an empty result is nil (unrestricted).
func AndAll(exprs ...Expr) Expr {
	var acc Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if acc == nil {
			acc = e
		} else {
			acc = &And{L: acc, R: e}
		}
	}
	return acc
}

// OrAll folds a slice of expressions into a disjunction. A nil element
// (unrestricted) absorbs the whole disjunction into nil.
func OrAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return nil
	}
	var acc Expr
	for i, e := range exprs {
		if e == nil {
			return nil
		}
		if i == 0 {
			acc = e
		} else {
			acc = &Or{L: acc, R: e}
		}
	}
	return acc
}

// ExprEqual reports structural equality of two expressions (nil == nil).
func ExprEqual(a, b Expr) bool {
	switch va := a.(type) {
	case nil:
		return b == nil
	case *Leaf:
		vb, ok := b.(*Leaf)
		return ok && va.F.Equal(vb.F)
	case *MacroRef:
		vb, ok := b.(*MacroRef)
		return ok && va.Name == vb.Name
	case *Not:
		vb, ok := b.(*Not)
		return ok && ExprEqual(va.X, vb.X)
	case *And:
		vb, ok := b.(*And)
		return ok && ExprEqual(va.L, vb.L) && ExprEqual(va.R, vb.R)
	case *Or:
		vb, ok := b.(*Or)
		return ok && ExprEqual(va.L, vb.L) && ExprEqual(va.R, vb.R)
	default:
		return false
	}
}

// ExprString renders an expression, mapping nil to "*" (unrestricted).
func ExprString(e Expr) string { return string(AppendExpr(nil, e)) }

// AppendExpr appends the permission-language rendering of e to dst and
// returns the extended buffer; nil renders as "*" (unrestricted). Every
// String of an expression, a permission or a set is a wrapper over it, so
// a whole manifest renders into one growing buffer.
func AppendExpr(dst []byte, e Expr) []byte {
	switch v := e.(type) {
	case nil:
		return append(dst, '*')
	case *Leaf:
		if p, ok := v.F.(*PredFilter); ok {
			return p.appendText(dst)
		}
		return append(dst, v.F.String()...)
	case *MacroRef:
		return append(dst, v.Name...)
	case *Not:
		return AppendExpr(append(dst, "NOT "...), v.X)
	case *And:
		return appendBinary(dst, v.L, " AND ", v.R)
	case *Or:
		return appendBinary(dst, v.L, " OR ", v.R)
	}
	return dst
}

func appendBinary(dst []byte, l Expr, op string, r Expr) []byte {
	dst = AppendExpr(append(dst, '('), l)
	dst = AppendExpr(append(dst, op...), r)
	return append(dst, ')')
}
