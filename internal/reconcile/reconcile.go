// Package reconcile implements SDNShield's security-policy reconciliation
// engine (§V-B): it expands administrator-supplied macro bindings into
// requested permission manifests, verifies every policy constraint
// (mutual exclusion and permission boundaries), and — on violation —
// produces repaired permissions for the administrator's review, by
// truncating mutually-exclusive grants and intersecting boundary
// overruns with their boundary.
package reconcile

import (
	"errors"
	"fmt"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/permlang"
	"sdnshield/internal/policylang"
)

// ViolationKind classifies constraint violations.
type ViolationKind int

// Violation kinds.
const (
	// ViolationMutualExclusion reports both sides of an EITHER/OR held.
	ViolationMutualExclusion ViolationKind = iota + 1
	// ViolationBoundary reports a failed permission-boundary assertion.
	ViolationBoundary
	// ViolationUnresolvedMacro reports a stub with no LET binding.
	ViolationUnresolvedMacro
	// ViolationUnknownReference reports an unbound variable or app.
	ViolationUnknownReference
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationMutualExclusion:
		return "mutual-exclusion"
	case ViolationBoundary:
		return "permission-boundary"
	case ViolationUnresolvedMacro:
		return "unresolved-macro"
	case ViolationUnknownReference:
		return "unknown-reference"
	default:
		return fmt.Sprintf("violation(%d)", int(k))
	}
}

// Violation describes one detected policy violation and the repair the
// engine applied (empty when no automatic repair exists).
type Violation struct {
	Kind       ViolationKind
	Constraint string
	Detail     string
	Repair     string
}

// String renders the violation for administrator alerts.
func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s: %s", v.Kind, v.Constraint, v.Detail)
	if v.Repair != "" {
		s += " (repaired: " + v.Repair + ")"
	}
	return s
}

// Result is the outcome of reconciling one app's manifest against a
// policy.
type Result struct {
	// App is the app under reconciliation.
	App string
	// Requested is the manifest's permission set after macro expansion but
	// before any repair.
	Requested *core.Set
	// Reconciled is the final permission set offered to the administrator.
	Reconciled *core.Set
	// Violations lists every detected violation in evaluation order.
	Violations []Violation
	// Clean reports whether the manifest satisfied the policy outright.
	Clean bool
}

// Engine reconciles permission manifests against security policies. It
// holds a registry of already-approved app permissions so that policies
// can reference them with APP bindings.
type Engine struct {
	apps map[string]*core.Set
}

// New builds a reconciliation engine.
func New() *Engine {
	return &Engine{apps: make(map[string]*core.Set)}
}

// RegisterApp records an app's (already reconciled) permissions so that
// policies can reference them via APP name.
func (e *Engine) RegisterApp(name string, set *core.Set) {
	e.apps[name] = set.Clone()
}

// errUnknownRef marks resolution failures inside permission expressions.
type unknownRefError struct {
	what string
}

func (err *unknownRefError) Error() string { return "unknown reference " + err.what }

// env is the evaluation environment of one reconciliation run.
type env struct {
	engine  *Engine
	app     string
	working *core.Set
	// macroFilters maps LET-bound filter macros.
	macroFilters map[string]core.Expr
	// permVars maps LET-bound permission expressions (lazily resolved).
	permVars map[string]policylang.PermExpr
	// resolving guards against circular LET references.
	resolving map[string]bool
}

// resolvePerm evaluates a permission expression to a concrete set.
// refersToApp reports whether the expression denotes the app under
// reconciliation (so boundary repairs know what to intersect).
func (ev *env) resolvePerm(pe policylang.PermExpr) (set *core.Set, refersToApp bool, err error) {
	switch v := pe.(type) {
	case *policylang.PermLit:
		return ev.expandSet(v.Set), false, nil
	case *policylang.PermApp:
		if v.AppName == ev.app {
			return ev.working, true, nil
		}
		if s, ok := ev.engine.apps[v.AppName]; ok {
			return s, false, nil
		}
		return nil, false, &unknownRefError{what: "APP " + v.AppName}
	case *policylang.PermVar:
		if bound, ok := ev.permVars[v.Name]; ok {
			if ev.resolving[v.Name] {
				return nil, false, &unknownRefError{what: "circular binding " + v.Name}
			}
			ev.resolving[v.Name] = true
			defer delete(ev.resolving, v.Name)
			return ev.resolvePerm(bound)
		}
		// An unbound variable naming the app under reconciliation denotes
		// its manifest (the paper's monitorAppPerm idiom resolves this way
		// when no explicit APP binding is given).
		if v.Name == ev.app {
			return ev.working, true, nil
		}
		return nil, false, &unknownRefError{what: "variable " + v.Name}
	case *policylang.PermMeet:
		l, la, err := ev.resolvePerm(v.L)
		if err != nil {
			return nil, false, err
		}
		r, ra, err := ev.resolvePerm(v.R)
		if err != nil {
			return nil, false, err
		}
		return l.Meet(r), la || ra, nil
	case *policylang.PermJoin:
		l, la, err := ev.resolvePerm(v.L)
		if err != nil {
			return nil, false, err
		}
		r, ra, err := ev.resolvePerm(v.R)
		if err != nil {
			return nil, false, err
		}
		return l.Join(r), la || ra, nil
	default:
		return nil, false, fmt.Errorf("reconcile: unknown permission expression %T", pe)
	}
}

// expandSet substitutes filter macros inside a literal permission set.
func (ev *env) expandSet(s *core.Set) *core.Set {
	out := core.NewSet()
	for _, p := range s.Permissions() {
		expr, _ := core.SubstituteMacros(p.Filter, ev.macroFilters)
		out.Grant(p.Token, expr)
	}
	return out
}

// Reconcile expands, verifies and repairs one app manifest against the
// policy. It never returns an error for policy violations — those are
// reported in the Result — only for malformed inputs.
func (e *Engine) Reconcile(appName string, manifest *permlang.Manifest, policy *policylang.Policy) (*Result, error) {
	if manifest == nil {
		return nil, errors.New("reconcile: nil manifest")
	}
	ev := &env{
		engine:       e,
		app:          appName,
		macroFilters: make(map[string]core.Expr),
		permVars:     make(map[string]policylang.PermExpr),
		resolving:    make(map[string]bool),
	}
	if policy != nil {
		for _, let := range policy.Bindings() {
			if let.Filter != nil {
				ev.macroFilters[let.Name] = let.Filter
			} else {
				ev.permVars[let.Name] = let.Perm
			}
		}
	}

	result := &Result{App: appName}

	// Step 1: macro preprocessing (§V-B "permission customization").
	working := core.NewSet()
	for _, p := range manifest.Permissions {
		expr, missing := core.SubstituteMacros(p.Filter, ev.macroFilters)
		for _, name := range missing {
			result.Violations = append(result.Violations, Violation{
				Kind:       ViolationUnresolvedMacro,
				Constraint: p.String(),
				Detail:     fmt.Sprintf("macro %q has no LET binding; the permission will deny at runtime", name),
			})
		}
		working.Grant(p.Token, expr)
	}
	result.Requested = working.Clone()
	ev.working = working

	// Step 2: evaluate constraints in order, repairing as we go so later
	// constraints see earlier repairs (matching the paper's sequential
	// reconciliation).
	if policy != nil {
		for _, stmt := range policy.Constraints() {
			switch c := stmt.(type) {
			case *policylang.AssertExclusive:
				e.checkExclusive(ev, c, result)
			case *policylang.AssertBool:
				e.checkBool(ev, c, result)
			}
		}
	}

	result.Reconciled = ev.working
	result.Clean = len(result.Violations) == 0
	auditReconcile(result)
	return result, nil
}

// auditReconcile records a reconciliation verdict in the forensic journal.
func auditReconcile(result *Result) {
	if !audit.On() {
		return
	}
	ev := audit.Event{
		Kind:    audit.KindReconcile,
		Verdict: audit.VerdictClean,
		App:     result.App,
	}
	if !result.Clean {
		ev.Verdict = audit.VerdictViolation
		ev.Detail = fmt.Sprintf("%d violations; first: %s",
			len(result.Violations), result.Violations[0].String())
	}
	audit.Emit(ev)
}

// checkExclusive enforces one mutual-exclusion constraint against the
// working set, truncating on violation.
func (e *Engine) checkExclusive(ev *env, c *policylang.AssertExclusive, result *Result) {
	aSet, _, errA := ev.resolvePerm(c.A)
	bSet, _, errB := ev.resolvePerm(c.B)
	if errA != nil || errB != nil {
		err := errA
		if err == nil {
			err = errB
		}
		result.Violations = append(result.Violations, Violation{
			Kind: ViolationUnknownReference, Constraint: c.String(), Detail: err.Error(),
		})
		return
	}
	heldA := heldTokens(ev.working, aSet)
	heldB := heldTokens(ev.working, bSet)
	if len(heldA) == 0 || len(heldB) == 0 {
		return
	}
	// Violated: the app holds permissions from both sides. Truncate the
	// second, as the paper's Scenario 1 cuts insert_flow.
	for _, t := range heldB {
		ev.working.Revoke(t)
	}
	result.Violations = append(result.Violations, Violation{
		Kind:       ViolationMutualExclusion,
		Constraint: c.String(),
		Detail: fmt.Sprintf("app holds %s and %s simultaneously",
			tokenList(heldA), tokenList(heldB)),
		Repair: "revoked " + tokenList(heldB),
	})
}

// checkBool evaluates one boundary assertion, repairing the canonical
// "app <= boundary" shape by intersection.
func (e *Engine) checkBool(ev *env, c *policylang.AssertBool, result *Result) {
	ok, repair, err := e.evalBool(ev, c.Expr)
	if err != nil {
		result.Violations = append(result.Violations, Violation{
			Kind: ViolationUnknownReference, Constraint: c.String(), Detail: err.Error(),
		})
		return
	}
	if ok {
		return
	}
	v := Violation{
		Kind:       ViolationBoundary,
		Constraint: c.String(),
		Detail:     "requested permissions exceed the asserted boundary",
	}
	if repair != nil {
		ev.working = ev.working.Meet(repair)
		v.Repair = "intersected requested permissions with the boundary"
	}
	result.Violations = append(result.Violations, v)
}

// evalBool evaluates a boolean assertion. When the assertion is a plain
// violated boundary of the app under reconciliation (app <= B or B >=
// app), it returns the boundary set as the suggested repair.
func (e *Engine) evalBool(ev *env, be policylang.BoolExpr) (ok bool, repair *core.Set, err error) {
	switch v := be.(type) {
	case *policylang.CmpExpr:
		return e.evalCmp(ev, v)
	case *policylang.BoolAnd:
		lOK, lRep, err := e.evalBool(ev, v.L)
		if err != nil {
			return false, nil, err
		}
		rOK, rRep, err := e.evalBool(ev, v.R)
		if err != nil {
			return false, nil, err
		}
		// Repair is only offered when exactly one conjunct is a repairable
		// boundary failure.
		switch {
		case lOK && rOK:
			return true, nil, nil
		case lOK && !rOK:
			return false, rRep, nil
		case !lOK && rOK:
			return false, lRep, nil
		default:
			return false, nil, nil
		}
	case *policylang.BoolOr:
		lOK, _, err := e.evalBool(ev, v.L)
		if err != nil {
			return false, nil, err
		}
		rOK, _, err := e.evalBool(ev, v.R)
		if err != nil {
			return false, nil, err
		}
		return lOK || rOK, nil, nil
	case *policylang.BoolNot:
		ok, _, err := e.evalBool(ev, v.X)
		if err != nil {
			return false, nil, err
		}
		return !ok, nil, nil
	default:
		return false, nil, fmt.Errorf("reconcile: unknown assertion %T", be)
	}
}

func (e *Engine) evalCmp(ev *env, c *policylang.CmpExpr) (bool, *core.Set, error) {
	lSet, lApp, err := ev.resolvePerm(c.L)
	if err != nil {
		return false, nil, err
	}
	rSet, rApp, err := ev.resolvePerm(c.R)
	if err != nil {
		return false, nil, err
	}
	le := func() (bool, error) { return rSet.Includes(lSet) } // L <= R
	ge := func() (bool, error) { return lSet.Includes(rSet) } // L >= R

	switch c.Op {
	case policylang.CmpLe:
		ok, err := le()
		if err != nil {
			return false, nil, err
		}
		if !ok && lApp && !rApp {
			return false, rSet, nil // repair: app MEET boundary
		}
		return ok, nil, nil
	case policylang.CmpGe:
		ok, err := ge()
		if err != nil {
			return false, nil, err
		}
		if !ok && rApp && !lApp {
			return false, lSet, nil
		}
		return ok, nil, nil
	case policylang.CmpLt:
		lr, err := le()
		if err != nil {
			return false, nil, err
		}
		rl, err := ge()
		if err != nil {
			return false, nil, err
		}
		if !lr && lApp && !rApp {
			return false, rSet, nil
		}
		return lr && !rl, nil, nil
	case policylang.CmpGt:
		lr, err := le()
		if err != nil {
			return false, nil, err
		}
		rl, err := ge()
		if err != nil {
			return false, nil, err
		}
		if !rl && rApp && !lApp {
			return false, lSet, nil
		}
		return rl && !lr, nil, nil
	case policylang.CmpEq:
		eq, err := lSet.Equal(rSet)
		if err != nil {
			return false, nil, err
		}
		return eq, nil, nil
	default:
		return false, nil, fmt.Errorf("reconcile: unknown comparison %v", c.Op)
	}
}

// heldTokens returns the tokens of ref that the working set also holds.
func heldTokens(working, ref *core.Set) []core.Token {
	var out []core.Token
	for _, t := range ref.Tokens() {
		if working.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

func tokenList(tokens []core.Token) string {
	s := ""
	for i, t := range tokens {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s
}
