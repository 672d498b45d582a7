// Package permengine implements SDNShield's runtime permission engine
// (§VI-B): it compiles permission sets into per-token checking closures,
// resolves the stateful attributes of each mediated API call (flow
// ownership, per-app rule counts), enforces the checks and records every
// decision in the audit journal — the forensic activity log of §VII. The
// transactional API-call facility (§VI-B2) is isolation.Tx, whose
// prechecks are these checks.
package permengine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// DeniedError reports a permission-denied API call. Apps are expected to
// match it (errors.As) and degrade gracefully rather than crash (§III).
type DeniedError struct {
	App    string
	Token  core.Token
	Detail string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("permission denied: app %q lacks %s (%s)", e.App, e.Token, e.Detail)
}

// StateProvider supplies the permission engine with the controller state
// that stateful filters inspect: who owns a flow and how many rules an
// app holds on a switch. The controller kernel's shadow flow tables
// implement it.
type StateProvider interface {
	// FlowOwner resolves the owner of the rule a call names, and
	// ForeignFlowOwner the owner of another app's rule that an insert by
	// app would shadow; ok is false when there is no such rule.
	FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (owner string, ok bool)
	ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (owner string, ok bool)
	// RuleCountBesides returns how many rules the app holds on the switch
	// besides its own rule equal to (match, priority), if it has one: the
	// rules that stay beside an insert of that rule, which replaces it in
	// place.
	RuleCountBesides(app string, dpid of.DPID, match *of.Match, priority uint16) int
}

// nopState is used when no state provider is configured (pure
// micro-benchmarks of the checking path).
type nopState struct{}

func (nopState) FlowOwner(of.DPID, *of.Match, uint16) (string, bool)                { return "", false }
func (nopState) ForeignFlowOwner(string, of.DPID, *of.Match, uint16) (string, bool) { return "", false }
func (nopState) RuleCountBesides(string, of.DPID, *of.Match, uint16) int            { return 0 }

// stateReads is a set of the stateful attributes the engine resolves from
// its StateProvider.
type stateReads uint8

const (
	readsOwner stateReads = 1 << iota // Call.FlowOwner
	readsCount                        // Call.RuleCount
)

// checker is one compiled filter expression. Its second argument is nil
// on every path but Explain's, which passes the list to record each leaf
// into; recording also turns off short-circuiting, so that every leaf of
// the expression reports.
type checker func(*core.Call, *[]LeafExplain) bool

// grant is everything the engine holds for one granted token: the
// ordered clause list every decision walks, the stateful values its
// leaves read and, once a sampled walk has reached it, the heat slab it
// counts into (heat.go). Activation builds the checking program and
// nothing else: a clause's text and dimensions are rendered from its
// source when Explain or /heat asks for them.
type grant struct {
	// checks[i] evaluates clauses[i]; a slice of their own so the walk
	// reads them densely (hosted_churn p50 +2–3 % otherwise, CHANGES.md).
	checks  []checker
	clauses []core.Expr           // the source of each clause
	allows  func(*core.Call) bool // walk without a probe, bound once
	heat    atomic.Pointer[heatSlab]

	// reads holds the stateful values some leaf reads: the owner for an
	// OWN_FLOWS leaf under either polarity, the rule count for a
	// MAX_RULE_COUNT leaf. ALL_FLOWS reads only that an owner is present.
	reads stateReads
}

// Grant is what one activation installs for an app (§VI: the reconciled
// grant of one release): its permission set, its resource budget (the
// manifest's BUDGET statements, which the isolation layer enforces as
// soft quotas) and its reconciliation provenance (the repair notes
// Explain names a denial's deciding term against). It is installed
// whole: Activate replaces every part of the app's previous grant.
type Grant struct {
	Set        *core.Set
	Budget     core.Budget
	Provenance []string
}

// compiled is an app's active Grant with its permission set lowered into
// one grant per token. The compilation happens once at app load time
// (§III: "the permission engine compiles the permission manifest into
// the runtime checking code"), so the per-call hot path is a map lookup
// and the clause walk: one checker call per clause, where an AND/OR
// chain is one n-ary checker looping over its terms and each leaf a
// closure over its filter.
type compiled struct {
	Grant
	grants map[core.Token]*grant
}

// newGrant lowers one token's filter. The clause list is gathered on the
// stack and copied out at its length; the chains of every clause share
// one scratch stack.
func newGrant(filter core.Expr) *grant {
	var clauses [8]core.Expr
	var scratch [32]checker
	g := &grant{clauses: slices.Clone(conjuncts(filter, clauses[:0]))}
	g.checks = make([]checker, len(g.clauses))
	chains := scratch[:0]
	for i, c := range g.clauses {
		g.checks[i] = compile(c, false, &g.reads, &chains)
	}
	g.allows = func(call *core.Call) bool { return g.walk(call, nil) }
	return g
}

// conjuncts appends a top-level AND chain's clauses to out, preserving
// left-to-right evaluation order. Non-AND roots (Or, Not, Leaf,
// MacroRef, nil) are a single clause.
func conjuncts(e core.Expr, out []core.Expr) []core.Expr {
	if a, ok := e.(*core.And); ok {
		return conjuncts(a.R, conjuncts(a.L, out))
	}
	return append(out, e)
}

// clauseText renders a clause for Explain and /heat: its source
// expression and the sorted, distinct dimensions of its leaves.
func clauseText(c core.Expr) (expr string, dims []string) {
	dims = appendDims([]string{}, c)
	sort.Strings(dims)
	return core.ExprString(c), slices.Compact(dims)
}

// appendDims appends the dimension of every leaf of e ("macro" for an
// unresolved stub).
func appendDims(dims []string, e core.Expr) []string {
	switch v := e.(type) {
	case *core.Leaf:
		return append(dims, v.F.Dimension())
	case *core.MacroRef:
		return append(dims, "macro")
	case *core.Not:
		return appendDims(dims, v.X)
	case *core.And:
		return appendDims(appendDims(dims, v.L), v.R)
	case *core.Or:
		return appendDims(appendDims(dims, v.L), v.R)
	}
	return dims
}

// walk evaluates the clause list left to right and stops at the first
// failing clause. It is the only place a compiled clause is called: the
// hot path, a heat sample, Explain and row filtering differ in the probe
// they pass, not in what they evaluate. A probe hears of every clause,
// the ones a failure skipped included.
func (g *grant) walk(call *core.Call, p *probe) bool {
	var rec *[]LeafExplain
	if p.explaining() {
		rec = &p.leaves
	}
	for i, check := range g.checks {
		var start time.Time
		if p != nil {
			start = time.Now()
		}
		pass := check(call, rec)
		if p != nil {
			p.clause(g, i, true, pass, time.Since(start))
		}
		if !pass {
			for j := i + 1; p != nil && j < len(g.clauses); j++ {
				p.clause(g, j, false, false, 0)
			}
			return false
		}
	}
	return true
}

// CompileFilter lowers a filter expression into the predicate the live
// path runs — its clause list, walked without a probe — for ablation
// benchmarks comparing compiled checking against interpreted evaluation.
func CompileFilter(e core.Expr) func(*core.Call) bool { return newGrant(e).allows }

// compile lowers an expression into a closure with negation pushed to
// the leaves (mirroring core's evaluation semantics, including vacuous
// truth for inapplicable filters), adding to reads the stateful value it
// reads. chains is scratch space the lowering of AND/OR chains shares.
func compile(e core.Expr, neg bool, reads *stateReads, chains *[]checker) checker {
	switch v := e.(type) {
	case nil:
		return func(*core.Call, *[]LeafExplain) bool { return true }
	case *core.Leaf:
		f := v.F
		switch lf := f.(type) {
		case *core.OwnerFilter:
			if lf.OwnOnly() {
				*reads |= readsOwner
			}
		case *core.TableSizeFilter:
			*reads |= readsCount
		}
		return func(call *core.Call, rec *[]LeafExplain) bool {
			matched, applicable := f.Test(call)
			effective := !applicable || matched != neg
			if rec != nil {
				*rec = append(*rec, LeafExplain{
					Filter: f.String(), Dimension: f.Dimension(), Negated: neg,
					Applicable: applicable, Matched: matched, Effective: effective,
				})
			}
			return effective
		}
	case *core.Not:
		return compile(v.X, !neg, reads, chains)
	case *core.And, *core.Or:
		// One n-ary checker for the chain, of the kind negation pushdown
		// leaves (¬(L∧R) = ¬L ∨ ¬R, ¬(L∨R) = ¬L ∧ ¬R). Its terms are
		// gathered on the scratch stack and copied out at their length.
		_, isAnd := v.(*core.And)
		and, base := isAnd != neg, len(*chains)
		chainTerms(e, neg, and, reads, chains)
		terms := slices.Clone((*chains)[base:])
		*chains = (*chains)[:base]
		return nary(and, terms)
	case *core.MacroRef:
		// Unresolved stubs deny.
		name := v.Name
		return func(_ *core.Call, rec *[]LeafExplain) bool {
			if rec != nil {
				*rec = append(*rec, LeafExplain{
					Filter: name, Dimension: "macro", Negated: neg, Applicable: true,
				})
			}
			return false
		}
	default:
		return func(*core.Call, *[]LeafExplain) bool { return false }
	}
}

// chainTerms pushes onto chains the lowered terms of the chain of kind
// and that e continues under the polarity neg: a Not flips the polarity,
// and an And or Or whose pushed-down kind is the chain's own splices its
// operands in; any other expression is one term.
func chainTerms(e core.Expr, neg, and bool, reads *stateReads, chains *[]checker) {
	switch v := e.(type) {
	case *core.Not:
		chainTerms(v.X, !neg, and, reads, chains)
		return
	case *core.And:
		if and != neg {
			chainTerms(v.L, neg, and, reads, chains)
			chainTerms(v.R, neg, and, reads, chains)
			return
		}
	case *core.Or:
		if and == neg {
			chainTerms(v.L, neg, and, reads, chains)
			chainTerms(v.R, neg, and, reads, chains)
			return
		}
	}
	t := compile(e, neg, reads, chains)
	*chains = append(*chains, t)
}

// nary joins a chain's terms with && (and) or ||, left to right and
// short-circuiting — except when recording, where every term is
// evaluated regardless so that its leaves report too.
func nary(and bool, terms []checker) checker {
	return func(call *core.Call, rec *[]LeafExplain) bool {
		result := and
		for _, t := range terms {
			if t(call, rec) != and {
				if rec == nil {
					return !and // false && …, true || …
				}
				result = !and
			}
		}
		return result
	}
}

// probe is the optional observer of one decision. The hot path and row
// filtering pass nil. A heat sample passes heatProbe: the walk counts and
// times each clause into the grant's slab. Explain passes a probe
// carrying the Explanation under construction: the walk records every
// clause and leaf into it, and decide leaves no other trace of the call.
type probe struct {
	ex     *Explanation  // Explain: the decision path being recorded
	leaves []LeafExplain // Explain: leaves of the clause being evaluated
	app    *compiled     // Explain: the app's grant the call was decided on
}

func (p *probe) explaining() bool { return p != nil && p.ex != nil }

// clause reports clause i of the walk to the probe's observer: evaluated
// with the given verdict and cost, or skipped because an earlier clause
// already failed.
func (p *probe) clause(g *grant, i int, evaluated, pass bool, took time.Duration) {
	if p.ex == nil {
		g.heatClause(i, evaluated, pass, took)
		return
	}
	p.ex.addClause(g.clauses[i], ClauseExplain{
		Evaluated: evaluated, Passed: pass, ShortCircuited: !evaluated, Leaves: p.leaves,
	})
	p.leaves = nil
}

// Engine enforces per-app permissions. Checks are stateless with respect
// to the engine (per the paper, which scales them out with parallelism);
// all mutability is confined to the app registry and counters.
type Engine struct {
	state StateProvider

	// apps maps an app's name to its *atomic.Pointer[compiled], which
	// Activate swaps: a check finds the app's grant without a lock, and
	// re-activating an app writes one pointer. wmu orders the writers,
	// so no slot is set while RemoveApp deletes it.
	wmu  sync.Mutex
	apps sync.Map

	// calls numbers the checks made outside a mediated call (Check), for
	// their sampling decision: one count per P's stripe (obs.Stripe), so
	// parallel checkers share no cache line, and each stripe samples one
	// in N of its own checks.
	calls     [checkStripes]padCount
	apiPanics atomic.Uint64

	// Heat-profile denial counters for calls that never reach a compiled
	// token (heat.go).
	heatNoManifest atomic.Uint64
	heatUngranted  atomic.Uint64

	// denialRing retains recent denied calls for /explain?corr= forensics
	// (explain.go).
	denialRing denialRing
}

// New builds an engine. state may be nil for stateless micro-benchmarks.
func New(state StateProvider) *Engine {
	if state == nil {
		state = nopState{}
	}
	return &Engine{state: state}
}

// Activate installs (or replaces) an app's whole grant in one write,
// compiling its set to checking code: each filter expression is lowered
// once, outside the lock. A reader sees the previous grant or this one,
// never parts of both. Neither the set nor the provenance may be mutated
// afterwards. The write is the app's alone: its cost does not grow with
// the number of apps.
func (e *Engine) Activate(app string, g Grant) {
	c := &compiled{Grant: g, grants: make(map[core.Token]*grant, g.Set.Len())}
	for _, p := range g.Set.Permissions() {
		c.grants[p.Token] = newGrant(p.Filter)
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if slot, ok := e.apps.Load(app); ok {
		slot.(*atomic.Pointer[compiled]).Store(c)
		return
	}
	slot := new(atomic.Pointer[compiled])
	slot.Store(c)
	e.apps.Store(app, slot)
}

// SetPermissions activates a grant of the set alone: no budget, no
// provenance.
func (e *Engine) SetPermissions(app string, set *core.Set) {
	e.Activate(app, Grant{Set: set})
}

// RemoveApp drops an app's grant entirely.
func (e *Engine) RemoveApp(app string) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.apps.Delete(app)
}

// compiledFor returns the app's active grant, nil if it has none.
func (e *Engine) compiledFor(app string) *compiled {
	if slot, ok := e.apps.Load(app); ok {
		return slot.(*atomic.Pointer[compiled]).Load()
	}
	return nil
}

// Permissions returns the app's current permission set.
func (e *Engine) Permissions(app string) (*core.Set, bool) {
	if c := e.compiledFor(app); c != nil {
		return c.Set, true
	}
	return nil, false
}

// Budget returns the budget of the app's active grant, zero when it has
// none.
func (e *Engine) Budget(app string) core.Budget {
	if c := e.compiledFor(app); c != nil {
		return c.Budget
	}
	return core.Budget{}
}

// HasToken reports whether the app holds the token in any form — the
// §III utility apps use to probe before calling, and the hook for
// loading-time access control (§VIII: OSGi-style checks when an app is
// wired to a service it has no token for at all).
func (e *Engine) HasToken(app string, token core.Token) bool {
	c := e.compiledFor(app)
	return c != nil && c.Set.Has(token)
}

// unresolved names the stateful attributes of a call that the engine
// resolves, each unless the caller pinned it. An insert_flow call is
// checked on the owner of a foreign rule it could shadow and on the
// caller's rule count; a modify, delete or read names one rule, so it is
// checked on that rule's owner.
func unresolved(call *core.Call) (open stateReads) {
	if !call.HasDPID || call.Match == nil {
		return 0
	}
	switch call.Token {
	case core.TokenInsertFlow:
		if !call.HasRuleCount {
			open = readsCount
		}
		fallthrough
	case core.TokenModifyFlow, core.TokenDeleteFlow, core.TokenReadFlowTable:
		if !call.HasFlowOwner {
			open |= readsOwner
		}
	}
	return open
}

// resolve marks every attribute in open resolved, looking up from the
// state provider the ones in read, a subset of open. An attribute no
// leaf reads keeps its zero value but is present, so each filter is as
// applicable as it would be had it been looked up (NOT ALL_FLOWS rejects
// either way). The count of an insert leaves out the caller's own rule
// it would replace. A call with nothing open is not written to: callers
// may share a pinned call across goroutines.
func (e *Engine) resolve(call *core.Call, open, read stateReads) {
	if read&readsOwner != 0 {
		if call.Token == core.TokenInsertFlow {
			call.FlowOwner, _ = e.state.ForeignFlowOwner(call.App, call.DPID, call.Match, call.Priority)
		} else {
			call.FlowOwner, _ = e.state.FlowOwner(call.DPID, call.Match, call.Priority)
		}
	}
	if read&readsCount != 0 {
		call.RuleCount = e.state.RuleCountBesides(call.App, call.DPID, call.Match, call.Priority)
	}
	if open&readsOwner != 0 {
		call.HasFlowOwner = true
	}
	if open&readsCount != 0 {
		call.HasRuleCount = true
	}
}

// checkStripes is the number of Check's count stripes (Engine.calls).
const checkStripes = 8

// Check mediates one API call made outside a mediated call (probes,
// tests, offline tools): CheckSampled, numbered by the engine's count of
// such checks on the caller's stripe.
func (e *Engine) Check(call *core.Call) error {
	n := e.calls[obs.Stripe()&(checkStripes-1)].v.Add(1)
	return e.CheckSampled(call, obs.NewSample(n))
}

// CheckSampled mediates one API call under its call's sampling decision
// s: resolves the stateful attributes its grant reads, evaluates the
// app's compiled permission, journals the decision, and returns a
// *DeniedError on denial. Decision counters are exact; the check's
// latency is measured when s is, so the unsampled majority pays no clock
// reads, and one check in heatOneIn carries the heat probe.
func (e *Engine) CheckSampled(call *core.Call, s obs.Sample) error {
	var p *probe
	if heatWalks(s) {
		heatSampled.Add(1)
		p = &heatProbe
	}
	var start time.Time
	if s.Measured() != 0 {
		start = time.Now()
	}
	reason, detail := e.decide(call, p)
	if !start.IsZero() {
		mCheckSeconds.Observe(time.Since(start))
	}
	countCheck(call.Token, reason == ReasonAllowed)
	if reason != ReasonAllowed {
		return &DeniedError{App: call.App, Token: call.Token, Detail: detail}
	}
	return nil
}

// decide is the engine's one decision routine and the one place a call's
// stateful attributes are resolved. It finds the app's grant for the
// call's token, looks up the attributes the grant reads and walks the
// clause list; then, unless the probe is Explain's, it retains a denial
// for /explain?corr= and writes the audit journal. A denial and an
// Explain report the whole call, so they look up every attribute the
// caller left open, as if none were skipped. The reason is one of the
// Reason constants; detail is empty when the call is allowed.
func (e *Engine) decide(call *core.Call, p *probe) (reason, detail string) {
	c, g := e.grantFor(call.App, call.Token)
	reason = ReasonAllowed
	switch {
	case c == nil:
		reason, detail = ReasonNoManifest, "app has no permission manifest"
	case g == nil:
		reason, detail = ReasonTokenUngranted, "token not granted"
	default:
		open := unresolved(call)
		read := open & g.reads
		if p.explaining() {
			read = open
		}
		e.resolve(call, open, read)
		if !g.walk(call, p) {
			e.resolve(call, open, open&^read)
			reason, detail = ReasonFilterRejected, rejectedDetail(call)
		}
	}
	if p.explaining() {
		p.app = c
		return reason, detail
	}
	if p != nil {
		e.heatVerdict(g, reason)
	}
	allowed := reason == ReasonAllowed
	if !allowed {
		e.retainDenial(call)
	}
	auditDecision(call, allowed, detail)
	return reason, detail
}

// rejectedDetail is a filter denial's detail: the call as it rendered
// when denied, built in one buffer.
func rejectedDetail(call *core.Call) string {
	const prefix = "filter rejected call "
	var buf [256]byte
	return string(call.AppendTo(append(buf[:0], prefix...)))
}

// Filter returns the app's grant for one token as a pure predicate, for
// keeping the visible rows of a listing. It is taken once per listing and
// runs the same clause walk as Check with none of its effects: no
// resolution, no counters, no heat, no retained denial, no audit record.
// An app that does not hold the token sees nothing.
func (e *Engine) Filter(app string, token core.Token) func(*core.Call) bool {
	if _, g := e.grantFor(app, token); g != nil {
		return g.allows
	}
	return func(*core.Call) bool { return false }
}

// grantFor finds the app's compiled set and, in it, the grant for the
// token. Either is nil when missing.
func (e *Engine) grantFor(app string, token core.Token) (c *compiled, g *grant) {
	if c = e.compiledFor(app); c != nil {
		g = c.grants[token]
	}
	return c, g
}

// auditDecision forwards a permission decision into the forensic journal.
// Allowed calls carry no detail string so the hot path formats nothing;
// denials reuse the detail already built for the DeniedError.
func auditDecision(call *core.Call, allowed bool, detail string) {
	if !audit.On() {
		return
	}
	ev := audit.Event{
		Kind:    audit.KindPermission,
		Verdict: audit.VerdictAllow,
		App:     call.App,
		Corr:    call.Corr,
		Token:   call.Token.String(),
	}
	if !allowed {
		ev.Verdict = audit.VerdictDeny
		ev.Detail = detail
	}
	if call.HasDPID {
		ev.DPID = uint64(call.DPID)
	}
	audit.Emit(ev)
}

// CountAPIPanic records a panic absorbed inside a mediated API call — the
// audit trail of apps that crashed a deputy's closure rather than merely
// being denied.
func (e *Engine) CountAPIPanic() {
	e.apiPanics.Add(1)
	mAPIPanics.Inc()
}

// APIPanics reports how many mediated-call panics were absorbed.
func (e *Engine) APIPanics() uint64 { return e.apiPanics.Load() }
