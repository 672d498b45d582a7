// Package permengine implements SDNShield's runtime permission engine
// (§VI-B): it compiles permission sets into per-token checking closures,
// resolves the stateful attributes of each mediated API call (flow
// ownership, per-app rule counts), enforces the checks, keeps the
// forensic activity log mentioned in §VII, and provides the transactional
// API-call facility (§VI-B2).
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
	// RuleCount returns how many rules the app currently holds on the
	// switch.
	RuleCount(app string, dpid of.DPID) int
}

// nopState is used when no state provider is configured (pure
// micro-benchmarks of the checking path).
type nopState struct{}

func (nopState) FlowOwner(of.DPID, *of.Match, uint16) (string, bool)                { return "", false }
func (nopState) ForeignFlowOwner(string, of.DPID, *of.Match, uint16) (string, bool) { return "", false }
func (nopState) RuleCount(string, of.DPID) int                                      { return 0 }

// checker is one compiled filter expression. Its second argument is nil
// on every path but Explain's, which passes the list to record each leaf
// into; recording also turns off short-circuiting, so that every leaf of
// the expression reports.
type checker func(*core.Call, *[]LeafExplain) bool

// clause describes one top-level conjunct of a granted token's filter.
type clause struct {
	expr string
	dims []string
}

// grant is everything the engine holds for one granted token: the
// ordered clause list every decision walks and the heat slab a sampled
// walk counts into (heat.go).
type grant struct {
	// checks[i] evaluates clauses[i]; a slice of their own so the walk
	// reads them densely (hosted_churn p50 +2–3 % otherwise, CHANGES.md).
	checks  []checker
	clauses []clause
	allows  func(*core.Call) bool // walk without a probe, bound once
	allow   [heatShards]heatPad
	deny    [heatShards]heatPad
	cells   []atomic.Uint64 // heatShards × len(clauses) × heatCells, shard-major
}

// compiled is an app's permission set lowered into one grant per token.
// The compilation happens once at app load time (§III: "the permission
// engine compiles the permission manifest into the runtime checking
// code"), so the per-call hot path is a map lookup plus a closure call
// per clause.
type compiled struct {
	set    *core.Set
	grants map[core.Token]*grant
}

// newGrant lowers one token's filter.
func newGrant(filter core.Expr) *grant {
	cs := conjuncts(filter)
	g := &grant{clauses: make([]clause, 0, len(cs))}
	for _, c := range cs {
		dims := []string{}
		g.checks = append(g.checks, compile(c, false, &dims))
		sort.Strings(dims)
		g.clauses = append(g.clauses, clause{expr: core.ExprString(c), dims: slices.Compact(dims)})
	}
	g.cells = make([]atomic.Uint64, heatShards*len(g.clauses)*heatCells)
	g.allows = func(call *core.Call) bool { return g.walk(call, nil) }
	return g
}

// conjuncts flattens a top-level AND chain into its clause list,
// preserving left-to-right evaluation order. Non-AND roots (Or, Not,
// Leaf, MacroRef, nil) are a single clause.
func conjuncts(e core.Expr) []core.Expr {
	if a, ok := e.(*core.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []core.Expr{e}
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
// truth for inapplicable filters), appending to dims the dimension of
// every leaf it lowers.
func compile(e core.Expr, neg bool, dims *[]string) checker {
	switch v := e.(type) {
	case nil:
		return func(*core.Call, *[]LeafExplain) bool { return true }
	case *core.Leaf:
		f := v.F
		*dims = append(*dims, f.Dimension())
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
		return compile(v.X, !neg, dims)
	case *core.And: // ¬(L∧R) = ¬L ∨ ¬R
		return binary(!neg, compile(v.L, neg, dims), compile(v.R, neg, dims))
	case *core.Or: // ¬(L∨R) = ¬L ∧ ¬R
		return binary(neg, compile(v.L, neg, dims), compile(v.R, neg, dims))
	case *core.MacroRef:
		// Unresolved stubs deny.
		name := v.Name
		*dims = append(*dims, "macro")
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

// binary joins two checkers with && (and) or ||, left to right and
// short-circuiting — except when recording, where the right side is
// evaluated regardless so that its leaves report too.
func binary(and bool, l, r checker) checker {
	return func(call *core.Call, rec *[]LeafExplain) bool {
		lv := l(call, rec)
		if lv != and && rec == nil {
			return lv // false && _, true || _
		}
		rv := r(call, rec)
		if and {
			return lv && rv
		}
		return lv || rv
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
	p.ex.addClause(&g.clauses[i], ClauseExplain{
		Evaluated: evaluated, Passed: pass, ShortCircuited: !evaluated, Leaves: p.leaves,
	})
	p.leaves = nil
}

// Engine enforces per-app permissions. Checks are stateless with respect
// to the engine (per the paper, which scales them out with parallelism);
// all mutability is confined to the app registry and counters.
type Engine struct {
	state StateProvider

	mu   sync.RWMutex
	apps map[string]*compiled

	checks    atomic.Uint64
	denials   atomic.Uint64
	apiPanics atomic.Uint64

	// Heat-profile denial counters for calls that never reach a compiled
	// token (heat.go).
	heatNoManifest atomic.Uint64
	heatUngranted  atomic.Uint64

	// denialRing retains recent denied calls for /explain?corr= forensics
	// (explain.go).
	denialRing denialRing

	// provMu guards prov, the per-app reconciliation provenance notes
	// /explain cross-references (explain.go).
	provMu sync.Mutex
	prov   map[string][]string

	log *ActivityLog
}

// Option configures an Engine.
type Option func(*Engine)

// WithActivityLog installs a forensic activity log of the given capacity.
func WithActivityLog(capacity int) Option {
	return func(e *Engine) { e.log = NewActivityLog(capacity) }
}

// New builds an engine. state may be nil for stateless micro-benchmarks.
func New(state StateProvider, opts ...Option) *Engine {
	if state == nil {
		state = nopState{}
	}
	e := &Engine{state: state, apps: make(map[string]*compiled)}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// SetPermissions installs (or replaces) an app's permission set,
// compiling it to checking code: each filter expression is lowered once,
// outside the lock. The set must not be mutated afterwards.
func (e *Engine) SetPermissions(app string, set *core.Set) {
	c := &compiled{set: set, grants: make(map[core.Token]*grant, set.Len())}
	for _, p := range set.Permissions() {
		c.grants[p.Token] = newGrant(p.Filter)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.apps[app] = c
}

// RemoveApp drops an app's permissions (and any reconciliation
// provenance) entirely.
func (e *Engine) RemoveApp(app string) {
	e.mu.Lock()
	delete(e.apps, app)
	e.mu.Unlock()
	e.SetProvenance(app, nil)
}

// Permissions returns the app's current permission set.
func (e *Engine) Permissions(app string) (*core.Set, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.apps[app]
	if !ok {
		return nil, false
	}
	return c.set, true
}

// HasToken reports whether the app holds the token in any form — the
// §III utility apps use to probe before calling, and the hook for
// loading-time access control (§VIII: OSGi-style checks when an app is
// wired to a service it has no token for at all).
func (e *Engine) HasToken(app string, token core.Token) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.apps[app]
	return ok && c.set.Has(token)
}

// Resolve fills the stateful attributes of a call from the state
// provider; it is idempotent. An insert_flow call gets what the live
// insert is checked with: the owner of a foreign rule it could shadow and
// the caller's rule count. A modify, delete or read names one rule, so it
// gets that rule's owner.
func (e *Engine) Resolve(call *core.Call) {
	if !call.HasDPID || call.Match == nil {
		return
	}
	switch call.Token {
	case core.TokenInsertFlow:
		if !call.HasFlowOwner {
			call.FlowOwner, _ = e.state.ForeignFlowOwner(call.App, call.DPID, call.Match, call.Priority)
			call.HasFlowOwner = true
		}
		if !call.HasRuleCount {
			call.RuleCount, call.HasRuleCount = e.state.RuleCount(call.App, call.DPID), true
		}
	case core.TokenModifyFlow, core.TokenDeleteFlow, core.TokenReadFlowTable:
		if !call.HasFlowOwner {
			call.FlowOwner, _ = e.state.FlowOwner(call.DPID, call.Match, call.Priority)
			call.HasFlowOwner = true
		}
	}
}

// Check mediates one API call: resolves stateful attributes, evaluates
// the app's compiled permission, logs the decision, and returns a
// *DeniedError on denial. Decision counters are exact; check latency is
// sampled (obs.SetLatencySampling) so the unsampled majority of calls
// pays no clock reads, and one check in N (SetHeatSampling) carries the
// heat probe.
func (e *Engine) Check(call *core.Call) error {
	var p *probe
	if heatHit() {
		heatSampled.Add(1)
		p = &heatProbe
	}
	var t obs.Timer
	if checkSampler.Hit() {
		t = obs.StartTimer()
	}
	reason, detail := e.decide(call, p)
	mCheckSeconds.ObserveTimer(t)
	countCheck(call.Token, reason == ReasonAllowed)
	if reason != ReasonAllowed {
		return &DeniedError{App: call.App, Token: call.Token, Detail: detail}
	}
	return nil
}

// decide is the engine's one decision routine. It finds the app's grant
// for the call's token, resolves the stateful attributes and walks the
// clause list; then, unless the probe is Explain's, it counts the
// decision, retains a denial for /explain?corr=, and writes the activity
// log and the audit journal. The reason is one of the Reason constants;
// detail is empty when the call is allowed.
func (e *Engine) decide(call *core.Call, p *probe) (reason, detail string) {
	c, g := e.grantFor(call.App, call.Token)
	reason = ReasonAllowed
	switch {
	case c == nil:
		reason, detail = ReasonNoManifest, "app has no permission manifest"
	case g == nil:
		reason, detail = ReasonTokenUngranted, "token not granted"
	default:
		e.Resolve(call)
		if !g.walk(call, p) {
			reason, detail = ReasonFilterRejected, "filter rejected call "+call.String()
		}
	}
	if p.explaining() {
		return reason, detail
	}
	if p != nil {
		e.heatVerdict(g, reason)
	}
	e.checks.Add(1)
	allowed := reason == ReasonAllowed
	if !allowed {
		e.denials.Add(1)
		e.retainDenial(call)
	}
	if e.log != nil {
		e.log.Record(call, allowed)
	}
	auditDecision(call, allowed, detail)
	return reason, detail
}

// Filter returns the app's grant for one token as a pure predicate, for
// keeping the visible rows of a listing. It is taken once per listing and
// runs the same clause walk as Check with none of its effects: no
// Resolve, no counters, no heat, no retained denial, no log or audit
// record. An app that does not hold the token sees nothing.
func (e *Engine) Filter(app string, token core.Token) func(*core.Call) bool {
	if _, g := e.grantFor(app, token); g != nil {
		return g.allows
	}
	return func(*core.Call) bool { return false }
}

// grantFor finds the app's compiled set and, in it, the grant for the
// token. Either is nil when missing.
func (e *Engine) grantFor(app string, token core.Token) (c *compiled, g *grant) {
	e.mu.RLock()
	c = e.apps[app]
	e.mu.RUnlock()
	if c != nil {
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

// Stats reports cumulative check and denial counts.
func (e *Engine) Stats() (checks, denials uint64) {
	return e.checks.Load(), e.denials.Load()
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

// Log returns the forensic activity log (nil when not configured).
func (e *Engine) Log() *ActivityLog { return e.log }
