package permengine

// /explain forensics: re-evaluate a call off the hot path and return the
// full decision path — which clause matched, which filter failed, which
// reconciliation repair introduced the deciding term — cross-linked to
// the audit correlation ID of the original denial. The engine retains a
// bounded ring of recent denied calls so an operator holding a denial's
// corr (from /audit or a DeniedError) can ask "why exactly?" minutes
// later, and a POST surface lets them probe hypothetical calls against
// the live compiled policy.

import (
	"sort"
	"strings"
	"sync"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
)

// Explanation reasons.
const (
	ReasonAllowed        = "allowed"
	ReasonNoManifest     = "no_manifest"
	ReasonTokenUngranted = "token_not_granted"
	ReasonFilterRejected = "filter_rejected"
)

// LeafExplain is one filter's verdict inside a clause, with the vacuous
// truth and negation bookkeeping spelled out: Effective is what the leaf
// contributed to the expression (true when inapplicable, else Matched
// XOR Negated).
type LeafExplain struct {
	Filter     string `json:"filter"`
	Dimension  string `json:"dimension"`
	Negated    bool   `json:"negated,omitempty"`
	Applicable bool   `json:"applicable"`
	Matched    bool   `json:"matched"`
	Effective  bool   `json:"effective"`
}

// ClauseExplain is one top-level conjunct's verdict. ShortCircuited
// clauses were never evaluated because an earlier clause already failed
// (the compiled engine's && chain stops there too).
type ClauseExplain struct {
	Index          int           `json:"index"`
	Expr           string        `json:"expr"`
	Dimensions     []string      `json:"dimensions"`
	Evaluated      bool          `json:"evaluated"`
	Passed         bool          `json:"passed"`
	ShortCircuited bool          `json:"short_circuited,omitempty"`
	Leaves         []LeafExplain `json:"leaves,omitempty"`
}

// Explanation is the full decision path of one permission check.
type Explanation struct {
	App     string `json:"app"`
	Token   string `json:"token"`
	Call    string `json:"call"`
	Corr    uint64 `json:"corr,omitempty"`
	Allowed bool   `json:"allowed"`
	Reason  string `json:"reason"`
	Detail  string `json:"detail,omitempty"`
	// Granted lists the tokens the app does hold, populated on
	// token_not_granted denials.
	Granted []string        `json:"granted_tokens,omitempty"`
	Clauses []ClauseExplain `json:"clauses,omitempty"`
	// FailingClauses indexes the clauses that rejected the call (for the
	// compiled conjunction that is always exactly one, the first failure).
	FailingClauses []int `json:"failing_clauses,omitempty"`
	// Provenance carries the app's reconciliation repair notes — the
	// terms the market's reconciler added or rewrote to make the
	// requested manifest admissible.
	Provenance []string `json:"provenance,omitempty"`
	// DecidingRepair is the first provenance note that mentions the
	// failing clause or one of its failing filters: the repair that
	// introduced the deciding term, when reconciliation did.
	DecidingRepair string `json:"deciding_repair,omitempty"`
}

// Explain re-evaluates the call with full bookkeeping. It runs the
// engine's one decision routine under a recording probe, so the verdict
// and the clause walk are Check's own; only the side effects are off and
// the leaves inside a clause all report instead of short-circuiting.
// Explain resolves every stateful attribute the caller left open, as
// Check does for a denial, and is safe to call concurrently with live
// traffic.
func (e *Engine) Explain(call *core.Call) Explanation {
	ex := Explanation{
		App:        call.App,
		Token:      call.Token.String(),
		Corr:       call.Corr,
		Provenance: e.Provenance(call.App),
	}
	ex.Reason, ex.Detail = e.decide(call, &probe{ex: &ex})
	ex.Call = call.String()
	ex.Allowed = ex.Reason == ReasonAllowed
	switch ex.Reason {
	case ReasonTokenUngranted:
		if set, ok := e.Permissions(call.App); ok {
			for _, p := range set.Permissions() {
				ex.Granted = append(ex.Granted, p.Token.String())
			}
			sort.Strings(ex.Granted)
		}
	case ReasonFilterRejected:
		ex.DecidingRepair = decidingRepair(&ex)
	}
	return ex
}

// addClause appends the next clause's record, in walk order, rendering
// the clause's text from its source.
func (ex *Explanation) addClause(src core.Expr, ce ClauseExplain) {
	ce.Index = len(ex.Clauses)
	ce.Expr, ce.Dimensions = clauseText(src)
	if ce.Evaluated && !ce.Passed {
		ex.FailingClauses = append(ex.FailingClauses, ce.Index)
	}
	ex.Clauses = append(ex.Clauses, ce)
}

// decidingRepair scans the provenance notes for the first one mentioning
// a failing clause's expression or one of its ineffective filters —
// best-effort string matching, since reconcile reports repairs in
// rendered permission-language.
func decidingRepair(ex *Explanation) string {
	if len(ex.Provenance) == 0 {
		return ""
	}
	var needles []string
	for _, i := range ex.FailingClauses {
		cl := ex.Clauses[i]
		needles = append(needles, cl.Expr)
		for _, lf := range cl.Leaves {
			if !lf.Effective {
				needles = append(needles, lf.Filter)
			}
		}
	}
	for _, note := range ex.Provenance {
		for _, n := range needles {
			if n != "" && n != "*" && strings.Contains(note, n) {
				return note
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Reconciliation provenance

// SetProvenance records the reconciliation repair notes attached to the
// app's active permission set (the market passes its reconcile
// violations here at activation). An empty list clears them.
func (e *Engine) SetProvenance(app string, notes []string) {
	e.provMu.Lock()
	defer e.provMu.Unlock()
	if len(notes) == 0 {
		delete(e.prov, app)
		return
	}
	if e.prov == nil {
		e.prov = make(map[string][]string)
	}
	e.prov[app] = append([]string(nil), notes...)
}

// Provenance returns the app's reconciliation repair notes.
func (e *Engine) Provenance(app string) []string {
	e.provMu.Lock()
	defer e.provMu.Unlock()
	return append([]string(nil), e.prov[app]...)
}

// ---------------------------------------------------------------------------
// Denial retention

// denialRingSize bounds the retained-denial ring.
const denialRingSize = 256

type retainedDenial struct {
	call core.Call
	at   time.Time
}

type denialRing struct {
	mu  sync.Mutex
	buf [denialRingSize]retainedDenial
	n   uint64
}

// retainDenial copies the denied call into the forensic ring: one
// mutexed copy per denial, nothing on the allowed path. Calls without a
// correlation ID (kernel-internal probes, micro-benchmarks) are not
// retained — nothing could look them up.
func (e *Engine) retainDenial(call *core.Call) {
	if call.Corr == 0 {
		return
	}
	cp := *call
	if call.Match != nil {
		cp.Match = call.Match.Clone()
	}
	if len(call.Actions) > 0 {
		cp.Actions = append([]of.Action(nil), call.Actions...)
	}
	if len(call.Switches) > 0 {
		cp.Switches = append([]of.DPID(nil), call.Switches...)
	}
	if len(call.Links) > 0 {
		cp.Links = append([]core.LinkID(nil), call.Links...)
	}
	r := &e.denialRing
	r.mu.Lock()
	r.buf[r.n%denialRingSize] = retainedDenial{call: cp, at: time.Now()}
	r.n++
	r.mu.Unlock()
}

// newestFirst calls fn on the retained denials, newest first, until fn
// returns false.
func (r *denialRing) newestFirst(fn func(*retainedDenial) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := uint64(1); i <= min(r.n, denialRingSize); i++ {
		if !fn(&r.buf[(r.n-i)%denialRingSize]) {
			return
		}
	}
}

// RetainedDenial looks a denied call up by its correlation ID, newest
// first, returning a private copy.
func (e *Engine) RetainedDenial(corr uint64) (call *core.Call, ok bool) {
	e.denialRing.newestFirst(func(rd *retainedDenial) bool {
		if ok = rd.call.Corr == corr; ok {
			cp := rd.call
			call = &cp
		}
		return !ok
	})
	return call, ok
}

// RetainedDenialInfo summarizes one retained denial for the /explain
// index view.
type RetainedDenialInfo struct {
	Corr  uint64    `json:"corr"`
	App   string    `json:"app"`
	Token string    `json:"token"`
	Call  string    `json:"call"`
	Time  time.Time `json:"time"`
}

// RetainedDenials lists the retained denials, newest first, capped at
// limit (0 means all).
func (e *Engine) RetainedDenials(limit int) []RetainedDenialInfo {
	out := []RetainedDenialInfo{}
	e.denialRing.newestFirst(func(rd *retainedDenial) bool {
		out = append(out, RetainedDenialInfo{
			Corr:  rd.call.Corr,
			App:   rd.call.App,
			Token: rd.call.Token.String(),
			Call:  rd.call.String(),
			Time:  rd.at,
		})
		return len(out) != limit
	})
	return out
}

// ---------------------------------------------------------------------------
// Engine registry

// Engines register under a stable name (the shield's health-provider
// name) so the /heat and /explain endpoints can address them; processes
// running several engines side by side (benchmarks, baseline-vs-shield
// harnesses) expose each under its own name.
var (
	engRegMu sync.Mutex
	engReg   = make(map[string]*Engine)
)

// RegisterEngine publishes the engine for the introspection endpoints
// and returns its unregister function. Registering an existing name
// replaces it.
func RegisterEngine(name string, e *Engine) (unregister func()) {
	engRegMu.Lock()
	engReg[name] = e
	engRegMu.Unlock()
	return func() {
		engRegMu.Lock()
		if engReg[name] == e {
			delete(engReg, name)
		}
		engRegMu.Unlock()
	}
}

// RegisteredEngines snapshots the engine registry.
func RegisteredEngines() map[string]*Engine {
	engRegMu.Lock()
	defer engRegMu.Unlock()
	out := make(map[string]*Engine, len(engReg))
	for n, e := range engReg {
		out[n] = e
	}
	return out
}
