package permengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// diffPool is the leaf vocabulary of the differential corpus: the
// filters of TestExplainAgreesWithCheckProperty plus the ones that read
// the remaining call attributes (rule count, topology, callbacks, host
// address) and an unresolved macro stub.
func diffPool() []core.Expr {
	filters := []core.Filter{
		core.NewPredFilter(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 13, 0, 0)), uint64(of.PrefixMask(16))),
		core.NewWildcardFilter(of.FieldIPDst, uint64(of.PrefixMask(24))),
		core.NewActionFilter(core.ActionClassForward),
		core.NewOwnerFilter(true),
		core.NewMaxPriorityFilter(50),
		core.NewMinPriorityFilter(10),
		core.NewTableSizeFilter(4),
		core.NewPktOutFilter(false),
		core.NewPhysTopoFilter([]of.DPID{1, 2}),
		core.NewCallbackFilter(core.CallbackObserve),
		core.NewStatsFilter(of.StatsPort),
	}
	pool := []core.Expr{&core.MacroRef{Name: "AdminRange"}}
	for _, f := range filters {
		pool = append(pool, core.NewLeaf(f))
	}
	return pool
}

func diffExpr(r *rand.Rand, pool []core.Expr, depth int) core.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return pool[r.Intn(len(pool))]
	}
	switch r.Intn(3) {
	case 0:
		return &core.And{L: diffExpr(r, pool, depth-1), R: diffExpr(r, pool, depth-1)}
	case 1:
		return &core.Or{L: diffExpr(r, pool, depth-1), R: diffExpr(r, pool, depth-1)}
	default:
		return &core.Not{X: diffExpr(r, pool, depth-1)}
	}
}

// diffTokens are the tokens the corpus grants and calls; the last is
// never granted, so calls naming it take the token-not-granted path.
var diffTokens = []core.Token{
	core.TokenInsertFlow, core.TokenReadFlowTable, core.TokenReadStatistics,
	core.TokenVisibleTopology, core.TokenSendPktOut, core.TokenHostNetwork,
}

// diffPolicy grants each of two apps a random subset of the tokens,
// unconditionally one time in five, else under a conjunction of up to
// three random subtrees (so the clause decomposition has work to do).
func diffPolicy(r *rand.Rand, apps []string) map[string]*core.Set {
	pool := diffPool()
	out := make(map[string]*core.Set)
	for _, app := range apps {
		set := core.NewSet()
		for _, tok := range diffTokens[:len(diffTokens)-1] {
			if r.Intn(4) == 0 {
				continue
			}
			var expr core.Expr
			if r.Intn(5) != 0 {
				expr = diffExpr(r, pool, 2)
				for extra := r.Intn(3); extra > 0; extra-- {
					expr = &core.And{L: expr, R: diffExpr(r, pool, 2)}
				}
			}
			set.Grant(tok, expr)
		}
		out[app] = set
	}
	return out
}

// diffCall draws one call. Every stateful attribute is pre-filled, so
// Resolve changes nothing and the entry points that do not resolve (the
// oracle, the row filter) see the call the others see.
func diffCall(r *rand.Rand, apps []string, corr uint64) *core.Call {
	return &core.Call{
		App:           apps[r.Intn(len(apps))],
		Token:         diffTokens[r.Intn(len(diffTokens))],
		Corr:          corr,
		DPID:          of.DPID(1 + r.Intn(3)),
		HasDPID:       r.Intn(4) != 0,
		Match:         of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, byte(13+r.Intn(2)), 0, 1))),
		Actions:       [][]of.Action{{of.Output(1)}, {of.Drop()}, {}}[r.Intn(3)],
		Priority:      uint16(r.Intn(100)),
		HasPriority:   true,
		FlowOwner:     append([]string{"other", ""}, apps...)[r.Intn(2+len(apps))],
		HasFlowOwner:  true,
		RuleCount:     r.Intn(8),
		HasRuleCount:  true,
		FromPktIn:     r.Intn(2) == 0,
		HasProvenance: true,
		StatsLevel:    []of.StatsType{of.StatsFlow, of.StatsPort, of.StatsSwitch}[r.Intn(3)],
		Switches:      []of.DPID{of.DPID(1 + r.Intn(3))},
		Event:         []core.CallbackOp{core.CallbackObserve, core.CallbackIntercept}[r.Intn(2)],
		HostIP:        of.IPv4FromOctets(10, 1, 0, byte(r.Intn(4))),
		HasHostIP:     r.Intn(2) == 0,
	}
}

// sideArms are the engine's side-effect-free entry points. Each must
// return the oracle's verdict for every call of the corpus, and leave
// every observable of the history untouched.
var sideArms = []struct {
	name    string
	allowed func(e *Engine, call *core.Call) bool
}{
	{"Explain", func(e *Engine, call *core.Call) bool { return e.Explain(call).Allowed }},
}

// diffHistory is everything one single-threaded run leaves behind.
type diffHistory struct {
	Details         []string      // DeniedError.Detail per call, "" when allowed
	Checks, Denials uint64        // sdnshield_permengine_checks_total deltas
	Audit           []audit.Event // Seq and Time zeroed
	Retained        []RetainedDenialInfo
}

// decisions reads sdnshield_permengine_checks_total: every decision the
// engines made, and the denials among them.
func decisions() (checks, denials uint64) {
	const name = "sdnshield_permengine_checks_total"
	return uint64(obs.Default().TotalOf(name)), uint64(obs.Default().TotalOfLabeled(name, "decision", "deny"))
}

// runDiffHistory replays the calls through Check on a fresh engine at
// the given heat sampling, interleaving every side arm, and compares
// each verdict with the oracle.
func runDiffHistory(t *testing.T, heat bool, policy map[string]*core.Set, calls []*core.Call) diffHistory {
	t.Helper()
	prevEnabled, prevEvery := SetHeatEnabled(heat), setHeatOneIn(1)
	defer func() {
		SetHeatEnabled(prevEnabled)
		setHeatOneIn(prevEvery)
	}()
	e := New(nil)
	for app, set := range policy {
		e.SetPermissions(app, set)
	}
	j := audit.Default()
	// Start from drained shards: a full one drops what Check emits here.
	j.Flush()
	startSeq, startSampled := j.LastSeq(), heatSampled.Load()
	startChecks, startDenials := decisions()

	var h diffHistory
	for i, orig := range calls {
		want := false
		if set, ok := policy[orig.App]; ok {
			want = set.Allows(orig)
		}
		clone := func() *core.Call { c := *orig; return &c }
		for _, arm := range sideArms {
			if got := arm.allowed(e, clone()); got != want {
				t.Fatalf("call %d %s: %s = %v, oracle says %v (policy %s)", i, orig, arm.name, got, want, policy[orig.App])
			}
		}
		err := e.Check(clone())
		if (err == nil) != want {
			t.Fatalf("call %d %s: Check (heat=%v) = %v, oracle says %v (policy %s)", i, orig, heat, err, want, policy[orig.App])
		}
		detail := ""
		if err != nil {
			detail = err.(*DeniedError).Detail
		}
		h.Details = append(h.Details, detail)
	}

	checks, denials := decisions()
	h.Checks, h.Denials = checks-startChecks, denials-startDenials
	if h.Checks != uint64(len(calls)) {
		t.Fatalf("checks_total counted %d checks for %d Check calls: a side arm is not side-effect free", h.Checks, len(calls))
	}
	wantSampled := uint64(0)
	if heat {
		wantSampled = uint64(len(calls))
	}
	if got := heatSampled.Load() - startSampled; got != wantSampled {
		t.Fatalf("heat=%v took the sampled route %d times, want %d", heat, got, wantSampled)
	}
	j.Flush()
	for _, ev := range j.Query(audit.Filter{Kind: audit.KindPermission, AfterSeq: startSeq}) {
		if strings.HasPrefix(ev.App, "diff-") {
			ev.Seq, ev.Time = 0, time.Time{}
			h.Audit = append(h.Audit, ev)
		}
	}
	for _, rd := range e.RetainedDenials(0) {
		rd.Time = time.Time{}
		h.Retained = append(h.Retained, rd)
	}
	return h
}

// TestDifferentialOneSemantics is the engine's differential test: over
// seeded random policy × call corpora, the oracle core.Set.Allows, Check
// with heat sampling off, Check at sampling 1 and every side-effect-free
// entry point return the same verdict for every call, and the two Check
// histories are indistinguishable — same denial details, checks_total
// decisions, audit events and retained denials.
func TestDifferentialOneSemantics(t *testing.T) {
	prevAudit := audit.SetEnabled(true)
	defer audit.SetEnabled(prevAudit)
	const callsPerSeed = 400
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		apps := []string{fmt.Sprintf("diff-%d-a", seed), fmt.Sprintf("diff-%d-b", seed)}
		policy := diffPolicy(r, apps)
		// The third caller has no manifest.
		callers := append(apps, fmt.Sprintf("diff-%d-ghost", seed))
		calls := make([]*core.Call, callsPerSeed)
		for i := range calls {
			calls[i] = diffCall(r, callers, uint64(seed)<<32|uint64(i+1))
		}

		off := runDiffHistory(t, false, policy, calls)
		on := runDiffHistory(t, true, policy, calls)
		if len(off.Audit) != callsPerSeed {
			t.Fatalf("seed %d: history has %d audit events, want %d", seed, len(off.Audit), callsPerSeed)
		}
		if off.Denials == 0 || off.Denials == off.Checks {
			t.Fatalf("seed %d: degenerate corpus, %d denials of %d checks", seed, off.Denials, off.Checks)
		}
		if !reflect.DeepEqual(off, on) {
			for i := range off.Details {
				if off.Details[i] != on.Details[i] {
					t.Errorf("seed %d call %d: detail %q (heat off) vs %q (sampling 1)", seed, i, off.Details[i], on.Details[i])
				}
			}
			t.Fatalf("seed %d: histories differ between heat off and sampling 1:\noff %+v\non  %+v", seed, off, on)
		}
	}
}
