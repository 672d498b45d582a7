package permengine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// countingState is a StateProvider that counts the lookups made of it:
// owner lookups (FlowOwner, ForeignFlowOwner) and rule counts apart.
type countingState struct {
	inner         StateProvider
	owner, counts int
}

func (s *countingState) FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	s.owner++
	return s.inner.FlowOwner(dpid, match, priority)
}

func (s *countingState) ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	s.owner++
	return s.inner.ForeignFlowOwner(app, dpid, match, priority)
}

func (s *countingState) RuleCountBesides(app string, dpid of.DPID, match *of.Match, priority uint16) int {
	s.counts++
	return s.inner.RuleCountBesides(app, dpid, match, priority)
}

// eager resolves every stateful attribute the caller left open, the way
// the engine resolved each call before it learned to skip what a grant
// does not read: the oracle's view of the call.
func eager(call *core.Call, state StateProvider) {
	if !call.HasDPID || call.Match == nil {
		return
	}
	switch call.Token {
	case core.TokenInsertFlow:
		if !call.HasFlowOwner {
			call.FlowOwner, _ = state.ForeignFlowOwner(call.App, call.DPID, call.Match, call.Priority)
			call.HasFlowOwner = true
		}
		if !call.HasRuleCount {
			call.RuleCount = state.RuleCountBesides(call.App, call.DPID, call.Match, call.Priority)
			call.HasRuleCount = true
		}
	case core.TokenModifyFlow, core.TokenDeleteFlow, core.TokenReadFlowTable:
		if !call.HasFlowOwner {
			call.FlowOwner, _ = state.FlowOwner(call.DPID, call.Match, call.Priority)
			call.HasFlowOwner = true
		}
	}
}

// TestCheckResolvesOnlyWhatGrantReads: an allowed insert looks up only
// the stateful values its grant's leaves read, while a denied insert and
// an Explain look up both, and the denial is retained as the eagerly
// resolved call.
func TestCheckResolvesOnlyWhatGrantReads(t *testing.T) {
	foreign := of.IPv4FromOctets(10, 0, 0, 2)
	for _, tc := range []struct {
		name, filter  string
		owner, counts int
	}{
		{"all_flows", "ALL_FLOWS AND MAX_PRIORITY 100", 0, 0},
		{"own_flows", "OWN_FLOWS", 1, 0},
		{"rule_cap", "MAX_RULE_COUNT 4", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := &countingState{inner: &fakeState{
				owners: map[string]string{of.NewMatch().Set(of.FieldIPDst, uint64(foreign)).Key(): "other"},
				counts: map[string]int{"app": 2},
			}}
			e := New(state)
			e.SetPermissions("app", permlang.MustParse("PERM insert_flow LIMITING ACTION FORWARD AND "+tc.filter).Set())
			forward, drop := []of.Action{of.Output(2)}, []of.Action{of.Drop()}

			if err := e.Check(insertFlowCall("app", of.IPv4FromOctets(10, 0, 0, 1), forward)); err != nil {
				t.Fatalf("allowed insert denied: %v", err)
			}
			if state.owner != tc.owner || state.counts != tc.counts {
				t.Errorf("allowed insert: %d owner and %d count lookups, want %d and %d",
					state.owner, state.counts, tc.owner, tc.counts)
			}

			state.owner, state.counts = 0, 0
			denied := insertFlowCall("app", foreign, drop)
			denied.Corr = audit.NextCorr()
			var de *DeniedError
			if err := e.Check(denied); !errors.As(err, &de) {
				t.Fatalf("drop rule: err = %v, want a denial", err)
			}
			if state.owner != 1 || state.counts != 1 {
				t.Errorf("denied insert: %d owner and %d count lookups, want 1 and 1", state.owner, state.counts)
			}
			want := insertFlowCall("app", foreign, drop)
			want.Corr = denied.Corr
			eager(want, state.inner)
			if got, ok := e.RetainedDenial(denied.Corr); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("retained denial = %+v (found %v), want the eagerly resolved %+v", got, ok, want)
			}
			if !want.HasFlowOwner || want.FlowOwner != "other" || want.RuleCount != 2 {
				t.Fatalf("eager resolution gave owner %q, count %d; the test wants both non-zero", want.FlowOwner, want.RuleCount)
			}

			state.owner, state.counts = 0, 0
			if ex := e.Explain(insertFlowCall("app", of.IPv4FromOctets(10, 0, 0, 1), forward)); !ex.Allowed {
				t.Errorf("Explain denied the allowed insert: %s", ex.Detail)
			}
			if state.owner != 1 || state.counts != 1 {
				t.Errorf("Explain: %d owner and %d count lookups, want 1 and 1", state.owner, state.counts)
			}
		})
	}
}

// seededState answers every lookup with a value drawn from a hash of the
// seed and the lookup's arguments: random, yet the same each time the
// same question is asked.
type seededState struct{ seed int64 }

func (s seededState) draw(parts ...any) uint32 {
	h := fnv.New32a()
	fmt.Fprint(h, s.seed)
	for _, p := range parts {
		fmt.Fprint(h, "|", p)
	}
	return h.Sum32()
}

var seededOwners = []string{"", "a", "b", "other"}

func (s seededState) FlowOwner(dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	o := seededOwners[s.draw("owner", dpid, match.Key(), priority)%uint32(len(seededOwners))]
	return o, o != ""
}

func (s seededState) ForeignFlowOwner(app string, dpid of.DPID, match *of.Match, priority uint16) (string, bool) {
	o := seededOwners[s.draw("foreign", app, dpid, match.Key(), priority)%uint32(len(seededOwners))]
	if o == app {
		return "", false
	}
	return o, o != ""
}

func (s seededState) RuleCountBesides(app string, dpid of.DPID, match *of.Match, priority uint16) int {
	return int(s.draw("count", app, dpid, match.Key(), priority) % 8)
}

// TestLazyResolutionMatchesOracleProperty: over seeded random owners and
// counts and random grants built from the stateful filters (OWN_FLOWS,
// ALL_FLOWS and MAX_RULE_COUNT, under random negation) among the
// differential corpus's leaves, Check's verdict on a call that leaves its
// stateful attributes open equals the oracle's on the same call resolved
// eagerly.
func TestLazyResolutionMatchesOracleProperty(t *testing.T) {
	apps := []string{"a", "b"}
	pool := diffPool()
	for _, f := range []core.Filter{core.NewOwnerFilter(false), core.NewOwnerFilter(true), core.NewTableSizeFilter(2), core.NewTableSizeFilter(6)} {
		pool = append(pool, core.NewLeaf(f), &core.Not{X: core.NewLeaf(f)})
	}
	tokens := []core.Token{core.TokenInsertFlow, core.TokenModifyFlow, core.TokenDeleteFlow, core.TokenReadFlowTable}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		state := seededState{seed: seed}
		e := New(state)
		sets := make(map[string]*core.Set)
		for _, app := range apps {
			set := core.NewSet()
			for _, tok := range tokens {
				expr := diffExpr(r, pool, 3)
				for extra := r.Intn(3); extra > 0; extra-- {
					expr = &core.And{L: expr, R: diffExpr(r, pool, 2)}
				}
				set.Grant(tok, expr)
			}
			sets[app] = set
			e.SetPermissions(app, set)
		}
		for i := 0; i < 200; i++ {
			call := &core.Call{
				App:         apps[r.Intn(len(apps))],
				Token:       tokens[r.Intn(len(tokens))],
				DPID:        of.DPID(1 + r.Intn(2)),
				HasDPID:     r.Intn(6) != 0,
				Match:       of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, byte(13+r.Intn(2)), 0, byte(r.Intn(4))))),
				Actions:     [][]of.Action{{of.Output(1)}, {of.Drop()}}[r.Intn(2)],
				Priority:    uint16(r.Intn(100)),
				HasPriority: true,
			}
			if r.Intn(6) == 0 {
				call.Match = nil
			}
			if r.Intn(4) == 0 {
				call.FlowOwner, call.HasFlowOwner = seededOwners[r.Intn(len(seededOwners))], true
			}
			if r.Intn(4) == 0 {
				call.RuleCount, call.HasRuleCount = r.Intn(8), true
			}
			resolved := *call
			eager(&resolved, state)
			want := sets[call.App].Allows(&resolved)
			if got := e.Check(call) == nil; got != want {
				grant, _ := sets[call.App].FilterFor(call.Token)
				t.Fatalf("seed %d call %d: Check allowed=%v, oracle on the eager call %v\ncall %+v\ngrant %s",
					seed, i, got, want, resolved, core.ExprString(grant))
			}
		}
	}
}

// TestCheckWritesNoPinnedCall: a call whose stateful attributes are all
// pinned is only read, so goroutines may check one shared call (the
// benchmark's probes do) without a race, whatever the grant reads.
func TestCheckWritesNoPinnedCall(t *testing.T) {
	e := New(&fakeState{})
	e.SetPermissions("app", permlang.MustParse("PERM insert_flow LIMITING ALL_FLOWS AND MAX_RULE_COUNT 4").Set())
	call := insertFlowCall("app", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	call.HasFlowOwner, call.HasRuleCount = true, true
	before := *call
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := e.Check(call); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(*call, before) {
		t.Errorf("pinned call changed: %+v, was %+v", *call, before)
	}
}
