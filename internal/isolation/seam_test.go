package isolation

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
)

// parkFilter holds the first call that consults it inside its decision:
// that Test runs hook before passing the call. The first Test is claimed
// with a CAS rather than a sync.Once, which would make every later caller
// wait inside its own check until hook returns.
type parkFilter struct {
	core.Filter
	claimed atomic.Bool
	hook    func()
}

func (f *parkFilter) Test(*core.Call) (bool, bool) {
	if f.claimed.CompareAndSwap(false, true) {
		f.hook()
	}
	return true, true
}

// parkedGrant is manifest's grant of token with park in front of it.
func parkedGrant(manifest string, token core.Token, park *parkFilter) *core.Set {
	expr, _ := permlang.MustParse(manifest).Set().FilterFor(token)
	park.Filter = core.NewPredFilter(of.FieldTPDst, 0, 0)
	return core.NewSet().Grant(token, &core.And{L: core.NewLeaf(park), R: expr})
}

// TestDecisionAndEffectAreOneStep: a stateful filter's decision must still
// hold when the call's effect lands. Caller A is parked inside its
// decision while caller B makes a whole call of its own; B's call may not
// finish in between, so once A's effect is in (the hook waits 50 ms for
// B, then lets A go) B decides on it: under MAX_RULE_COUNT 1 the table
// ends with one rule, under OWN_FLOWS a second app's overlapping rule of
// equal priority is refused, and an OWN_FLOWS delete never takes a rule
// another app installed after the delete was decided.
func TestDecisionAndEffectAreOneStep(t *testing.T) {
	spec := func(m *of.Match) controller.FlowSpec {
		return controller.FlowSpec{Match: m, Priority: 10, Actions: []of.Action{of.Output(1)}}
	}
	dst := func(host byte) *of.Match {
		return of.NewMatch().Set(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, host)))
	}
	cases := []struct {
		name string
		// setup grants A's app the parked grant and returns both calls and
		// the check of their outcome.
		setup func(t *testing.T, env *testEnv, park *parkFilter) (a, b func() error, check func(errA, errB error))
	}{
		{"rule_cap", func(t *testing.T, env *testEnv, park *parkFilter) (func() error, func() error, func(error, error)) {
			api := launchWith(t, env.shield, "capped", parkedGrant("PERM insert_flow LIMITING MAX_RULE_COUNT 1", core.TokenInsertFlow, park))
			return func() error { return api.InsertFlow(1, spec(dst(1))) },
				func() error { return api.InsertFlow(1, spec(dst(2))) },
				func(errA, errB error) {
					if n := env.kernel.RuleCount("capped", 1); errA != nil || n != 1 {
						t.Errorf("A: %v; %d rules resident under MAX_RULE_COUNT 1 (B: %v)", errA, n, errB)
					}
				}
		}},
		{"own_flows_insert", func(t *testing.T, env *testEnv, park *parkFilter) (func() error, func() error, func(error, error)) {
			a := launchWith(t, env.shield, "a", parkedGrant("PERM insert_flow LIMITING OWN_FLOWS", core.TokenInsertFlow, park))
			b := launchAPI(t, env, "b", "PERM insert_flow LIMITING OWN_FLOWS")
			return func() error { return a.InsertFlow(1, spec(of.NewMatch().Set(of.FieldTPDst, 80))) },
				func() error { return b.InsertFlow(1, spec(dst(1))) },
				func(errA, errB error) {
					var denied *permengine.DeniedError
					if errA != nil || !errors.As(errB, &denied) {
						t.Errorf("A: %v, B: %v; want A admitted and B's overlapping rule of equal priority refused", errA, errB)
					}
				}
		}},
		{"own_flows_delete", func(t *testing.T, env *testEnv, park *parkFilter) (func() error, func() error, func(error, error)) {
			if err := env.kernel.InsertFlow("a", 1, spec(dst(1))); err != nil {
				t.Fatal(err)
			}
			a := launchWith(t, env.shield, "a", parkedGrant("PERM delete_flow LIMITING OWN_FLOWS", core.TokenDeleteFlow, park))
			b := launchAPI(t, env, "b", "PERM insert_flow LIMITING OWN_FLOWS")
			subnet := of.NewMatch().SetMasked(of.FieldIPDst, uint64(of.IPv4FromOctets(10, 0, 0, 0)), uint64(of.PrefixMask(24)))
			return func() error { return a.DeleteFlow(1, subnet, 0, false) },
				func() error { return b.InsertFlow(1, spec(dst(2))) },
				func(errA, errB error) {
					if owner, ok := env.kernel.FlowOwner(1, dst(2), 10); errA != nil || errB != nil || !ok || owner != "b" {
						t.Errorf("A: %v, B: %v; B's rule resident: %v (owner %q); want both admitted and B's rule kept", errA, errB, ok, owner)
					}
				}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, 1)
			park := &parkFilter{}
			a, b, check := c.setup(t, env, park)
			doneB := make(chan error, 1)
			park.hook = func() {
				go func() { doneB <- b() }()
				select {
				case err := <-doneB:
					doneB <- err // B finished inside A's decision
				case <-time.After(50 * time.Millisecond):
				}
			}
			errA := a()
			if !park.claimed.Load() {
				t.Fatal("A's call never consulted the park filter")
			}
			select {
			case errB := <-doneB:
				check(errA, errB)
			case <-time.After(5 * time.Second):
				t.Fatal("B's call never finished")
			}
		})
	}
}
