package isolation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/flowtable"
	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
)

// Rollback exactness (paper §VI-B2): whatever undoes a flow operation —
// a transaction aborted at step k, or the kernel un-shadowing an insert
// whose flow-mod never left — must leave every shadow table holding the
// rules, owners and actions it held before, and so the same answers to
// the stateful filters' questions (RuleCount, ForeignFlowOwner).
//
// Owners keep to their own priorities here (rollbackOwners[i] uses 10+i,
// 20+i, 30+i), so the foreign owner at the top of any probe is the same
// whatever the order inside a priority run; a reinstalled rule goes to
// the end of its run, on the switch and in the shadow alike.

var rollbackOwners = []string{"mover", "fw", "lb"}

func rollbackMatch(r *rand.Rand) *of.Match {
	bits := []int{16, 24, 32}[r.Intn(3)]
	m := of.NewMatch().SetMasked(of.FieldIPDst,
		uint64(of.IPv4FromOctets(10, byte(r.Intn(2)), byte(r.Intn(2)), byte(r.Intn(2)))), uint64(of.PrefixMask(bits)))
	if r.Intn(4) == 0 {
		m.Set(of.FieldTPDst, 80)
	}
	return m
}

func rollbackPriority(r *rand.Rand, owner int) uint16 {
	return uint16(10*(1+r.Intn(3)) + owner)
}

// shadowState is everything the test holds equal: per switch the rules in
// a canonical order, and the derived answers.
type shadowState struct {
	Rules   map[of.DPID][]string
	Derived []string
}

func snapshotShadow(t *testing.T, k *controller.Kernel, dpids []of.DPID, probes []*of.Match) shadowState {
	t.Helper()
	s := shadowState{Rules: map[of.DPID][]string{}}
	for _, dpid := range dpids {
		entries, err := k.Flows(dpid, nil)
		if err != nil {
			t.Fatal(err)
		}
		rules := make([]string, 0, len(entries))
		for _, e := range entries {
			rules = append(rules, fmt.Sprintf("%05d %s owner=%q actions=%v cookie=%d idle=%d hard=%d",
				e.Priority, e.Match.Key(), e.Owner, e.Actions, e.Cookie, e.IdleTimeout, e.HardTimeout))
		}
		sort.Strings(rules)
		s.Rules[dpid] = rules
		for _, app := range append([]string{"stranger"}, rollbackOwners...) {
			s.Derived = append(s.Derived, fmt.Sprintf("%v RuleCount(%s)=%d", dpid, app, k.RuleCount(app, dpid)))
			for _, m := range probes {
				for _, prio := range []uint16{5, 15, 25, 40} {
					owner, ok := k.ForeignFlowOwner(app, dpid, m, prio)
					s.Derived = append(s.Derived, fmt.Sprintf("%v ForeignFlowOwner(%s,%s,%d)=%q,%v", dpid, app, m.Key(), prio, owner, ok))
				}
			}
		}
	}
	return s
}

func TestTxRollbackRestoresShadowExactly(t *testing.T) {
	shield := func(manifest string) func(t *testing.T, env *testEnv) API {
		return func(t *testing.T, env *testEnv) API {
			grant(t, env.shield, "mover", manifest)
			var api API
			if err := env.shield.Launch(app("mover", func(a API) error { api = a; return nil })); err != nil {
				t.Fatal(err)
			}
			return api
		}
	}
	// insertOnly variants plan inserts alone: the undo of an insert must
	// not need delete_flow, since it is not a call the app makes. In a
	// sendFailure variant the failing last step is an insert whose
	// flow-mod a live session refuses, so every step before it went out
	// and is taken back on the switch too.
	variants := map[string]struct {
		launch      func(t *testing.T, env *testEnv) API
		insertOnly  bool
		sendFailure bool
	}{
		"shield":              {launch: shield("PERM insert_flow\nPERM delete_flow")},
		"shield_insert_only":  {launch: shield("PERM insert_flow"), insertOnly: true},
		"shield_send_failure": {launch: shield("PERM insert_flow\nPERM delete_flow"), sendFailure: true},
		"monolith": {launch: func(t *testing.T, env *testEnv) API {
			var api API
			if err := NewMonolith(env.kernel).Launch(app("mover", func(a API) error { api = a; return nil })); err != nil {
				t.Fatal(err)
			}
			return api
		}},
	}
	dpids := []of.DPID{1, 2}
	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			var wrap func(of.DPID, of.Conn) of.Conn
			if v.sendFailure {
				wrap = func(_ of.DPID, c of.Conn) of.Conn { return sendFailer{c} }
			}
			env := newEnvOver(t, 2, wrap)
			api := v.launch(t, env)
			for seed := int64(0); seed < 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				// Start every seed from empty tables, then a random resident
				// population from all three owners.
				for _, dpid := range dpids {
					if err := env.kernel.DeleteFlow(dpid, nil, 0, false); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 12; i++ {
						o := r.Intn(len(rollbackOwners))
						err := env.kernel.InsertFlow(rollbackOwners[o], dpid, controller.FlowSpec{
							Match: rollbackMatch(r), Priority: rollbackPriority(r, o),
							Actions: []of.Action{of.Output(uint16(1 + r.Intn(3)))}, Cookie: uint64(100 + i),
						})
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				probes := []*of.Match{of.NewMatch(), rollbackMatch(r), rollbackMatch(r), rollbackMatch(r)}
				before := snapshotShadow(t, env.kernel, dpids, probes)

				// k applied steps — inserts that are new, replace the app's own
				// rule or replace a foreign one; strict and non-strict deletes
				// that take foreign rules with them — then one that fails.
				k := 1 + r.Intn(6)
				tx := api.Transaction()
				for i := 0; i < k; i++ {
					dpid := dpids[r.Intn(2)]
					m := rollbackMatch(r)
					prio := rollbackPriority(r, r.Intn(len(rollbackOwners)))
					op := r.Intn(4)
					if v.insertOnly {
						op = 2
					}
					switch op {
					case 0:
						tx.DeleteFlow(dpid, m, prio, true)
					case 1:
						tx.DeleteFlow(dpid, m, prio, false)
					default:
						tx.InsertFlow(dpid, controller.FlowSpec{Match: m, Priority: prio,
							Actions: []of.Action{of.Output(9)}, Cookie: uint64(900 + i)})
					}
				}
				if v.sendFailure {
					tx.InsertFlow(dpids[r.Intn(2)], controller.FlowSpec{Match: rollbackMatch(r), Priority: 10, Cookie: failCookie})
				} else {
					tx.InsertFlow(42, controller.FlowSpec{Match: rollbackMatch(r), Priority: 10})
				}
				err := tx.Commit()
				var txErr *TxError
				if !errors.As(err, &txErr) || txErr.Stage != "apply" || txErr.Index != k {
					t.Fatalf("seed %d: commit err = %v, want apply failure at step %d", seed, err, k)
				}
				if len(txErr.RollbackErrors) != 0 {
					t.Fatalf("seed %d: rollback errors: %v", seed, txErr.RollbackErrors)
				}
				if after := snapshotShadow(t, env.kernel, dpids, probes); !reflect.DeepEqual(before, after) {
					t.Fatalf("seed %d: shadow tables differ after rollback at step %d\nbefore: %v\nafter:  %v",
						seed, k, before.Rules, after.Rules)
				}
				if v.sendFailure {
					for _, dpid := range dpids {
						if shadow, data := dataPlaneOf(t, env, dpid); shadow != data {
							t.Fatalf("seed %d: switch %v holds other rules than its shadow after rollback\nshadow: %s\nswitch: %s",
								seed, dpid, shadow, data)
						}
					}
				}
			}
		})
	}
}

// dataPlaneOf renders, after a barrier, a switch's shadow table and the
// rules the switch itself holds, in one canonical form.
func dataPlaneOf(t *testing.T, env *testEnv, dpid of.DPID) (shadow, data string) {
	t.Helper()
	if err := env.kernel.Barrier(dpid); err != nil {
		t.Fatal(err)
	}
	render := func(entries []*flowtable.Entry) string {
		rules := make([]string, 0, len(entries))
		for _, e := range entries {
			rules = append(rules, fmt.Sprintf("%05d %s actions=%v cookie=%d", e.Priority, e.Match.Key(), e.Actions, e.Cookie))
		}
		sort.Strings(rules)
		return fmt.Sprint(rules)
	}
	entries, err := env.kernel.Flows(dpid, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := env.built.Net.Switch(dpid)
	return render(entries), render(sw.Table().Entries(nil))
}

// sendFailer fails the Send of every flow-mod carrying failCookie and
// leaves the session up, so the shadow table outlives the failure.
type sendFailer struct {
	of.Conn
}

const failCookie = 0xdead

func (c sendFailer) Send(msg of.Message) error {
	if fm, ok := msg.(*of.FlowMod); ok && fm.Cookie == failCookie {
		return of.ErrClosed
	}
	return c.Conn.Send(msg)
}

func TestFailedSendUnshadowsExactly(t *testing.T) {
	b, err := netsim.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	k := controller.New(b.Topo, nil)
	t.Cleanup(func() {
		k.Stop()
		b.Net.Stop()
	})
	ctrlSide, swSide := of.Pipe()
	if err := b.Net.Switches()[0].Start(swSide); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AcceptSwitch(sendFailer{ctrlSide}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	dpids := []of.DPID{1}
	var resident []controller.FlowSpec
	for i := 0; i < 16; i++ {
		o := r.Intn(len(rollbackOwners))
		spec := controller.FlowSpec{Match: rollbackMatch(r), Priority: rollbackPriority(r, o),
			Actions: []of.Action{of.Output(uint16(1 + r.Intn(3)))}, Cookie: uint64(100 + i)}
		if err := k.InsertFlow(rollbackOwners[o], 1, spec); err != nil {
			t.Fatal(err)
		}
		resident = append(resident, spec)
	}
	probes := []*of.Match{of.NewMatch(), rollbackMatch(r), rollbackMatch(r), rollbackMatch(r)}
	before := snapshotShadow(t, k, dpids, probes)

	// An insert over each resident rule (a replace, under whichever owner)
	// and some brand-new ones: none reaches the switch, none may leave a
	// trace.
	attempts := append([]controller.FlowSpec(nil), resident...)
	for i := 0; i < 8; i++ {
		attempts = append(attempts, controller.FlowSpec{Match: rollbackMatch(r).Set(of.FieldTPSrc, uint64(1000+i)), Priority: 33})
	}
	for i, spec := range attempts {
		spec.Cookie, spec.Actions = failCookie, []of.Action{of.Output(9)}
		err := k.InsertFlowAs(controller.Origin{App: "mover"}, 1, spec)
		if !errors.Is(err, controller.ErrSwitchDisconnected) {
			t.Fatalf("attempt %d: err = %v, want ErrSwitchDisconnected", i, err)
		}
		if after := snapshotShadow(t, k, dpids, probes); !reflect.DeepEqual(before, after) {
			t.Fatalf("attempt %d: shadow differs after failed send\nbefore: %v\nafter:  %v", i, before.Rules, after.Rules)
		}
	}
}
