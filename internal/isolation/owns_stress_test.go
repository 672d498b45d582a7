//go:build !race

package isolation

import (
	"sync/atomic"
	"testing"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/of"
)

// TestSharedMatchRaceAdmitsOnlyChecked is the app racing itself: one
// goroutine issues inserts that all share one *of.Match, a second flips
// that match's IP_DST between the granted 10.0.0.1 and 10.0.0.99. Every
// rule that goes resident must carry the IP_DST its check admitted. It is
// a data race by design, so it does not run under -race. The audit
// journal is off: thousands of decisions in a burst would leave later
// tests a drain backlog.
func TestSharedMatchRaceAdmitsOnlyChecked(t *testing.T) {
	defer audit.SetEnabled(audit.SetEnabled(false))
	k, _, s := newOwnsEnv(t)
	api := launchWith(t, s, "app", onlyAllowedDst(core.TokenInsertFlow, func() {}))
	shared := of.NewMatch().Set(of.FieldIPDst, uint64(allowedDst))
	var stop atomic.Bool
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; !stop.Load(); i++ {
			dst := allowedDst
			if i%2 == 1 {
				dst = tamperDst
			}
			shared.Set(of.FieldIPDst, uint64(dst))
		}
	}()
	admitted := 0
	for i := 0; i < 5000; i++ {
		shared.Set(of.FieldTPDst, uint64(i))
		if api.InsertFlow(1, controller.FlowSpec{Match: shared, Priority: 10, Actions: []of.Action{of.Output(1)}}) == nil {
			admitted++
		}
	}
	stop.Store(true)
	<-flipped
	entries, err := k.Flows(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, e := range entries {
		if v, _ := e.Match.Get(of.FieldIPDst); of.IPv4(v) != allowedDst {
			bad++
		}
	}
	t.Logf("%d of 5000 inserts admitted, %d rules resident", admitted, len(entries))
	if admitted == 0 || bad != 0 {
		t.Fatalf("%d of %d resident rules carry an IP_DST the grant forbids (%d inserts admitted)", bad, len(entries), admitted)
	}
}
