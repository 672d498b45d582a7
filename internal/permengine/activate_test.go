package permengine

import (
	"strings"
	"sync"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// priorityGrant is a grant capping insert priority at max, whose one
// provenance note names the repair that set the cap.
func priorityGrant(max string) Grant {
	return Grant{
		Set:        permlang.MustParse("PERM insert_flow LIMITING MAX_PRIORITY " + max).Set(),
		Budget:     core.Budget{CPUMillisPerSec: 100},
		Provenance: []string{"[narrowed] priority bound (repaired: MAX_PRIORITY " + max + ")"},
	}
}

// TestSetPermissionsReplacesWholeGrant: SetPermissions activates a grant
// of the set alone, so the budget and provenance of the grant it
// replaces go with it.
func TestSetPermissionsReplacesWholeGrant(t *testing.T) {
	e := New(nil)
	e.Activate("m", priorityGrant("10"))
	e.SetPermissions("m", permlang.MustParse("PERM insert_flow LIMITING MAX_PRIORITY 20").Set())
	call := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	call.Priority = 200
	ex := e.Explain(call)
	if ex.Allowed || ex.Provenance != nil || ex.DecidingRepair != "" {
		t.Fatalf("explain under the new set = %+v, want a denial with no provenance", ex)
	}
	if b := e.Budget("m"); !b.IsZero() {
		t.Fatalf("budget survives SetPermissions: %+v", b)
	}
}

// TestActivateExplainSeesOneGrant: activations racing Explain never
// show one grant's clauses beside another grant's provenance.
func TestActivateExplainSeesOneGrant(t *testing.T) {
	e := New(nil)
	grants := [2]Grant{priorityGrant("10"), priorityGrant("20")}
	e.Activate("m", grants[0])
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Activate("m", grants[i%2])
			}
		}
	}()
	call := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	call.Priority = 200
	for i := 0; i < 2000; i++ {
		ex := e.Explain(call)
		if ex.Allowed || len(ex.Clauses) != 1 || len(ex.Provenance) != 1 {
			t.Fatalf("explanation %d = %+v", i, ex)
		}
		if !strings.HasSuffix(ex.Provenance[0], ex.Clauses[0].Expr+")") {
			t.Fatalf("explanation %d pairs clause %q with provenance %q", i, ex.Clauses[0].Expr, ex.Provenance[0])
		}
	}
}
