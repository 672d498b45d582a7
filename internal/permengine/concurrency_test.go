package permengine

import (
	"sync"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// TestConcurrentChecksAndUpdates hammers the engine with parallel checks
// while permissions are replaced and revoked — the "permission engine
// scales out with parallelism" property plus live permission updates.
func TestConcurrentChecksAndUpdates(t *testing.T) {
	e := New(nil)
	narrow := permlang.MustParse("PERM insert_flow LIMITING ACTION FORWARD").Set()
	wide := permlang.MustParse("PERM insert_flow").Set()
	e.SetPermissions("app", narrow)
	checks0, denials0 := decisions()

	forward := func() *core.Call {
		return &core.Call{
			App: "app", Token: core.TokenInsertFlow,
			DPID: 1, HasDPID: true,
			Match:        of.NewMatch().Set(of.FieldTPDst, 80),
			Actions:      []of.Action{of.Output(1)},
			HasFlowOwner: true,
		}
	}
	drop := func() *core.Call {
		c := forward()
		c.Actions = []of.Action{of.Drop()}
		return c
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Forward rules are allowed under every installed set.
				if err := e.Check(forward()); err != nil {
					// Only permissible failure: the updater briefly
					// removed the app.
					var denied *DeniedError
					if !asDenied(err, &denied) {
						t.Errorf("unexpected error type: %v", err)
						return
					}
				}
				//nolint:errcheck // drop calls may or may not be denied
				e.Check(drop())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			switch i % 3 {
			case 0:
				e.SetPermissions("app", wide)
			case 1:
				e.SetPermissions("app", narrow)
			default:
				e.HasToken("app", core.TokenInsertFlow)
				e.Permissions("app")
			}
		}
	}()
	wg.Wait()

	checks, denials := decisions()
	if checks == checks0 || denials == denials0 {
		t.Errorf("checks_total moved by (%d, %d), want checks and denials", checks-checks0, denials-denials0)
	}
}

func asDenied(err error, target **DeniedError) bool {
	d, ok := err.(*DeniedError)
	if ok {
		*target = d
	}
	return ok
}

// TestRevocationTakesEffect verifies that removing an app's permissions
// denies subsequent calls immediately.
func TestRevocationTakesEffect(t *testing.T) {
	e := New(nil)
	e.SetPermissions("app", permlang.MustParse("PERM read_statistics").Set())
	call := &core.Call{App: "app", Token: core.TokenReadStatistics, StatsLevel: of.StatsPort}
	if err := e.Check(call); err != nil {
		t.Fatalf("pre-revocation check failed: %v", err)
	}
	e.RemoveApp("app")
	if err := e.Check(call); err == nil {
		t.Fatal("revoked app still allowed")
	}
}
