package permengine

import (
	"reflect"
	"sync"
	"testing"

	"sdnshield/internal/core"
	"sdnshield/internal/of"
	"sdnshield/internal/permlang"
)

// heatTestSampling forces sampling 1 (every check instrumented) for the
// duration of a test and restores the previous globals.
func heatTestSampling(t *testing.T) {
	t.Helper()
	prevEnabled := SetHeatEnabled(true)
	prevEvery := setHeatOneIn(1)
	t.Cleanup(func() {
		SetHeatEnabled(prevEnabled)
		setHeatOneIn(prevEvery)
	})
}

// tokenHeatOf digs one (app, token) heat snapshot out of a profile.
func tokenHeatOf(t *testing.T, p HeatProfile, app string, tok core.Token) TokenHeat {
	t.Helper()
	for _, a := range p.Apps {
		if a.App != app {
			continue
		}
		for _, th := range a.Tokens {
			if th.Token == tok.String() {
				return th
			}
		}
	}
	t.Fatalf("no heat for (%s, %s) in %+v", app, tok, p.Apps)
	return TokenHeat{}
}

// TestHeatClauseDecomposition: the heat profile decomposes a filter
// into its top-level AND-conjuncts in source order, each with its
// filter dimensions.
func TestHeatClauseDecomposition(t *testing.T) {
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 100 AND ACTION FORWARD AND OWN_FLOWS").Set())
	th := tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenInsertFlow)
	if len(th.Clauses) != 3 {
		t.Fatalf("clauses = %d, want 3: %+v", len(th.Clauses), th.Clauses)
	}
	for i, cl := range th.Clauses {
		if cl.Index != i {
			t.Fatalf("clause %d has index %d", i, cl.Index)
		}
		if cl.Expr == "" || len(cl.Dimensions) == 0 {
			t.Fatalf("clause %d lacks expr/dimensions: %+v", i, cl)
		}
	}
	// An unconditional grant profiles as a single always-true clause or
	// no clauses at all — but never panics on snapshot.
	e.SetPermissions("u", permlang.MustParse("PERM read_statistics").Set())
	_ = e.HeatSnapshot()
}

// TestHeatCountsAtSamplingOne: with every check instrumented, the heat
// counters are exact — allow/deny totals, per-clause evals, pass/fail
// splits and short-circuit counts all reconcile with the driven load.
func TestHeatCountsAtSamplingOne(t *testing.T) {
	heatTestSampling(t)
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 100 AND ACTION FORWARD").Set())

	allow := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	allow.Priority = 50
	deny := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
	deny.Priority = 200 // fails clause 0, short-circuits clause 1

	const allows, denies = 7, 3
	for i := 0; i < allows; i++ {
		if err := e.Check(allow); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < denies; i++ {
		if err := e.Check(deny); err == nil {
			t.Fatal("deny call allowed")
		}
	}

	th := tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenInsertFlow)
	if th.Allow != allows || th.Deny != denies {
		t.Fatalf("allow/deny = %d/%d, want %d/%d", th.Allow, th.Deny, allows, denies)
	}
	c0, c1 := th.Clauses[0], th.Clauses[1]
	if c0.Evals != allows+denies || c0.Pass != allows || c0.Fail != denies {
		t.Fatalf("clause 0 = %+v", c0)
	}
	if c1.Evals != allows || c1.Pass != allows || c1.Fail != 0 || c1.ShortCircuits != denies {
		t.Fatalf("clause 1 = %+v", c1)
	}
	var lat uint64
	lat = c0.Latency.LE256ns + c0.Latency.LE1us + c0.Latency.LE4us +
		c0.Latency.LE16us + c0.Latency.LE64us + c0.Latency.GT64us
	if lat != c0.Evals {
		t.Fatalf("clause 0 latency brackets sum %d, want %d evals", lat, c0.Evals)
	}
}

// TestHeatDenialTaxonomy: no-manifest and token-ungranted denials are
// counted in their own buckets, not against any clause.
func TestHeatDenialTaxonomy(t *testing.T) {
	heatTestSampling(t)
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics").Set())
	if err := e.Check(&core.Call{App: "ghost", Token: core.TokenReadStatistics}); err == nil {
		t.Fatal("ghost app allowed")
	}
	if err := e.Check(&core.Call{App: "m", Token: core.TokenInsertFlow}); err == nil {
		t.Fatal("ungranted token allowed")
	}
	p := e.HeatSnapshot()
	if p.NoManifest != 1 || p.Ungranted != 1 {
		t.Fatalf("denial taxonomy: no_manifest=%d ungranted=%d", p.NoManifest, p.Ungranted)
	}
}

// TestHeatSamplingToggle: disabled heat records nothing; re-enabling
// resumes recording on the retained counters; SetPermissions resets the
// profile (a new set is a new profile).
func TestHeatSamplingToggle(t *testing.T) {
	prevEnabled := SetHeatEnabled(false)
	prevEvery := setHeatOneIn(1)
	defer func() {
		SetHeatEnabled(prevEnabled)
		setHeatOneIn(prevEvery)
	}()

	e := New(nil)
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics LIMITING PORT_LEVEL").Set())
	call := &core.Call{App: "m", Token: core.TokenReadStatistics, StatsLevel: of.StatsPort}
	if err := e.Check(call); err != nil {
		t.Fatal(err)
	}
	th := tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenReadStatistics)
	if th.Allow != 0 {
		t.Fatalf("disabled heat recorded %d allows", th.Allow)
	}

	SetHeatEnabled(true)
	if err := e.Check(call); err != nil {
		t.Fatal(err)
	}
	th = tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenReadStatistics)
	if th.Allow != 1 {
		t.Fatalf("enabled heat recorded %d allows, want 1", th.Allow)
	}

	// Replacing the permission set resets the profile.
	e.SetPermissions("m", permlang.MustParse("PERM read_statistics LIMITING PORT_LEVEL").Set())
	th = tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenReadStatistics)
	if th.Allow != 0 {
		t.Fatalf("profile survived SetPermissions: %d allows", th.Allow)
	}
}

func TestHeatBracketIdx(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {256, 0}, {257, 1}, {1024, 1}, {4096, 2},
		{16384, 3}, {65536, 4}, {65537, 5}, {1 << 30, 5},
	}
	for _, c := range cases {
		if got := heatBracketIdx(c.ns); got != c.want {
			t.Errorf("heatBracketIdx(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestHeatEngineRegistry: shields register their engines for the /heat
// and /explain surfaces; unregister removes them.
func TestHeatEngineRegistry(t *testing.T) {
	e := New(nil)
	unreg := RegisterEngine("heat-test-engine", e)
	if got := RegisteredEngines()["heat-test-engine"]; got != e {
		t.Fatal("engine not registered")
	}
	unreg()
	if _, ok := RegisteredEngines()["heat-test-engine"]; ok {
		t.Fatal("engine still registered after unregister")
	}
}

// TestHeatSlabFirstWalkRace: goroutines race the first sampled walks of
// a fresh grant, which install its heat slab, while /heat snapshots it.
// Every walk counts into the one slab installed: the totals are exact.
func TestHeatSlabFirstWalkRace(t *testing.T) {
	heatTestSampling(t)
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING MAX_PRIORITY 100 AND ACTION FORWARD").Set())

	const workers, perWorker = 8, 200 // half allowed, half denied at clause 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				call := insertFlowCall("m", of.IPv4FromOctets(10, 0, 0, 1), []of.Action{of.Output(1)})
				call.Priority = uint16(50 + 150*(i%2))
				if err := e.Check(call); (err == nil) != (i%2 == 0) {
					t.Errorf("check %d: %v", i, err)
				}
			}
		}()
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.HeatSnapshot()
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	<-stopped

	const allows, denies = workers * perWorker / 2, workers * perWorker / 2
	th := tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenInsertFlow)
	if th.Allow != allows || th.Deny != denies {
		t.Fatalf("allow/deny = %d/%d, want %d/%d", th.Allow, th.Deny, allows, denies)
	}
	c0, c1 := th.Clauses[0], th.Clauses[1]
	if c0.Evals != allows+denies || c0.Pass != allows || c0.Fail != denies || c0.ShortCircuits != 0 {
		t.Fatalf("clause 0 = %+v", c0)
	}
	if c1.Evals != allows || c1.Pass != allows || c1.Fail != 0 || c1.ShortCircuits != denies {
		t.Fatalf("clause 1 = %+v", c1)
	}
}

// TestHeatSlabOnlyOnSampledWalk: a grant no sampled walk has reached
// snapshots zero counts beside its rendered clause text, and the
// snapshot leaves it without a slab.
func TestHeatSlabOnlyOnSampledWalk(t *testing.T) {
	prevEnabled := SetHeatEnabled(false)
	defer SetHeatEnabled(prevEnabled)
	e := New(nil)
	e.SetPermissions("m", permlang.MustParse(
		"PERM insert_flow LIMITING (IP_DST 10.1.0.0 MASK 255.255.0.0 OR NOT ACTION DROP) AND MAX_PRIORITY 100").Set())
	if err := e.Check(insertFlowCall("m", of.IPv4FromOctets(10, 1, 0, 1), []of.Action{of.Output(1)})); err != nil {
		t.Fatal(err)
	}
	th := tokenHeatOf(t, e.HeatSnapshot(), "m", core.TokenInsertFlow)
	want := TokenHeat{Token: core.TokenInsertFlow.String(), Clauses: []ClauseHeat{
		{Index: 0, Expr: "(IP_DST 10.1.0.0 MASK 255.255.0.0 OR NOT ACTION DROP)", Dimensions: []string{"action", "pred:IP_DST"}},
		{Index: 1, Expr: "MAX_PRIORITY 100", Dimensions: []string{"priority"}},
	}}
	if !reflect.DeepEqual(th, want) {
		t.Fatalf("unsampled grant snapshots\n%+v\nwant\n%+v", th, want)
	}
	_, g := e.grantFor("m", core.TokenInsertFlow)
	if g.heat.Load() != nil {
		t.Fatal("an unsampled grant holds a heat slab after its snapshot")
	}
}
