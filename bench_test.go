package sdnshield

// This file holds one testing.B benchmark per table/figure of the
// paper's evaluation (§IX). Each delegates to the shared experiment
// runners in internal/bench, which the sdnbench CLI uses to print the
// paper-style rows; the benchmarks here report the same quantities as
// per-op metrics so `go test -bench=. -benchmem` regenerates every
// result.

import (
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"sdnshield/internal/bench"
	"sdnshield/internal/cbench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
)

// BenchmarkTable1Effectiveness runs the §IX-B1 attack-coverage experiment
// (4 proof-of-concept attacks × {baseline, SDNShield}) once per
// iteration and reports how many attacks each runtime stopped.
func BenchmarkTable1Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.RunEffectiveness(nil)
		if err != nil {
			b.Fatal(err)
		}
		var baselineBlocked, shieldBlocked float64
		for _, o := range outcomes {
			if !o.Succeeded {
				if o.Runtime == "baseline" {
					baselineBlocked++
				} else {
					shieldBlocked++
				}
			}
		}
		b.ReportMetric(baselineBlocked, "baseline-blocked/4")
		b.ReportMetric(shieldBlocked, "sdnshield-blocked/4")
	}
}

// benchmarkFig5 measures single-core permission-check cost for one
// manifest complexity and API (the bars of Figure 5).
func benchmarkFig5(b *testing.B, tokens, filtersPerToken int, api core.Token) {
	// Match RunFig5: the raw check path is measured audit-off; the audit
	// cost is budgeted on the mediated call (TestInstrumentOverheadBudget).
	wasOn := audit.On()
	audit.SetEnabled(false)
	defer audit.SetEnabled(wasOn)
	set := bench.BuildComplexityManifestFor(api, tokens, filtersPerToken)
	engine := permengine.New(nil)
	engine.SetPermissions("bench", set)
	trace := bench.Fig5TraceForBench(4096, api)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//nolint:errcheck // ~5% of the trace is denied by design
		engine.Check(trace[i%len(trace)])
	}
}

func BenchmarkFig5InsertFlowSmall(b *testing.B) {
	benchmarkFig5(b, 1, 10, core.TokenInsertFlow)
}

func BenchmarkFig5InsertFlowMedium(b *testing.B) {
	benchmarkFig5(b, 5, 15, core.TokenInsertFlow)
}

func BenchmarkFig5InsertFlowLarge(b *testing.B) {
	benchmarkFig5(b, 15, 20, core.TokenInsertFlow)
}

func BenchmarkFig5ReadStatisticsSmall(b *testing.B) {
	benchmarkFig5(b, 1, 10, core.TokenReadStatistics)
}

func BenchmarkFig5ReadStatisticsMedium(b *testing.B) {
	benchmarkFig5(b, 5, 15, core.TokenReadStatistics)
}

func BenchmarkFig5ReadStatisticsLarge(b *testing.B) {
	benchmarkFig5(b, 15, 20, core.TokenReadStatistics)
}

// BenchmarkFig6Latency reports median control-plane latency for both
// scenarios and runtimes at a fixed switch count (the sdnbench CLI sweeps
// switch counts).
func BenchmarkFig6Latency(b *testing.B) {
	rounds := b.N
	if rounds < 10 {
		rounds = 10
	}
	if rounds > 500 {
		rounds = 500
	}
	rows, err := bench.RunFig6([]int{4}, rounds)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Latency.Median.Nanoseconds()),
			r.Scenario+"-"+r.Runtime+"-median-ns")
	}
}

// BenchmarkFig7Throughput reports sustained responses/sec under packet-in
// flood for both runtimes.
func BenchmarkFig7Throughput(b *testing.B) {
	duration := time.Duration(b.N) * time.Millisecond
	if duration < 100*time.Millisecond {
		duration = 100 * time.Millisecond
	}
	if duration > 2*time.Second {
		duration = 2 * time.Second
	}
	rows, err := bench.RunFig7([]int{4}, duration)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.ResponsesPerSec, r.Runtime+"-responses/s")
	}
}

// BenchmarkFig8Scalability reports latency medians while concurrent apps
// of growing complexity share the controller.
func BenchmarkFig8Scalability(b *testing.B) {
	rounds := b.N
	if rounds < 8 {
		rounds = 8
	}
	if rounds > 200 {
		rounds = 200
	}
	rows, err := bench.RunFig8([]int{1, 8}, []int{16}, rounds)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Runtime != "sdnshield" {
			continue
		}
		name := "apps"
		switch {
		case r.Apps == 1 && r.CallsPerEvent == 1:
			name = "apps1-calls1-median-ns"
		case r.Apps == 8:
			name = "apps8-calls1-median-ns"
		default:
			name = "apps1-calls16-median-ns"
		}
		b.ReportMetric(float64(r.Latency.Median.Nanoseconds()), name)
	}
}

// obsProbeApp is the no-op app the mediated-call measurements launch:
// the measured work is purely the mediated call path.
type obsProbeApp struct{}

func (obsProbeApp) Name() string                 { return "obsprobe" }
func (obsProbeApp) Init(api isolation.API) error { return nil }

// newProbeCall launches obsProbeApp on a fresh shield, torn down when
// tb ends, and returns one mediated read call (app handle → KSD slot
// → permission check → kernel topology read). It touches no instrument
// switch, so the call runs with whatever the process has set.
func newProbeCall(tb testing.TB) func() error {
	k := controller.New(nil, nil)
	shield := isolation.NewShield(k, isolation.Config{})
	tb.Cleanup(func() {
		shield.Stop()
		k.Stop()
	})
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		tb.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		_, err := api.Switches()
		return err
	}
}

// BenchmarkMediatedCall times one mediated read call with every
// instrument at its shipping default: what the benchmark's workloads
// measure and what users pay.
func BenchmarkMediatedCall(b *testing.B) {
	b.ReportAllocs()
	call := newProbeCall(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMediatedCallParallel times an allowed mediated InsertFlow that
// replaces the caller's own rule in place, from b.RunParallel: every
// goroutine is a thread of one app, each on one of four switches with a
// rule of its own, so what the calls share is the app, the deputy slots,
// the engine and the kernel — run it at -cpu 1,2,4 to see them scale.
func BenchmarkMediatedCallParallel(b *testing.B) {
	const switches = 4
	k := controller.New(nil, nil)
	shield := isolation.NewShield(k, isolation.Config{})
	b.Cleanup(func() {
		shield.Stop()
		k.Stop()
	})
	for dpid := of.DPID(1); dpid <= switches; dpid++ {
		fs, err := cbench.Connect(k, dpid, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { fs.Close() })
	}
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM insert_flow LIMITING ACTION FORWARD\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		b.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		b.Fatal(err)
	}
	var threads atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := threads.Add(1)
		dpid := of.DPID(1 + n%switches)
		spec := controller.FlowSpec{Match: of.NewMatch().Set(of.FieldTPDst, n), Priority: 10, Actions: []of.Action{of.Output(2)}}
		for pb.Next() {
			if err := api.InsertFlow(dpid, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// instruments are the process-wide switches on the mediated call path
// that TestInstrumentOverheadBudget holds to budget, one row each; every
// setter returns the state it replaced. obs measures at or above 5% at
// shipping defaults on a shield of its own, so it has no row; the
// recorder's switch gates bundle captures, not the call (DESIGN.md §10,
// §13).
var instruments = []struct {
	name string
	set  func(bool) bool
}{
	{"audit", audit.SetEnabled},
	{"span", span.SetEnabled},
	{"heat", permengine.SetHeatEnabled},
}

// TestInstrumentOverheadBudget holds the cost of each switch in
// instruments on the mediated call within 5%: with every instrument at
// its shipping default, a row toggles only its own switch and compares
// the call with it on and off. Benchmarks on shared CI machines are
// noisy, so only SDNSHIELD_OVERHEAD_GUARD=1 (`make bench-overhead`)
// runs the guard; plain `go test ./...` skips it.
func TestInstrumentOverheadBudget(t *testing.T) {
	if os.Getenv("SDNSHIELD_OVERHEAD_GUARD") != "1" {
		t.Skip("set SDNSHIELD_OVERHEAD_GUARD=1 to run the instrument overhead guard")
	}
	// The measurement has to resolve a ~30ns effect on a ~1µs call
	// under ambient noise (scheduler migrations, load phases, heap
	// layout) worth hundreds of nanoseconds, so three layers of
	// de-biasing: (1) both variants of a row run against ONE shield
	// instance, toggling only the row's switch, so heap-layout luck
	// cancels in the ratio; (2) within a round the variants interleave
	// in ~10ms chunks, so load phases and CPU migrations — which persist
	// far longer than a chunk — hit both variants near-equally; (3) the
	// verdict is the median ratio across rounds, robust to an outlier
	// round. A genuine regression moves every round's ratio. Each row
	// warms a shield of its own, free of state earlier rows left behind.
	rounds, chunks, chunkIters := 7, 60, 10_000
	if testing.Short() {
		rounds = 5
	}
	for _, in := range instruments {
		t.Run(in.name, func(t *testing.T) {
			// Restore the switch whatever the outcome: no later test sees it flipped.
			defer in.set(in.set(true))
			call := newProbeCall(t)
			timeChunk := func(on bool) time.Duration {
				in.set(on)
				start := time.Now()
				for i := 0; i < chunkIters; i++ {
					if err := call(); err != nil {
						t.Fatal(err)
					}
				}
				return time.Since(start)
			}
			timeChunk(true) // warmup
			// One ratio per adjacent off/on chunk pair; the verdict is
			// the median over every pair of every round. Odd rounds lead
			// with the switch on so any systematic first-vs-second-chunk
			// effect cancels across rounds.
			ratios := make([]float64, 0, rounds*chunks/2)
			for r := 0; r < rounds; r++ {
				runtime.GC()
				var offNs, onNs time.Duration
				for c := 0; c < chunks/2; c++ {
					var off, on time.Duration
					if r%2 == 0 {
						off = timeChunk(false)
						on = timeChunk(true)
					} else {
						on = timeChunk(true)
						off = timeChunk(false)
					}
					offNs += off
					onNs += on
					ratios = append(ratios, float64(on)/float64(off))
				}
				perOp := float64(chunks / 2 * chunkIters)
				t.Logf("round %d: %s off %.0f ns/op, on %.0f ns/op (%+.2f%%)",
					r, in.name, float64(offNs)/perOp, float64(onNs)/perOp, (float64(onNs)/float64(offNs)-1)*100)
			}
			sort.Float64s(ratios)
			overhead := ratios[len(ratios)/2] - 1
			t.Logf("mediated call: median %s overhead %+.2f%% across %d chunk pairs", in.name, overhead*100, len(ratios))
			if overhead > 0.05 {
				t.Fatalf("%s overhead %.2f%% exceeds the 5%% budget (median of %d chunk-pair ratios)", in.name, overhead*100, len(ratios))
			}
		})
	}
}

// BenchmarkReconcile measures one full reconciliation of the large
// complexity manifest against a constraint-heavy policy (§IX-A: never
// exceeds one second).
func BenchmarkReconcile(b *testing.B) {
	set := bench.BuildComplexityManifest(15, 20)
	manifest, err := ParseManifest(set.String())
	if err != nil {
		b.Fatal(err)
	}
	policy, err := ParsePolicy(`
LET boundary = {
	PERM visible_topology
	PERM read_statistics LIMITING PORT_LEVEL
	PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS
	PERM network_access LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0
}
ASSERT EITHER { PERM network_access } OR { PERM send_packet_out }
ASSERT EITHER { PERM host_network } OR { PERM insert_flow }
ASSERT APP pressured <= boundary
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile("pressured", manifest, policy); err != nil {
			b.Fatal(err)
		}
	}
}
