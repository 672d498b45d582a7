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
	"testing"
	"time"

	"sdnshield/internal/bench"
	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
	"sdnshield/internal/obs/span"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
)

// BenchmarkTable1Effectiveness runs the §IX-B1 attack-coverage experiment
// (4 proof-of-concept attacks × {baseline, SDNShield}) once per
// iteration and reports how many attacks each runtime stopped.
func BenchmarkTable1Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.RunEffectiveness()
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
	// cost is budgeted on the mediated call (BenchmarkMediatedCallAudit*).
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

// obsProbeApp is the no-op app the telemetry-overhead benchmarks launch:
// the measured work is purely the mediated call path.
type obsProbeApp struct{}

func (obsProbeApp) Name() string                 { return "obsprobe" }
func (obsProbeApp) Init(api isolation.API) error { return nil }

// benchmarkMediatedCall times one mediated read call (app handle → KSD
// deputy → permission check → kernel topology read) with telemetry on or
// off. The two variants bound the instrumentation overhead on the hot
// path; the budget is 5%.
func benchmarkMediatedCall(b *testing.B, obsOn bool) {
	b.ReportAllocs()
	prev := obs.SetEnabled(obsOn)
	defer obs.SetEnabled(prev)
	k := controller.New(nil, nil)
	defer k.Stop()
	shield := isolation.NewShield(k, isolation.Config{})
	defer shield.Stop()
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		b.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := api.Switches(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMediatedCallObsOn(b *testing.B)  { benchmarkMediatedCall(b, true) }
func BenchmarkMediatedCallObsOff(b *testing.B) { benchmarkMediatedCall(b, false) }

// benchmarkMediatedCallAudit times the same mediated call with the audit
// journal on or off (telemetry enabled in both, so the delta isolates the
// audit pipeline: correlation-ID mint + permission-event emit). The
// budget is 5% on the On/Off ratio.
func benchmarkMediatedCallAudit(b *testing.B, auditOn bool) {
	b.ReportAllocs()
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	prevAudit := audit.On()
	audit.SetEnabled(auditOn)
	defer audit.SetEnabled(prevAudit)
	k := controller.New(nil, nil)
	defer k.Stop()
	shield := isolation.NewShield(k, isolation.Config{})
	defer shield.Stop()
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		b.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := api.Switches(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMediatedCallAuditOn(b *testing.B)  { benchmarkMediatedCallAudit(b, true) }
func BenchmarkMediatedCallAuditOff(b *testing.B) { benchmarkMediatedCallAudit(b, false) }

// benchmarkMediatedCallRecorder times the same mediated call with the
// flight recorder on or off (telemetry on, audit off in both, so the
// delta isolates the recorder). Timing rides the latency sampler in
// both modes; what the recorder adds per call is exactly one frame
// append off a precomputed op descriptor — no clock reads, no map
// lookups. The budget is 5% on the On/Off ratio; `make bench-recorder`
// enforces it.
func benchmarkMediatedCallRecorder(b *testing.B, recOn bool) {
	b.ReportAllocs()
	call, cleanup := setupRecorderBench(b, recOn)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// setupRecorderBench prepares one recorder measurement: telemetry on,
// audit off, recorder as requested, probe app launched. The returned
// call runs one mediated call; cleanup tears the shield down and
// restores every global switch.
func setupRecorderBench(tb testing.TB, recOn bool) (call func() error, cleanup func()) {
	prevObs := obs.SetEnabled(true)
	prevAudit := audit.On()
	audit.SetEnabled(false)
	prevRec := recorder.SetEnabled(recOn)
	k := controller.New(nil, nil)
	shield := isolation.NewShield(k, isolation.Config{})
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		tb.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		tb.Fatal(err)
	}
	call = func() error {
		_, err := api.Switches()
		return err
	}
	cleanup = func() {
		shield.Stop()
		k.Stop()
		recorder.SetEnabled(prevRec)
		audit.SetEnabled(prevAudit)
		obs.SetEnabled(prevObs)
	}
	return call, cleanup
}

func BenchmarkMediatedCallRecorderOn(b *testing.B)  { benchmarkMediatedCallRecorder(b, true) }
func BenchmarkMediatedCallRecorderOff(b *testing.B) { benchmarkMediatedCallRecorder(b, false) }

// TestRecorderOverheadBudget enforces the ≤5% recorder budget.
// Benchmarks on shared CI machines are noisy, so the guard only runs
// when asked for (SDNSHIELD_RECORDER_GUARD=1, as `make bench-recorder`
// does); plain `go test ./...` skips it.
func TestRecorderOverheadBudget(t *testing.T) {
	if os.Getenv("SDNSHIELD_RECORDER_GUARD") != "1" {
		t.Skip("set SDNSHIELD_RECORDER_GUARD=1 to run the recorder overhead guard")
	}
	// The measurement has to resolve a ~30ns effect on a ~1µs call
	// under ambient noise (scheduler migrations, load phases, heap
	// layout) worth hundreds of nanoseconds, so three layers of
	// de-biasing: (1) both variants run against ONE shield instance,
	// toggling only the recorder flag, so heap-layout luck cancels in
	// the ratio; (2) within a round the variants interleave in ~10ms
	// chunks, so load phases and CPU migrations — which persist far
	// longer than a chunk — hit both variants near-equally; (3) the
	// verdict is the median ratio across rounds, robust to an outlier
	// round. A genuine regression moves every round's ratio.
	rounds, chunks, chunkIters := 7, 60, 10_000
	if testing.Short() {
		rounds = 5
	}
	call, cleanup := setupRecorderBench(t, false)
	defer cleanup()
	runChunk := func() time.Duration {
		start := time.Now()
		for i := 0; i < chunkIters; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for i := 0; i < chunkIters; i++ { // warmup
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	timeChunk := func(recOn bool) time.Duration {
		recorder.SetEnabled(recOn)
		return runChunk()
	}
	// One ratio per adjacent off/on chunk pair; the verdict is the
	// median over every pair of every round. Odd rounds lead with the
	// recorder on so any systematic first-vs-second-chunk effect
	// cancels across rounds.
	ratios := make([]float64, 0, rounds*chunks/2)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var offNs, onNs int64
		for c := 0; c < chunks/2; c++ {
			var off, on time.Duration
			if r%2 == 0 {
				off = timeChunk(false)
				on = timeChunk(true)
			} else {
				on = timeChunk(true)
				off = timeChunk(false)
			}
			offNs += off.Nanoseconds()
			onNs += on.Nanoseconds()
			ratios = append(ratios, float64(on)/float64(off))
		}
		perOp := float64(chunks/2) * float64(chunkIters)
		t.Logf("round %d: recorder off %.0f ns/op, on %.0f ns/op (%+.2f%%)",
			r, float64(offNs)/perOp, float64(onNs)/perOp, (float64(onNs)/float64(offNs)-1)*100)
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("mediated call: median recorder overhead %+.2f%% across %d chunk pairs", overhead*100, len(ratios))
	if overhead > 0.05 {
		t.Fatalf("recorder overhead %.2f%% exceeds the 5%% budget (median of %d chunk-pair ratios)", overhead*100, len(ratios))
	}
}

// benchmarkMediatedCallSpan times the same mediated call with the span
// layer on or off (telemetry on, audit and recorder off in both, so the
// delta isolates causal tracing). The unsampled majority of calls never
// reaches span code — their whole tracing cost is the measurement
// sampler's one atomic add, which both variants pay — and the traced
// subset's span writes are amortized across the sampling period. The budget is 5% on the On/Off ratio; `make bench-trace`
// enforces it.
func benchmarkMediatedCallSpan(b *testing.B, spanOn bool) {
	b.ReportAllocs()
	call, cleanup := setupSpanBench(b, spanOn)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// setupSpanBench prepares one span measurement: telemetry on, audit and
// recorder off, span layer as requested, probe app launched.
func setupSpanBench(tb testing.TB, spanOn bool) (call func() error, cleanup func()) {
	prevObs := obs.SetEnabled(true)
	prevAudit := audit.On()
	audit.SetEnabled(false)
	prevRec := recorder.SetEnabled(false)
	prevSpan := span.SetEnabled(spanOn)
	k := controller.New(nil, nil)
	shield := isolation.NewShield(k, isolation.Config{})
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		tb.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		tb.Fatal(err)
	}
	call = func() error {
		_, err := api.Switches()
		return err
	}
	cleanup = func() {
		shield.Stop()
		k.Stop()
		span.SetEnabled(prevSpan)
		recorder.SetEnabled(prevRec)
		audit.SetEnabled(prevAudit)
		obs.SetEnabled(prevObs)
	}
	return call, cleanup
}

func BenchmarkMediatedCallSpanOn(b *testing.B)  { benchmarkMediatedCallSpan(b, true) }
func BenchmarkMediatedCallSpanOff(b *testing.B) { benchmarkMediatedCallSpan(b, false) }

// TestSpanOverheadBudget enforces the ≤5% span-layer budget on the
// mediated-call hot path, with the same de-biasing as the recorder
// guard: one shield instance, interleaved ~10ms chunks, median ratio
// across rounds. Runs only under SDNSHIELD_SPAN_GUARD=1 (as `make
// bench-trace` does); plain `go test ./...` skips it.
func TestSpanOverheadBudget(t *testing.T) {
	if os.Getenv("SDNSHIELD_SPAN_GUARD") != "1" {
		t.Skip("set SDNSHIELD_SPAN_GUARD=1 to run the span overhead guard")
	}
	rounds, chunks, chunkIters := 7, 60, 10_000
	if testing.Short() {
		rounds = 5
	}
	call, cleanup := setupSpanBench(t, false)
	defer cleanup()
	runChunk := func() time.Duration {
		start := time.Now()
		for i := 0; i < chunkIters; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for i := 0; i < chunkIters; i++ { // warmup
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	timeChunk := func(spanOn bool) time.Duration {
		span.SetEnabled(spanOn)
		return runChunk()
	}
	ratios := make([]float64, 0, rounds*chunks/2)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var offNs, onNs int64
		for c := 0; c < chunks/2; c++ {
			var off, on time.Duration
			if r%2 == 0 {
				off = timeChunk(false)
				on = timeChunk(true)
			} else {
				on = timeChunk(true)
				off = timeChunk(false)
			}
			offNs += off.Nanoseconds()
			onNs += on.Nanoseconds()
			ratios = append(ratios, float64(on)/float64(off))
		}
		perOp := float64(chunks/2) * float64(chunkIters)
		t.Logf("round %d: span off %.0f ns/op, on %.0f ns/op (%+.2f%%)",
			r, float64(offNs)/perOp, float64(onNs)/perOp, (float64(onNs)/float64(offNs)-1)*100)
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("mediated call: median span overhead %+.2f%% across %d chunk pairs", overhead*100, len(ratios))
	if overhead > 0.05 {
		t.Fatalf("span overhead %.2f%% exceeds the 5%% budget (median of %d chunk-pair ratios)", overhead*100, len(ratios))
	}
}

// benchmarkMediatedCallHeat times the same mediated call with heat
// profiling on or off (telemetry on, audit/recorder/span off in both,
// so the delta isolates the heat layer). The unsampled majority of
// checks pays exactly one atomic load and one atomic add before taking
// the fused compiled path; only 1-in-64 checks walk the instrumented
// per-clause route. The budget is 5% on the On/Off ratio; `make
// bench-heat` enforces it.
func benchmarkMediatedCallHeat(b *testing.B, heatOn bool) {
	b.ReportAllocs()
	call, cleanup := setupHeatBench(b, heatOn)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// setupHeatBench prepares one heat measurement: telemetry on, audit,
// recorder and span off, heat profiling as requested at the default
// sampling rate, probe app launched.
func setupHeatBench(tb testing.TB, heatOn bool) (call func() error, cleanup func()) {
	prevObs := obs.SetEnabled(true)
	prevAudit := audit.On()
	audit.SetEnabled(false)
	prevRec := recorder.SetEnabled(false)
	prevSpan := span.SetEnabled(false)
	prevHeat := permengine.SetHeatEnabled(heatOn)
	k := controller.New(nil, nil)
	shield := isolation.NewShield(k, isolation.Config{})
	shield.SetPermissions("obsprobe", permlang.MustParse("PERM visible_topology\n").Set())
	if err := shield.Launch(obsProbeApp{}); err != nil {
		tb.Fatal(err)
	}
	api, err := isolation.AttackerHandle(shield, "obsprobe")
	if err != nil {
		tb.Fatal(err)
	}
	call = func() error {
		_, err := api.Switches()
		return err
	}
	cleanup = func() {
		shield.Stop()
		k.Stop()
		permengine.SetHeatEnabled(prevHeat)
		span.SetEnabled(prevSpan)
		recorder.SetEnabled(prevRec)
		audit.SetEnabled(prevAudit)
		obs.SetEnabled(prevObs)
	}
	return call, cleanup
}

func BenchmarkMediatedCallHeatOn(b *testing.B)  { benchmarkMediatedCallHeat(b, true) }
func BenchmarkMediatedCallHeatOff(b *testing.B) { benchmarkMediatedCallHeat(b, false) }

// TestHeatOverheadBudget enforces the ≤5% heat-profiling budget on the
// mediated-call hot path, with the same de-biasing as the recorder and
// span guards: one shield instance, interleaved ~10ms chunks, median
// ratio across rounds. Runs only under SDNSHIELD_HEAT_GUARD=1 (as
// `make bench-heat` does); plain `go test ./...` skips it.
func TestHeatOverheadBudget(t *testing.T) {
	if os.Getenv("SDNSHIELD_HEAT_GUARD") != "1" {
		t.Skip("set SDNSHIELD_HEAT_GUARD=1 to run the heat overhead guard")
	}
	rounds, chunks, chunkIters := 7, 60, 10_000
	if testing.Short() {
		rounds = 5
	}
	call, cleanup := setupHeatBench(t, false)
	defer cleanup()
	runChunk := func() time.Duration {
		start := time.Now()
		for i := 0; i < chunkIters; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for i := 0; i < chunkIters; i++ { // warmup
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	timeChunk := func(heatOn bool) time.Duration {
		permengine.SetHeatEnabled(heatOn)
		return runChunk()
	}
	ratios := make([]float64, 0, rounds*chunks/2)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var offNs, onNs int64
		for c := 0; c < chunks/2; c++ {
			var off, on time.Duration
			if r%2 == 0 {
				off = timeChunk(false)
				on = timeChunk(true)
			} else {
				on = timeChunk(true)
				off = timeChunk(false)
			}
			offNs += off.Nanoseconds()
			onNs += on.Nanoseconds()
			ratios = append(ratios, float64(on)/float64(off))
		}
		perOp := float64(chunks/2) * float64(chunkIters)
		t.Logf("round %d: heat off %.0f ns/op, on %.0f ns/op (%+.2f%%)",
			r, float64(offNs)/perOp, float64(onNs)/perOp, (float64(onNs)/float64(offNs)-1)*100)
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("mediated call: median heat overhead %+.2f%% across %d chunk pairs", overhead*100, len(ratios))
	if overhead > 0.05 {
		t.Fatalf("heat overhead %.2f%% exceeds the 5%% budget (median of %d chunk-pair ratios)", overhead*100, len(ratios))
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
