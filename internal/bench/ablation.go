package bench

import (
	"fmt"
	"time"

	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/permengine"
)

// AblationRow is one measurement of an implementation-choice ablation.
type AblationRow struct {
	Study   string
	Variant string
	Metric  string
	Value   float64
}

// RunAblations measures the design choices DESIGN.md calls out:
//
//   - compiled vs interpreted permission checking (§VI-B "compiles the
//     permission manifest into runtime checking code");
//   - KSD slot count (§VI-A "multiple instances of KSDs can run in
//     parallel": here, how many mediated calls may run at once);
//   - Algorithm 1 normalization cost as filter expressions grow
//     (reconciliation's building block).
func RunAblations() ([]AblationRow, error) {
	var rows []AblationRow

	rows = append(rows, ablationCompiledVsInterpreted()...)

	ksd, err := ablationKSDSlots()
	if err != nil {
		return nil, err
	}
	rows = append(rows, ksd...)

	rows = append(rows, ablationInclusionCost()...)
	return rows, nil
}

// ablationCompiledVsInterpreted compares the compiled checking closure
// against direct interpretation of the same filter expression tree, on
// identical calls (the pure filter-evaluation cost, without engine
// bookkeeping).
func ablationCompiledVsInterpreted() []AblationRow {
	set := BuildComplexityManifestFor(core.TokenInsertFlow, 1, 20)
	expr, _ := set.FilterFor(core.TokenInsertFlow)
	compiled := permengine.CompileFilter(expr)
	trace := fig5Trace(20000, 0.05, core.TokenInsertFlow, 7)

	for _, call := range trace[:2000] {
		compiled(call)
	}
	start := time.Now()
	for _, call := range trace {
		compiled(call)
	}
	compiledNs := float64(time.Since(start).Nanoseconds()) / float64(len(trace))

	for _, call := range trace[:2000] {
		expr.Eval(call)
	}
	start = time.Now()
	for _, call := range trace {
		expr.Eval(call)
	}
	interpretedNs := float64(time.Since(start).Nanoseconds()) / float64(len(trace))

	return []AblationRow{
		{Study: "checking", Variant: "compiled closure", Metric: "ns/check", Value: compiledNs},
		{Study: "checking", Variant: "interpreted tree", Metric: "ns/check", Value: interpretedNs},
	}
}

// ablationKSDSlots sweeps the deputy slot count under the L2 latency
// probe.
func ablationKSDSlots() ([]AblationRow, error) {
	var rows []AblationRow
	for _, slots := range []int{1, 2, 4, 8} {
		env, err := newScenarioEnv(2, "sdnshield", isolation.Config{KSDWorkers: slots})
		if err != nil {
			return nil, err
		}
		if _, err := env.setupL2(); err != nil {
			env.close()
			return nil, err
		}
		samples := make([]time.Duration, 0, 50)
		for i := 0; i < 50; i++ {
			d, err := env.switches[i%len(env.switches)].MeasureLatency(1, 2, probeTimeout)
			if err != nil {
				env.close()
				return nil, err
			}
			samples = append(samples, d)
		}
		env.close()
		rows = append(rows, AblationRow{
			Study:   "ksd-slots",
			Variant: fmt.Sprintf("slots=%d", slots),
			Metric:  "median-latency-ns",
			Value:   float64(Summarize(samples).Median.Nanoseconds()),
		})
	}
	return rows, nil
}

// ablationInclusionCost measures Algorithm 1 as the right operand's
// disjunction grows.
func ablationInclusionCost() []AblationRow {
	var rows []AblationRow
	boundary := BuildComplexityManifestFor(core.TokenInsertFlow, 1, 21)
	boundaryExpr, _ := boundary.FilterFor(core.TokenInsertFlow)
	for _, width := range []int{2, 8, 32} {
		request := BuildComplexityManifestFor(core.TokenInsertFlow, 1, width+2)
		requestExpr, _ := request.FilterFor(core.TokenInsertFlow)
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			//nolint:errcheck
			core.Includes(boundaryExpr, requestExpr)
		}
		rows = append(rows, AblationRow{
			Study:   "algorithm1",
			Variant: fmt.Sprintf("%d-filter request", width),
			Metric:  "ns/inclusion",
			Value:   float64(time.Since(start).Nanoseconds()) / iters,
		})
	}
	return rows
}

// FormatAblations renders the ablation rows.
func FormatAblations(rows []AblationRow) string {
	t := NewTable("Ablations: implementation choices",
		"study", "variant", "metric", "value")
	for _, r := range rows {
		t.AddRow(r.Study, r.Variant, r.Metric, fmt.Sprintf("%.1f", r.Value))
	}
	return t.String()
}
