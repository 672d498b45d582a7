package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sdnshield/internal/permlang"
)

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	q1, q2, q3 := quartiles(v)
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, q2, q3)
	}
	s := sortedCopy(v)
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {1, 5}, {0.5, 3}, {0.125, 1.5}, {0.95, 4.8}} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	sum := summarize([]float64{10, 20, 30, 40}, "us")
	if sum.Value != 25 || sum.Q1 != 17.5 || sum.Q3 != 32.5 || sum.N != 4 || sum.Unit != "us" {
		t.Errorf("summarize = %+v", sum)
	}
}

func TestSelfTimesClipChildrenToParent(t *testing.T) {
	spans := []span{
		{Name: spanFlowsetup, Op: 1, Start: 100, End: 200},
		{Name: spanDeliver, Op: 1, Start: 100, End: 130},
		{Name: spanHandler, Op: 1, Start: 130, End: 260}, // outlives the parent
		{Name: spanHandler, Op: 2, Start: 0, End: 50},    // parent never recorded
		{Name: spanFlowsetup, Arm: armMono, Op: 1, Start: 0, End: 10},
	}
	self, cover := selfTimes(spans, spanFlowsetup, armShield, spanDeliver, spanHandler)
	if len(self) != 1 || self[0] != 0 || cover[0] != 1 {
		t.Errorf("self=%v cover=%v, want [0] [1]", self, cover)
	}
	self, cover = selfTimes(spans, spanFlowsetup, armShield, spanDeliver)
	if len(self) != 1 || self[0] != 70 || math.Abs(cover[0]-0.3) > 1e-9 {
		t.Errorf("self=%v cover=%v, want [70] [0.3]", self, cover)
	}
	if got := spanDurations(spans, spanHandler, armShield); len(got) != 2 || got[0] != 130 {
		t.Errorf("spanDurations = %v", got)
	}
}

// inputHashes generates every seeded input and digests it.
func inputHashes(seed int64) (corpus, calls, pairs uint64) {
	oracle := permlang.MustParse(complexityManifest(large, 0)).Set()
	trace := genCalls(rand.New(rand.NewSource(seed)), 2048, 0, apiKeys, 1, oracle)
	sc := &pktinScenario{}
	r := rand.New(rand.NewSource(seed))
	sc.pairs = make([][2]uint8, 1024)
	for i := range sc.pairs {
		sc.pairs[i] = [2]uint8{uint8(r.Intn(256)), uint8(r.Intn(256))}
	}
	return hashCorpus(genCorpus(seed, 200)), hashCalls(trace), hashPairs(sc.pairs)
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	c1, t1, p1 := inputHashes(7)
	c2, t2, p2 := inputHashes(7)
	if c1 != c2 || t1 != t2 || p1 != p2 {
		t.Errorf("same seed, different inputs: corpus %x/%x calls %x/%x pairs %x/%x", c1, c2, t1, t2, p1, p2)
	}
	c3, t3, p3 := inputHashes(8)
	if c1 == c3 || t1 == t3 || p1 == p3 {
		t.Errorf("seeds 7 and 8 gave the same inputs: corpus %v calls %v pairs %v", c1 == c3, t1 == t3, p1 == p3)
	}
}

func TestCorpusMixIsExact(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		counts := map[releaseClass]int{}
		for _, rel := range genCorpus(seed, 200) {
			counts[rel.class]++
		}
		want := map[releaseClass]int{classRepaired: 50, classRejected: 10, classTampered: 6, classApproved: 134}
		for c, n := range want {
			if counts[c] != n {
				t.Errorf("seed %d: %d %s releases, want %d", seed, counts[c], c, n)
			}
		}
	}
	oracle := permlang.MustParse(complexityManifest(medium, 0)).Set()
	denied := 0
	for _, c := range genCalls(rand.New(rand.NewSource(1)), 4000, 0, 64, 1, oracle) {
		if !c.allowed {
			denied++
		}
	}
	if denied < 120 || denied > 280 {
		t.Errorf("%d of 4000 generated calls violate, want about 5 %%", denied)
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// lineNames parses a contract line and returns its metric names.
func lineNames(t *testing.T, line string) []string {
	t.Helper()
	var doc struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("contract line does not parse: %v\n%s", err, line)
	}
	if !doc.Correct || doc.Attempted < 1 || doc.Failed != 0 {
		t.Errorf("contract line reports correct=%v attempted=%d failed=%d", doc.Correct, doc.Attempted, doc.Failed)
	}
	var names []string
	for n, m := range doc.Metrics {
		names = append(names, n)
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", n)
		}
	}
	sort.Strings(names)
	return names
}

// measuredNames lists every metric a run measured, the "x." extras of
// the human report aside: each must be named in BENCHMARK.json.
func measuredNames(o *outcome) []string {
	var names []string
	for n := range o.Metrics {
		if !strings.HasPrefix(n, "x.") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smokeOptions sizes a run for the smoke tests: one round of 200 ms on
// one set-up, a small corpus and short probes.
var smokeOptions = options{seconds: 0.2, minRounds: 1, setupRepeats: 1, corpus: 100, probeDiv: 20}

// TestSmokeEveryWorkload runs one short round of every workload with
// tracing off: nothing may fail, and the metrics that reach the contract
// line are exactly BENCHMARK.json's end-to-end metrics, none of them zero.
func TestSmokeEveryWorkload(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, c.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := runPlain(w, 1, smokeOptions)
			if err != nil {
				t.Fatal(err)
			}
			if o.FailShare != 0 || !o.Correct {
				t.Errorf("fail_share=%v correct=%v failures=%v", o.FailShare, o.Correct, o.Failures)
			}
			line, err := contractLine(o, c.EndToEnd)
			if err != nil {
				t.Fatal(err)
			}
			want := metricNames(c.EndToEnd)
			if got := lineNames(t, line); !equalNames(got, want) {
				t.Errorf("emitted %v, BENCHMARK.json lists %v", got, want)
			}
			if got := measuredNames(o); !equalNames(got, want) {
				t.Errorf("measured %v, BENCHMARK.json lists %v", got, want)
			}
			for _, d := range c.EndToEnd {
				if o.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.Name, o.Metrics[d.Name].Value)
				}
				if o.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s has unit %q, BENCHMARK.json says %q", d.Name, o.Metrics[d.Name].Unit, d.Unit)
				}
			}
		})
	}
}

// TestSmokeTracedRun runs one short traced run: it must emit exactly
// BENCHMARK.json's per-layer metrics and leave the process-wide
// instrument switches as it found them.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run drives all four scenarios and the probes")
	}
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	before := instrumentStates()
	w, _ := findWorkload("hosted_churn")
	o, err := runTraced(w, 1, smokeOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct {
		t.Errorf("traced run incorrect: %v", o.Failures)
	}
	line, err := contractLine(o, c.PerLayer)
	if err != nil {
		t.Fatal(err)
	}
	want := metricNames(c.PerLayer)
	if got := lineNames(t, line); !equalNames(got, want) {
		t.Errorf("emitted %v\nBENCHMARK.json lists %v", got, want)
	}
	if got := measuredNames(o); !equalNames(got, want) {
		t.Errorf("measured %v\nBENCHMARK.json lists %v", got, want)
	}
	for _, d := range c.PerLayer {
		if o.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", d.Name, o.Metrics[d.Name].Unit, d.Unit)
		}
	}
	for name, on := range instrumentStates() {
		if before[name] != on {
			t.Errorf("instrument %s was left %v, found %v", name, on, before[name])
		}
	}
	if o.TraceFile == "" {
		t.Error("no span file was written")
	}
}
