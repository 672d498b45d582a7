package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opStat is one round's digest of one kind of operation: latency
// percentiles in microseconds over the round's samples, completions per
// second of the round's wall time, and how many were attempted (failed
// ones included) and failed.
type opStat struct {
	P50, P95, P99 float64
	PerSec        float64
	Ops, Failed   int64
}

// latencyStat digests a round's latency samples (ns) taken over wall.
func latencyStat(ns []int64, wall time.Duration, failed int64) opStat {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	return opStat{
		P50: percentile(us, 0.50), P95: percentile(us, 0.95), P99: percentile(us, 0.99),
		PerSec: float64(len(ns)) / wall.Seconds(), Ops: int64(len(ns)) + failed, Failed: failed,
	}
}

// scenario is one workload's world: what set-up builds, what one timed
// round does, and what must hold when the run ends.
type scenario interface {
	// setup builds the world from the seed. tr is nil on an untraced run;
	// on a traced run the decorators are installed and tr.on gates them.
	setup(seed int64, tr *tracer) error
	// round runs one timed round of about d and returns a digest per
	// operation kind. allocOps is how many operations the allocation
	// count of the round is divided by, and mallocs that count.
	round(i int, d time.Duration) (stats map[string]opStat, mallocs uint64, allocOps int64)
	// verify runs the end-of-run correctness checks and returns what failed.
	verify() []string
	// failures returns descriptions of failed operations seen so far.
	failures() []string
	// inputs describes the generated inputs (hashes, exact counts).
	inputs() map[string]any
	// spanTree is the scenario's span tree, child → parent.
	spanTree() map[spanName]spanName
	close()
}

// workload names a scenario and which of its operation kinds the
// end-to-end metrics report; why each was chosen is in BENCHMARK.json and
// the README.
type workload struct {
	name     string
	scenario string
	primary  string
}

var workloads = []workload{
	{"pktin_l2", "pktin", "shield"},
	{"api_large", "api", "call"},
	{"market_install", "market", "admit"},
	{"hosted_churn", "hosted", "call"},
	{"hosted_upgrade", "hosted", "upgrade"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func newScenario(kind string, opts options) scenario {
	switch kind {
	case "pktin":
		return &pktinScenario{}
	case "api":
		return &apiScenario{}
	case "market":
		return &marketScenario{size: opts.corpus}
	case "hosted":
		return &hostedScenario{}
	}
	panic("unknown scenario " + kind)
}

// runResult is everything one scenario run measured.
type runResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	SetupS []float64 `json:"setup_s"`
	// Rounds holds the per-round digests of untraced rounds by operation
	// kind; TracedRounds those of traced rounds (traced runs only).
	Rounds       map[string][]opStat `json:"rounds"`
	TracedRounds map[string][]opStat `json:"traced_rounds,omitempty"`

	AllocsPerOp float64 `json:"allocs_per_op"`
	LiveHeapMB  float64 `json:"live_heap_mb"`
	GCCPUShare  float64 `json:"gc_cpu_share"`

	Attempted int64          `json:"ops_attempted"`
	Failed    int64          `json:"ops_failed"`
	Failures  []string       `json:"failures,omitempty"`
	Noisy     bool           `json:"noisy"`
	Inputs    map[string]any `json:"inputs"`

	spans   []span
	dropped int64
	tree    map[spanName]spanName
}

// options sizes a run. The command always uses defaultOptions; the smoke
// tests shrink them so that they run in seconds.
type options struct {
	seconds   float64 // how long the timed rounds run
	minRounds int     // rounds behind every median, at the least
	// setupRepeats is how many times a plain run builds its world;
	// setup_s is the median, so one slow build does not set the metric.
	setupRepeats int
	corpus       int // releases in the market_install corpus
	probeDiv     int // divides the probes' iteration counts
}

func defaultOptions(seconds float64) options {
	return options{seconds: seconds, minRounds: 10, setupRepeats: 5, corpus: 1000, probeDiv: 1}
}

// runScenario sets the scenario up, runs warm-up and timed rounds for
// about seconds, checks correctness and tears it down. With a tracer the
// decorators are installed and rounds alternate untraced and traced on
// the same set-up.
func runScenario(kind string, seed int64, opts options, tr *tracer) (*runResult, error) {
	traced, seconds, minRounds := tr != nil, opts.seconds, opts.minRounds
	res := &runResult{Scenario: kind, Seed: seed, Traced: traced,
		Rounds: map[string][]opStat{}, TracedRounds: map[string][]opStat{}}

	// A traced run reports no set-up time, so it builds its world once.
	repeats := opts.setupRepeats
	if traced {
		repeats = 1
	}
	var sc scenario
	for i := 0; i < repeats; i++ {
		if sc != nil {
			sc.close()
		}
		sc = newScenario(kind, opts)
		t0 := time.Now()
		if err := sc.setup(seed, tr); err != nil {
			sc.close()
			return nil, fmt.Errorf("%s: set-up: %w", kind, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer sc.close()
	res.Inputs = sc.inputs()
	res.tree = sc.spanTree()

	// Rounds run until the time is up, and at least minRounds of them (a
	// traced run alternates untraced and traced rounds). One discarded
	// warm-up round lets caches and pools fill first.
	roundDur := time.Duration(seconds / float64(minRounds+2) * float64(time.Second))
	sc.round(-1, roundDur/2)

	gc0 := gcCPU()
	var mallocs uint64
	var allocOps int64
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		tracedRound := traced && i%2 == 1
		if tr != nil {
			tr.on.Store(tracedRound)
		}
		stats, m, ops := sc.round(i, roundDur)
		dst := res.Rounds
		if tracedRound {
			dst = res.TracedRounds
		} else {
			mallocs += m
			allocOps += ops
		}
		for k, s := range stats {
			dst[k] = append(dst[k], s)
			res.Attempted += s.Ops
			res.Failed += s.Failed
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	gc1 := gcCPU()
	if total := gc1.total - gc0.total; total > 0 {
		res.GCCPUShare = (gc1.gc - gc0.gc) / total
	}
	if allocOps > 0 {
		res.AllocsPerOp = float64(mallocs) / float64(allocOps)
	}

	for _, f := range sc.verify() {
		res.Failures = append(res.Failures, f)
		res.Failed++
	}
	res.Failures = append(res.Failures, sc.failures()...)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.LiveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	// A round whose throughput fell below half the median of its
	// siblings was disturbed from outside.
	for _, rounds := range res.Rounds {
		rates := make([]float64, len(rounds))
		for i, r := range rounds {
			rates[i] = r.PerSec
		}
		med := median(rates)
		for _, r := range rates {
			if r < med/2 {
				res.Noisy = true
			}
		}
	}
	if tr != nil {
		res.spans, res.dropped = tr.recorded()
	}
	return res, nil
}

// field extracts one statistic from every round of an operation kind.
func field(rounds []opStat, f func(opStat) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func p50(s opStat) float64    { return s.P50 }
func p95(s opStat) float64    { return s.P95 }
func p99(s opStat) float64    { return s.P99 }
func perSec(s opStat) float64 { return s.PerSec }

// mallocCount reads the cumulative heap allocation count.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type cpuSample struct{ gc, total float64 }

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// loadAverage reads the 1-minute load average; NaN where the platform
// does not expose it.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return math.NaN()
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// failureLog keeps the first few failure descriptions of a scenario; it
// is written by the driver goroutines under the scenario's own
// synchronisation (each driver owns one and they are merged at the end).
type failureLog struct {
	msgs []string
}

const maxFailureMsgs = 8

func (l *failureLog) addf(format string, args ...any) {
	if len(l.msgs) < maxFailureMsgs {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
}
