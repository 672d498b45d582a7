// Command benchmark is the repository's benchmark: one program that
// drives the whole stack — flow set-up, mediated calls, market admission,
// hosted churn — through the public functions of the existing packages,
// with every instrument at its shipping default, checks that the outputs
// are correct and prints every metric by name with its unit.
//
//	go run -C benchmark . -workload pktin_l2 -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and how to compare two
// commits; ../BENCHMARK.json is the contract the metrics are named in.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// contract is what the harness reads of ../BENCHMARK.json.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contractPath and outDir are relative to the benchmark's own directory,
// which is where `go run -C benchmark .` and `go test` both run.
const (
	contractPath = "../BENCHMARK.json"
	outDir       = "out"
)

func loadContract() (*contract, error) {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	return &c, nil
}

// header describes the machine and the run, so two result files can be
// told apart and a disturbed run can be recognised.
type header struct {
	NProc       int             `json:"nproc"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	GoVersion   string          `json:"go_version"`
	Commit      string          `json:"commit"`
	Transport   string          `json:"transport"`
	Instruments map[string]bool `json:"instruments"`
	LoadAvg1m   float64         `json:"load_avg_1m"`
	Noisy       bool            `json:"noisy"`
	Started     string          `json:"started"`
}

func newHeader() header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Transport: "of.Pipe (in-memory; no socket is crossed)",
		Instruments: instrumentStates(), LoadAvg1m: loadAverage(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	// More than half the cores busy before the run starts: the timings
	// will carry someone else's work.
	h.Noisy = h.LoadAvg1m > float64(h.NProc)/2
	return h
}

// outcome is one workload run as printed and written out.
type outcome struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"ops_attempted"`
	Failed    int64               `json:"ops_failed"`
	FailShare float64             `json:"fail_share"`
	Noisy     bool                `json:"noisy"`
	Metrics   map[string]reported `json:"metrics"`
	Inputs    map[string]any      `json:"inputs,omitempty"`
	Failures  []string            `json:"failures,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

// endToEnd turns a plain run into the end-to-end metrics of a workload.
func endToEnd(w workload, r *runResult) map[string]reported {
	rounds := r.Rounds[w.primary]
	return map[string]reported{
		"setup_s":   summarize(r.SetupS, "s"),
		"op_p50_us": summarize(field(rounds, p50), "us"),
		// Printed beside the contract metrics, not one of them: on the box
		// this was built on its spread across runs came too close to the
		// largest bound the contract allows (see README, "Noise").
		"x.op_p95_us":   summarize(field(rounds, p95), "us"),
		"ops_per_s":     summarize(field(rounds, perSec), "1/s"),
		"allocs_per_op": {Value: r.AllocsPerOp, Unit: "count"},
		"live_heap_mb":  {Value: r.LiveHeapMB, Unit: "MiB"},
	}
}

// runPlain measures a workload with tracing off.
func runPlain(w workload, seed int64, opts options) (*outcome, error) {
	r, err := runScenario(w.scenario, seed, opts, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome(w, seed, opts.seconds, r)
	o.Metrics = endToEnd(w, r)
	if w.scenario == "pktin" {
		// Not contract metrics, but every plain run carries the paper's
		// Fig. 6 comparison from its own interleaved rounds.
		mono := summarize(field(r.Rounds["mono"], p50), "us")
		o.Metrics["x.flowsetup_mono_p50_us"] = mono
		o.Metrics["x.flowsetup_overhead_ratio"] = reported{
			Value: o.Metrics["op_p50_us"].Value / mono.Value, Unit: "ratio"}
	}
	return o, nil
}

func newOutcome(w workload, seed int64, seconds float64, r *runResult) *outcome {
	o := &outcome{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: r.Traced,
		Attempted: r.Attempted, Failed: r.Failed, Noisy: r.Noisy,
		Inputs: r.Inputs, Failures: r.Failures,
	}
	o.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		o.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
	return o
}

// sideSeconds is how long a traced run measures each scenario other than
// the named workload's; they supply the span-derived layer metrics that
// only their spans can give.
const sideSeconds = 1.0

// runTraced runs the named workload with the harness-side spans on in
// alternate rounds, short traced slices of the other scenarios, and the
// layer probes, and derives the per-layer metrics from all of them.
func runTraced(w workload, seed int64, opts options) (*outcome, error) {
	results := map[string]*runResult{}
	for _, kind := range []string{"pktin", "api", "market", "hosted"} {
		o := opts
		if kind == w.scenario {
			o.minRounds *= 2 // half of them traced
		} else {
			o.seconds, o.minRounds = math.Min(sideSeconds, opts.seconds), min(4, 2*opts.minRounds)
		}
		r, err := runScenario(kind, seed, o, newTracer())
		if err != nil {
			return nil, err
		}
		results[kind] = r
	}
	own := results[w.scenario]
	o := newOutcome(w, seed, opts.seconds, own)
	for kind, r := range results {
		if kind == w.scenario {
			continue
		}
		o.Attempted += r.Attempted
		o.Failed += r.Failed
		o.Failures = append(o.Failures, r.Failures...)
	}
	o.Correct = o.Failed == 0

	m := metricSet{}
	if err := runProbes(seed, opts, m); err != nil {
		return nil, err
	}
	deriveLayers(m, results)

	untraced := median(field(own.Rounds[w.primary], p50))
	traced := median(field(own.TracedRounds[w.primary], p50))
	m.put("trace_overhead_ratio", traced/untraced, "ratio")
	m.put("tail.op_p95_us", median(field(own.Rounds[w.primary], p95)), "us")
	m.put("proc.gc_cpu_share", own.GCCPUShare, "ratio")
	m.put("trace.root_cover_share", rootCover(w, own), "ratio")

	o.Metrics = make(map[string]reported, len(m))
	for name, v := range m {
		o.Metrics[name] = reported{Value: v.Value, Unit: v.Unit}
	}
	path, err := writeTrace(outDir, w.name, own.spans, own.dropped, own.tree)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	o.TraceFile = path
	return o, nil
}

// deriveLayers adds the layer metrics that come from spans and from the
// per-round digests of the four scenarios.
func deriveLayers(m metricSet, res map[string]*runResult) {
	pk := res["pktin"]
	shield, mono := pk.Rounds["shield"], pk.Rounds["mono"]
	m.put("controller.flowsetup_mono_p50_us", median(field(mono, p50)), "us")
	m.put("tail.flowsetup_mono_p99_us", median(field(mono, p99)), "us")
	m.put("tail.flowsetup_p99_us", median(field(shield, p99)), "us")
	m.put("isolation.flowsetup_overhead_ratio", median(field(shield, p50))/median(field(mono, p50)), "ratio")
	m.put("isolation.deliver_ns",
		median(spanDurations(pk.spans, spanDeliver, armShield))-median(spanDurations(pk.spans, spanDeliver, armMono)), "ns")
	self, _ := selfTimes(pk.spans, spanHandler, armShield, spanInsertFlow, spanSendPktOut)
	m.put("apps.l2_handler_self_ns", median(self), "ns")

	api := res["api"]
	m.put("tail.call_p99_us", median(field(api.Rounds["call"], p99)), "us")
	m.put("isolation.call_self_ns",
		median(spanDurations(api.spans, spanInsertFlow, armShield))-
			m["controller.resolve_state_ns"].Value-m["permengine.check_ns"].Value-
			m["controller.insert_flow_1024_ns"].Value, "ns")

	mk := res["market"]
	m.put("market.install_self_us",
		median(spanDurations(mk.spans, spanInstall, armShield))/1e3-
			m["permlang.parse_us"].Value-m["reconcile.reconcile_us"].Value-
			m["permengine.set_permissions_corpus_us"].Value, "us")

	m.put("tail.upgrade_p99_us", median(field(res["hosted"].Rounds["upgrade"], p99)), "us")
}

// rootCover is the share of the workload's root span its children cover,
// at the median.
func rootCover(w workload, r *runResult) float64 {
	var cover []float64
	switch w.scenario {
	case "pktin":
		_, cover = selfTimes(r.spans, spanFlowsetup, armShield, spanDeliver, spanHandler)
	case "api":
		_, cover = selfTimes(r.spans, spanCall, armShield, spanInsertFlow, spanFlowStats)
	case "market":
		_, cover = selfTimes(r.spans, spanAdmit, armShield, spanSubmit, spanInstall, spanApprove)
	case "hosted":
		if w.primary == "upgrade" {
			_, cover = selfTimes(r.spans, spanAdmit, armShield, spanSubmit, spanUpgrade)
		} else {
			_, cover = selfTimes(r.spans, spanCall, armShield, spanTenantDo)
		}
	}
	return median(cover)
}

// contractLine is the last line of standard output: what the driver reads.
func contractLine(o *outcome, defs []metricDef) (string, error) {
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s is not a number", d.Name)
		}
		metrics[d.Name] = metric{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics})
	return string(line), err
}

// report prints one outcome for a person: every metric by name with its
// unit, the quartiles across rounds and the sample count.
func report(o *outcome) {
	mode := "plain"
	if o.Traced {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "\n== %s  seed=%d  %s  %.0fs  correct=%v  ops_attempted=%d  ops_failed=%d  fail_share=%g  noisy=%v\n",
		o.Workload, o.Seed, mode, o.Seconds, o.Correct, o.Attempted, o.Failed, o.FailShare, o.Noisy)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := o.Metrics[n]
		if v.N > 0 {
			fmt.Fprintf(os.Stderr, "  %-38s %14.4f %-6s  q1=%.4f q3=%.4f n=%d\n", n, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		} else {
			fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(o.Inputs))
	for k := range o.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  input %-32s %v\n", k, o.Inputs[k])
	}
	for _, f := range o.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
	if o.TraceFile != "" {
		fmt.Fprintf(os.Stderr, "  spans written to %s\n", filepath.Join("benchmark", o.TraceFile))
	}
}

// measure runs one workload in this process.
func measure(w workload, seed int64, seconds float64, traced bool) (*outcome, error) {
	if traced {
		return runTraced(w, seed, defaultOptions(seconds))
	}
	return runPlain(w, seed, defaultOptions(seconds))
}

// measureInChild runs one workload in a fresh process of this program, as
// the driver does. A process keeps what earlier runs registered in the
// stack's process-wide registries, so runs that share one would not be
// independent (live_heap_mb least of all). The child's report passes
// through on standard error; its results come back through an -out file.
func measureInChild(w workload, seed int64, seconds float64, traced bool) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	name := fmt.Sprintf("run-%s-%d-%s.json", w.name, seed, trace)
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", name)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a child that found a failed check still writes its results
	path := filepath.Join(outDir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: child run: %v; %w", w.name, runErr, err)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if len(doc.Runs) != 1 {
		return nil, fmt.Errorf("%s: child wrote %d runs", w.name, len(doc.Runs))
	}
	return doc.Runs[0], nil
}

// document is what -out and -baseline write.
type document struct {
	Header header     `json:"header"`
	Runs   []*outcome `json:"runs"`
}

func writeDocument(name string, doc *document) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, filepath.Base(name)), append(data, '\n'), 0o644)
}

// worse is by how much of a's value b is worse than a, for a metric whose
// better direction is given; negative when b is better.
func worse(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatSets runs the selected workloads n times at one seed and holds
// each later set against the first: the relative difference of every
// end-to-end metric is printed beside its bound, and a breach fails.
func repeatSets(c *contract, selected []workload, n int, seed int64, seconds float64, doc *document) (breached bool, err error) {
	first := map[string]*outcome{}
	for set := 0; set < n; set++ {
		for _, w := range selected {
			o, err := measureInChild(w, seed, seconds, false)
			if err != nil {
				return false, err
			}
			doc.Runs = append(doc.Runs, o)
			if !o.Correct {
				breached = true
			}
			if set == 0 {
				first[w.name] = o
				continue
			}
			for _, d := range c.EndToEnd {
				a, b := first[w.name].Metrics[d.Name].Value, o.Metrics[d.Name].Value
				diff := worse(d, a, b)
				verdict := "ok"
				if diff > d.Bound {
					verdict, breached = "BREACH", true
				}
				fmt.Fprintf(os.Stderr, "  repeat %-16s %-14s first=%-12.4f now=%-12.4f worse by %+.4f  bound %.2f  %s\n",
					w.name, d.Name, a, b, diff, d.Bound, verdict)
			}
		}
	}
	return breached, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	c, err := loadContract()
	if err != nil {
		return err
	}
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload in turn, each in a process of its own)")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", float64(c.RunSeconds), "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "also write the full results to benchmark/out/<name>")
		repeat   = flag.Int("repeat", 0, "run the set this many times at one seed and hold each set against the first")
		baseline = flag.Bool("baseline", false, "run plain and traced at -seed and -seed+1 and write out/baseline.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	doc := &document{Header: newHeader()}
	h, _ := json.Marshal(doc.Header) // a struct of plain fields: cannot fail
	fmt.Fprintf(os.Stderr, "run header: %s\n", h)

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	traced := *trace != 0
	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
	}

	failed := false
	switch {
	case *repeat > 1:
		if failed, err = repeatSets(c, selected, *repeat, *seed, *seconds, doc); err != nil {
			return err
		}
	case *baseline:
		*out = "baseline.json"
		for _, s := range []int64{*seed, *seed + 1} {
			for _, tr := range []bool{false, true} {
				for _, w := range selected {
					o, err := measureInChild(w, s, *seconds, tr)
					if err != nil {
						return err
					}
					doc.Runs = append(doc.Runs, o)
					failed = failed || !o.Correct
				}
			}
		}
	default:
		run := measureInChild
		if len(selected) == 1 {
			run = measure
		}
		for _, w := range selected {
			o, err := run(w, *seed, *seconds, traced)
			if err != nil {
				return err
			}
			if len(selected) == 1 {
				report(o)
			}
			doc.Runs = append(doc.Runs, o)
			doc.Header.Noisy = doc.Header.Noisy || o.Noisy
			line, err := contractLine(o, defs)
			if err != nil {
				return err
			}
			fmt.Println(line)
			failed = failed || !o.Correct
		}
	}
	if *out != "" {
		if err := writeDocument(*out, doc); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a correctness check failed or a repeated set left its bounds")
	}
	return nil
}
