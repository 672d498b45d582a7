// Command benchcompare runs the protocol of benchmark/README.md
// ("Comparing two commits") between a base commit and the working tree:
// interleaved parent/change pairs per workload with alternating order and
// one seed per pair, then per workload and metric the medians with their
// quartiles, the pairs the change won, the gap against the parent's
// inter-quartile spread and the bound from BENCHMARK.json.
//
//	make bench-compare BASE=HEAD~1 [PAIRS=10] [WORKLOADS=api_large,pktin_l2] [TRACE=1]
//
// The base is exported with `git archive` into a temporary directory and
// gets the working tree's benchmark/ and BENCHMARK.json copied over it, so
// both sides run the same harness. It reads BENCHMARK.json and the
// benchmark's contract line only, and edits nothing in the repository.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// result is the benchmark's contract line, the last line it prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the parent commit (required)")
	pairs := flag.Int("pairs", 10, "interleaved parent/change pairs per workload")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "the benchmark's -trace: 0 end-to-end metrics, 1 per-layer metrics as well")
	seed := flag.Int64("seed", 101, "seed of the first pair; pair i runs both sides at seed+i")
	seconds := flag.Float64("seconds", 0, "the benchmark's -seconds (default: its own)")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare -base <ref> [-pairs 10] [-workloads a,b] [-trace 0|1]")
		os.Exit(2)
	}
	if err := run(*base, *pairs, *workloads, *trace, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}

func run(base string, pairs int, workloads string, trace int, seed int64, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}

	tmp, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sh := func(script string) error {
		cmd := exec.Command("sh", "-c", script)
		cmd.Stderr = os.Stderr
		return cmd.Run()
	}
	if err := sh(fmt.Sprintf("git archive --format=tar %q | tar -x -C %q", base, tmp)); err != nil {
		return fmt.Errorf("export %s: %w", base, err)
	}
	// The same harness on both sides: the working tree's, minus what its
	// runs left behind.
	for _, p := range append([]string{"BENCHMARK.json"}, c.Paths...) {
		script := fmt.Sprintf("rm -rf %q && cp -R %q %q && rm -rf %q",
			filepath.Join(tmp, p), p, filepath.Join(tmp, p), filepath.Join(tmp, p, "out"))
		if err := sh(script); err != nil {
			return fmt.Errorf("copy %s over the base: %w", p, err)
		}
	}
	sides := [2]struct{ name, dir string }{{"parent", tmp}, {"change", "."}}
	metrics := append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...)

	for _, w := range names {
		// values[side][metric] holds one value per pair, in pair order.
		var values [2]map[string][]float64
		values[0], values[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				args := append(append([]string{}, c.Command[1:]...),
					"-workload", w, "-seed", strconv.FormatInt(seed+int64(i), 10), "-trace", strconv.Itoa(trace))
				if seconds > 0 {
					args = append(args, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				}
				cmd := exec.Command(c.Command[0], args...)
				cmd.Dir = sides[side].dir
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w\n%s", sides[side].name, w, i+1, err, stderr.Bytes())
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r result
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					return fmt.Errorf("%s %s pair %d: contract line: %w", sides[side].name, w, i+1, err)
				}
				if !r.Correct || r.Failed != 0 {
					return fmt.Errorf("%s %s pair %d: correct=%v failed=%d of %d",
						sides[side].name, w, i+1, r.Correct, r.Failed, r.Attempted)
				}
				fmt.Fprintf(os.Stderr, "%s pair %d/%d seed %d %s:", w, i+1, pairs, seed+int64(i), sides[side].name)
				for _, m := range metrics {
					if v, ok := r.Metrics[m.Name]; ok {
						values[side][m.Name] = append(values[side][m.Name], v.Value)
						fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, v.Value)
					}
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		report(w, pairs, metrics, values[0], values[1])
	}
	return nil
}

// report prints one workload's table. A metric is unresolved when the
// run-to-run spread of either side (IQR ÷ median) exceeds its bound and
// the runs of the two sides overlap; it is WORSE when the change's median
// is worse than the parent's by more than the bound; it is a gain when
// at least ten pairs ran, the change won nine tenths of them and the
// medians differ by more than the parent's IQR.
func report(workload string, pairs int, metrics []metricDef, parent, change map[string][]float64) {
	fmt.Printf("\n## %s (%d pairs)\n\n", workload, pairs)
	fmt.Println("| metric | parent median [q1, q3] | change median [q1, q3] | change ÷ parent | pairs won | gap ÷ parent IQR | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, m := range metrics {
		p, c := parent[m.Name], change[m.Name]
		if len(p) == 0 || len(p) != len(c) {
			continue
		}
		sign := 1.0 // >0 after multiplying means the change is worse
		if m.Better == "higher" {
			sign = -1
		}
		wins := 0
		for i := range p {
			if sign*(c[i]-p[i]) < 0 {
				wins++
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		gap := sign * (cq[1] - pq[1])
		pIQR, cIQR := pq[2]-pq[0], cq[2]-cq[0]
		spread := math.Max(pIQR/math.Abs(pq[1]), cIQR/math.Abs(cq[1]))
		separated := sign*(extreme(c, sign)-extreme(p, -sign)) < 0 // every change run better than every parent run
		verdict := "within bound"
		switch {
		case m.Bound == 0:
			verdict = "diagnostic"
		case gap > m.Bound*math.Abs(pq[1]):
			verdict = "WORSE"
		case spread > m.Bound && !separated:
			verdict = "unresolved"
		}
		if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && -gap > pIQR {
			verdict = "gain"
		}
		bound := "—"
		if m.Bound != 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Printf("| `%s` (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %d/%d | %+.2f | %s | %s |\n",
			m.Name, m.Unit, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], cq[1]/pq[1], wins, pairs,
			gap/pIQR, bound, verdict)
	}
}

// quartiles returns q1, the median and q3 by linear interpolation.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// extreme returns the worst value of v when sign > 0 and the best when
// sign < 0, for a metric whose worse direction is sign.
func extreme(v []float64, sign float64) float64 {
	out := v[0]
	for _, x := range v[1:] {
		if sign*(x-out) > 0 {
			out = x
		}
	}
	return out
}
