// Command sdnbench regenerates every table and figure of the SDNShield
// evaluation (§IX): the Table I attack-coverage matrix, the Figure 5
// permission-check throughput bars, the Figure 6 latency and Figure 7
// throughput comparisons, the Figure 8 scalability sweep, and the
// reconciliation-cost measurement.
//
// Usage:
//
//	sdnbench -exp all
//	sdnbench -exp fig6 -switches 1,4,16,64 -rounds 100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sdnshield/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdnbench:", err)
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdnbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1, fig5, fig6, fig7, fig8, reconcile, ablation or all")
	switchList := fs.String("switches", "1,4,16,64", "switch counts for fig6/fig7")
	rounds := fs.Int("rounds", 100, "latency probes per cell (fig6/fig8; the paper uses 100)")
	checks := fs.Int("checks", 200000, "permission checks per cell (fig5)")
	duration := fs.Duration("duration", time.Second, "flood duration per cell (fig7)")
	appsList := fs.String("apps", "1,2,4,8,16,32", "concurrent app counts for fig8")
	callsList := fs.String("calls", "1,4,16,64", "API calls per event for fig8")
	telemetry := bench.RegisterTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopTelemetry, err := telemetry.Start()
	if err != nil {
		return err
	}
	defer stopTelemetry()
	defer func() { fmt.Println(bench.TelemetrySummary()) }()

	switches, err := parseInts(*switchList)
	if err != nil {
		return err
	}
	appCounts, err := parseInts(*appsList)
	if err != nil {
		return err
	}
	callCounts, err := parseInts(*callsList)
	if err != nil {
		return err
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		outcomes, err := bench.RunEffectiveness()
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(bench.FormatTable1(outcomes))
	}
	if want("fig5") {
		ran = true
		fmt.Println(bench.FormatFig5(bench.RunFig5(*checks)))
	}
	if want("fig6") {
		ran = true
		rows, err := bench.RunFig6(switches, *rounds)
		if err != nil {
			return fmt.Errorf("fig6: %w", err)
		}
		fmt.Println(bench.FormatFig6(rows))
	}
	if want("fig7") {
		ran = true
		rows, err := bench.RunFig7(switches, *duration)
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		fmt.Println(bench.FormatFig7(rows))
	}
	if want("fig8") {
		ran = true
		rows, err := bench.RunFig8(appCounts, callCounts, *rounds)
		if err != nil {
			return fmt.Errorf("fig8: %w", err)
		}
		fmt.Println(bench.FormatFig8(rows))
	}
	if want("ablation") {
		ran = true
		rows, err := bench.RunAblations()
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		fmt.Println(bench.FormatAblations(rows))
	}
	if want("reconcile") {
		ran = true
		rows, err := bench.RunReconcileBench()
		if err != nil {
			return fmt.Errorf("reconcile: %w", err)
		}
		fmt.Println(bench.FormatReconcile(rows))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
