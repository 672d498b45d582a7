// Command attacksim runs the four proof-of-concept control-plane attacks
// of §IX-B1 against the baseline monolithic controller and against the
// SDNShield-enabled one (with permissions reconciled under the Scenario 1
// security policy), and reports the outcome of each. The -fault-* flags
// layer a seeded fault-injection plan over every switch's control
// connection, validating that the outcomes hold under degraded transport.
// A row the harness cannot measure under a plan reads "harness failure";
// the table still prints whole, and the command exits non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"sdnshield/internal/bench"
	"sdnshield/internal/faults"
	"sdnshield/internal/of"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print per-attack detail")
	faultDrop := fs.Float64("fault-drop", 0, "per-message drop probability on switch connections")
	faultDup := fs.Float64("fault-dup", 0, "per-message duplication probability on switch connections")
	faultDelayMS := fs.Int("fault-delay-ms", 0, "max injected per-message delay (enables delay faults at p=0.2)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault schedule (same seed, same schedule)")
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

	var wrap bench.FaultWrap
	if *faultDrop > 0 || *faultDup > 0 || *faultDelayMS > 0 {
		cfg := faults.RandomConfig{
			Drop:      *faultDrop,
			Duplicate: *faultDup,
		}
		if *faultDelayMS > 0 {
			cfg.DelayProb = 0.2
			cfg.MaxDelay = time.Duration(*faultDelayMS) * time.Millisecond
		}
		seed := *faultSeed
		wrap = func(dpid of.DPID, ctrl of.Conn) of.Conn {
			// Per-switch seeds keep schedules independent yet reproducible
			// for a given -fault-seed.
			return faults.Wrap(ctrl, faults.NewRandom(seed+int64(dpid), cfg))
		}
	}

	// A row the harness could not measure is in the table and in err.
	outcomes, err := bench.RunEffectiveness(wrap)
	if *verbose {
		for _, o := range outcomes {
			status := "BLOCKED"
			switch {
			case o.Err != nil:
				status = "HARNESS FAILURE"
			case o.Succeeded:
				status = "SUCCEEDED"
			}
			fmt.Printf("class %d on %-10s %-9s (denied steps: %d, launch denied: %v)\n  %s\n",
				o.Class, o.Runtime+":", status, o.DeniedSteps, o.LaunchDenied, o.Attack)
		}
		fmt.Println()
	}
	fmt.Println(bench.FormatTable1(outcomes))

	// Exit non-zero if a row went unmeasured or SDNShield failed to stop
	// any attack — the regression signals.
	for _, o := range outcomes {
		if o.Runtime == "sdnshield" && o.Succeeded {
			err = errors.Join(err, fmt.Errorf("SDNShield failed to block class %d", o.Class))
		}
	}
	return err
}
