package bench

import (
	"fmt"
	"sync"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/isolation"
)

// probeTimeout bounds one latency probe.
const probeTimeout = 5 * time.Second

// Fig6Row is one bar of Figure 6: end-to-end control-plane latency for
// one (scenario, switch count, runtime) cell.
type Fig6Row struct {
	Scenario string
	Switches int
	Runtime  string
	Latency  Summary
}

// RunFig6 measures end-to-end control-plane latency for the two §IX-A
// scenarios on both runtimes, repeating each probe rounds times (the
// paper uses 100).
func RunFig6(switchCounts []int, rounds int) ([]Fig6Row, error) {
	var out []Fig6Row
	for _, scenario := range []string{"l2switch", "alto-te"} {
		for _, n := range switchCounts {
			if scenario == "alto-te" && n < 2 {
				continue
			}
			for _, runtime := range runtimes {
				row, err := runFig6Cell(scenario, n, runtime, rounds)
				if err != nil {
					return nil, fmt.Errorf("fig6 %s n=%d on %s: %w", scenario, n, runtime, err)
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

func runFig6Cell(scenario string, nSwitches int, runtime string, rounds int) (Fig6Row, error) {
	env, err := newScenarioEnv(nSwitches, runtime, isolation.Config{})
	if err != nil {
		return Fig6Row{}, err
	}
	defer env.close()
	row := Fig6Row{Scenario: scenario, Switches: nSwitches, Runtime: runtime}

	samples := make([]time.Duration, 0, rounds)
	switch scenario {
	case "l2switch":
		if _, err := env.setupL2(); err != nil {
			return row, err
		}
		for i := 0; i < rounds; i++ {
			fs := env.switches[i%len(env.switches)]
			d, err := fs.MeasureLatency(1, 2, probeTimeout)
			if err != nil {
				return row, err
			}
			samples = append(samples, d)
		}
	case "alto-te":
		if _, _, err := env.setupTE(); err != nil {
			return row, err
		}
		for i := 0; i < rounds; i++ {
			d, err := env.measureTERound(i, probeTimeout)
			if err != nil {
				return row, err
			}
			samples = append(samples, d)
		}
	default:
		return row, fmt.Errorf("unknown scenario %q", scenario)
	}
	row.Latency = Summarize(samples)
	return row, nil
}

// FormatFig6 renders latency rows with median and 10/90 percentiles, the
// paper's bar + error-bar encoding.
func FormatFig6(rows []Fig6Row) string {
	t := NewTable("Figure 6: end-to-end control-plane latency (median [p10..p90])",
		"scenario", "switches", "runtime", "median", "p10", "p90", "rounds")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Switches, r.Runtime,
			r.Latency.Median, r.Latency.P10, r.Latency.P90, r.Latency.N)
	}
	return t.String()
}

// Fig7Row is one bar of Figure 7: sustained control-plane throughput in
// the L2 pressure test.
type Fig7Row struct {
	Switches        int
	Runtime         string
	ResponsesPerSec float64
	Sent            uint64
	Duration        time.Duration
}

// RunFig7 floods the controller with packet-ins from every switch for the
// given duration and counts flow-mod/packet-out responses, comparing the
// monolithic baseline with SDNShield (§IX-B3 pressure test).
func RunFig7(switchCounts []int, duration time.Duration) ([]Fig7Row, error) {
	var out []Fig7Row
	for _, n := range switchCounts {
		for _, runtime := range runtimes {
			row, err := runFig7Cell(n, runtime, duration)
			if err != nil {
				return nil, fmt.Errorf("fig7 n=%d on %s: %w", n, runtime, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runFig7Cell(nSwitches int, runtime string, duration time.Duration) (Fig7Row, error) {
	env, err := newScenarioEnv(nSwitches, runtime, isolation.Config{
		KSDWorkers:   4,
		EventWorkers: 4,
	})
	if err != nil {
		return Fig7Row{}, err
	}
	defer env.close()
	row := Fig7Row{Switches: nSwitches, Runtime: runtime, Duration: duration}
	if _, err := env.setupL2(); err != nil {
		return row, err
	}

	before := uint64(0)
	for _, fs := range env.switches {
		before += fs.Responses()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent uint64
	var sentMu sync.Mutex
	for _, fs := range env.switches {
		fs := fs
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := fs.Flood(stop)
			sentMu.Lock()
			sent += n
			sentMu.Unlock()
		}()
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	// Let in-flight responses land.
	time.Sleep(50 * time.Millisecond)

	after := uint64(0)
	for _, fs := range env.switches {
		after += fs.Responses()
	}
	row.Sent = sent
	row.ResponsesPerSec = float64(after-before) / duration.Seconds()
	return row, nil
}

// FormatFig7 renders throughput rows.
func FormatFig7(rows []Fig7Row) string {
	t := NewTable("Figure 7: control-plane throughput pressure test (L2 scenario)",
		"switches", "runtime", "responses/sec", "packet-ins sent", "duration")
	for _, r := range rows {
		t.AddRow(r.Switches, r.Runtime, fmt.Sprintf("%.0f", r.ResponsesPerSec), r.Sent, r.Duration)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 8: scalability

// Fig8Row is one point of Figure 8: latency under concurrent apps of a
// given complexity.
type Fig8Row struct {
	Apps          int
	CallsPerEvent int
	Runtime       string
	Latency       Summary
}

// observerApp is the synthetic concurrent app of the scalability
// experiment: on every packet-in it issues a configurable number of API
// calls (statistics queries), modeling app complexity as "API calls
// issued by the app".
type observerApp struct {
	name  string
	calls int
}

func (o *observerApp) Name() string { return o.name }

func (o *observerApp) Init(api isolation.API) error {
	return api.Subscribe(controller.EventPacketIn, func(ev controller.Event) {
		for i := 0; i < o.calls; i++ {
			//nolint:errcheck // load generation only
			api.SwitchStats(ev.PacketIn.DPID)
		}
	})
}

func (o *observerApp) RequiredPermissions() string {
	return "PERM pkt_in_event\nPERM read_statistics\n"
}

// RunFig8 sweeps concurrent-app count (at fixed complexity) and app
// complexity (at fixed app count) on both runtimes, measuring the L2
// latency probe.
func RunFig8(appCounts, callCounts []int, rounds int) ([]Fig8Row, error) {
	var out []Fig8Row
	for _, apps := range appCounts {
		for _, runtime := range runtimes {
			row, err := runFig8Cell(apps, 1, runtime, rounds)
			if err != nil {
				return nil, fmt.Errorf("fig8 apps=%d: %w", apps, err)
			}
			out = append(out, row)
		}
	}
	for _, calls := range callCounts {
		if calls == 1 {
			continue // covered by the apps sweep with apps>=1
		}
		for _, runtime := range runtimes {
			row, err := runFig8Cell(1, calls, runtime, rounds)
			if err != nil {
				return nil, fmt.Errorf("fig8 calls=%d: %w", calls, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runFig8Cell(nApps, callsPerEvent int, runtime string, rounds int) (Fig8Row, error) {
	env, err := newScenarioEnv(2, runtime, isolation.Config{})
	if err != nil {
		return Fig8Row{}, err
	}
	defer env.close()
	row := Fig8Row{Apps: nApps, CallsPerEvent: callsPerEvent, Runtime: runtime}

	if _, err := env.setupL2(); err != nil {
		return row, err
	}
	for i := 0; i < nApps; i++ {
		obs := &observerApp{name: fmt.Sprintf("observer-%d", i), calls: callsPerEvent}
		if err := env.launch(obs, manifest(obs)); err != nil {
			return row, err
		}
	}

	samples := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		fs := env.switches[i%len(env.switches)]
		d, err := fs.MeasureLatency(1, 2, probeTimeout)
		if err != nil {
			return row, err
		}
		samples = append(samples, d)
	}
	row.Latency = Summarize(samples)
	return row, nil
}

// FormatFig8 renders the scalability sweep, including the per-cell
// overhead of SDNShield over the baseline where both are present.
func FormatFig8(rows []Fig8Row) string {
	t := NewTable("Figure 8: latency vs concurrent apps and app complexity",
		"apps", "calls/event", "runtime", "median", "p90")
	for _, r := range rows {
		t.AddRow(r.Apps, r.CallsPerEvent, r.Runtime, r.Latency.Median, r.Latency.P90)
	}
	// Overhead summary.
	type key struct{ apps, calls int }
	base := make(map[key]time.Duration)
	for _, r := range rows {
		if r.Runtime == "baseline" {
			base[key{r.Apps, r.CallsPerEvent}] = r.Latency.Median
		}
	}
	o := NewTable("SDNShield latency overhead (median shield - median baseline)",
		"apps", "calls/event", "overhead")
	for _, r := range rows {
		if r.Runtime != "sdnshield" {
			continue
		}
		if b, ok := base[key{r.Apps, r.CallsPerEvent}]; ok {
			o.AddRow(r.Apps, r.CallsPerEvent, r.Latency.Median-b)
		}
	}
	return t.String() + "\n" + o.String()
}
