package bench

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/prof"
	"sdnshield/internal/obs/recorder"
)

// scriptedObjective is a settable good/total pair so the SLO engine can
// be driven to breach with a deterministic clock.
type scriptedObjective struct {
	mu          sync.Mutex
	good, total float64
}

func (s *scriptedObjective) add(good, total float64) {
	s.mu.Lock()
	s.good += good
	s.total += total
	s.mu.Unlock()
}

func (s *scriptedObjective) objective(name string, target float64) obs.Objective {
	return obs.Objective{
		Name: name, Target: target,
		Good:  func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.good },
		Total: func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.total },
	}
}

// TestSLOBreachJoinsProfilerAndBundle is the end-to-end trigger chain:
// an SLO error-budget breach captures a diagnostic bundle, the bundle
// capture fires the continuous profiler, and the resulting delta
// profiles appear in the *next* /debug/bundle's profiles section — so
// by the time an operator pulls the evidence, the profile of the
// misbehaving window is part of it.
func TestSLOBreachJoinsProfilerAndBundle(t *testing.T) {
	dir := t.TempDir()
	p, err := prof.Start(prof.Config{
		Dir:       dir,
		Interval:  -1, // no periodic noise; trigger-driven only
		CPUWindow: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	defer recorder.SetCooldown(recorder.SetCooldown(0))

	// A purpose-built engine wired through the same breach path as the
	// production StartSLO engine, evaluated with a scripted clock.
	script := &scriptedObjective{}
	eng := obs.NewEngine(obs.EngineConfig{
		Interval: time.Second, FastWindow: 10 * time.Second,
		SlowWindow: 60 * time.Second, BurnThreshold: 2,
	}, script.objective("e2e_latency_p99", 0.9))
	WireSLOBreach(eng)

	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 20; i++ { // healthy history
		now = now.Add(time.Second)
		script.add(100, 100)
		eng.Evaluate(now)
	}
	breached := false
	for i := 0; i < 15 && !breached; i++ { // total failure → fast burn
		now = now.Add(time.Second)
		script.add(0, 100)
		for _, st := range eng.Evaluate(now) {
			if st.State == obs.StateBreach {
				breached = true
			}
		}
	}
	if !breached {
		t.Fatal("scripted failure never breached the objective")
	}

	// The breach captured a bundle, whose trigger hook kicked off an
	// asynchronous profiler capture; wait for it to finish.
	var sloCap prof.Capture
	deadline := time.Now().Add(10 * time.Second)
	for sloCap.ID == "" {
		for _, c := range p.Recent() {
			if c.Reason == string(recorder.TriggerSLO) {
				sloCap = c
			}
		}
		if sloCap.ID == "" {
			if time.Now().After(deadline) {
				t.Fatalf("no %s profiler capture appeared; recent = %+v",
					recorder.TriggerSLO, p.Recent())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if sloCap.Corr == 0 {
		t.Fatalf("SLO capture lost its audit correlation: %+v", sloCap)
	}
	if _, err := os.Stat(filepath.Join(dir, sloCap.ID, "meta.json")); err != nil {
		t.Fatalf("SLO capture not on disk: %v", err)
	}

	// The next bundle pull carries the profile evidence.
	bundle := recorder.Capture(recorder.TriggerManual, "", 0, "post-breach evidence pull")
	if bundle == nil {
		t.Fatal("manual bundle capture refused")
	}
	caps, ok := bundle.Profiles.([]prof.Capture)
	if !ok {
		t.Fatalf("bundle profiles section is %T, want []prof.Capture", bundle.Profiles)
	}
	found := false
	for _, c := range caps {
		if c.ID == sloCap.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("SLO capture %s missing from bundle profiles: %+v", sloCap.ID, caps)
	}
}
