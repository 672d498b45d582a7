package audit

import (
	"testing"
	"time"
)

func deny(app string, at time.Time) Event {
	return Event{Kind: KindPermission, Verdict: VerdictDeny, App: app, Time: at}
}

func TestDetectorFlagsBurstWithinOneWindow(t *testing.T) {
	d := NewDetector()
	t0 := time.Unix(1000, 0)
	for i := 0; i < 128; i++ {
		d.Observe(deny("noisy", t0.Add(time.Duration(i)*time.Millisecond)))
	}
	snap := d.SnapshotAt("noisy", t0.Add(200*time.Millisecond))
	if !snap.Flagged {
		t.Fatalf("burst of 128 denies in one window should flag: %+v", snap)
	}
	if snap.TotalDenies != 128 {
		t.Fatalf("total denies %d, want 128", snap.TotalDenies)
	}
}

func TestDetectorSustainedRateFlagsViaEWMA(t *testing.T) {
	d := NewDetector()
	t0 := time.Unix(1000, 0)
	// 100 denies per 1s window — below the 128 burst threshold — for 5
	// windows pushes the EWMA (alpha 0.3) past the threshold of 50.
	at := t0
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			d.Observe(deny("steady", at))
		}
		at = at.Add(time.Second)
	}
	if snap := d.SnapshotAt("steady", at); !snap.Flagged {
		t.Fatalf("sustained 100/s should flag via EWMA: %+v", snap)
	}
}

func TestDetectorDecayClearsFlag(t *testing.T) {
	d := NewDetector()
	t0 := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		d.Observe(deny("bursty", t0))
	}
	if snap := d.SnapshotAt("bursty", t0.Add(100*time.Millisecond)); !snap.Flagged {
		t.Fatal("burst should flag")
	}
	// Idle decay: each elapsed window folds a zero into the EWMA; well
	// within the 64-window reset horizon the flag must clear.
	if snap := d.SnapshotAt("bursty", t0.Add(20*time.Second)); snap.Flagged {
		t.Fatalf("flag should decay after 20 idle windows: %+v", snap)
	}
}

func TestDetectorIsolatesApps(t *testing.T) {
	d := NewDetector()
	// Real wall clock: Flagged() advances every app to time.Now().
	t0 := time.Now()
	for i := 0; i < 300; i++ {
		d.Observe(deny("noisy", t0))
	}
	d.Observe(deny("quiet", t0))
	if snap := d.SnapshotAt("quiet", t0.Add(time.Millisecond)); snap.Flagged {
		t.Fatalf("quiet app flagged by noisy neighbour: %+v", snap)
	}
	if snap := d.SnapshotAt("noisy", t0.Add(time.Millisecond)); !snap.Flagged {
		t.Fatal("noisy app should be flagged")
	}
	flagged := d.Flagged()
	if len(flagged) != 1 || flagged[0] != "noisy" {
		t.Fatalf("Flagged() = %v, want [noisy]", flagged)
	}
}

func TestDetectorIgnoresNonDenyEvents(t *testing.T) {
	d := NewDetector()
	t0 := time.Unix(1000, 0)
	for i := 0; i < 500; i++ {
		d.Observe(Event{Kind: KindPermission, Verdict: VerdictAllow, App: "a", Time: t0})
		d.Observe(Event{Kind: KindFlowMod, Verdict: VerdictSent, App: "a", Time: t0})
	}
	if snap := d.SnapshotAt("a", t0); snap.Flagged || snap.TotalDenies != 0 {
		t.Fatalf("non-deny events advanced state: %+v", snap)
	}
}

func TestDetectorLongGapResets(t *testing.T) {
	d := NewDetector()
	t0 := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		d.Observe(deny("a", t0))
	}
	// A deny arriving hours later lands in fresh state (>64 windows).
	d.Observe(deny("a", t0.Add(2*time.Hour)))
	snap := d.SnapshotAt("a", t0.Add(2*time.Hour))
	if snap.Flagged || snap.EWMA != 0 || snap.WindowDenies != 1 {
		t.Fatalf("long gap should reset rate state: %+v", snap)
	}
}

func TestDetectorOnFlagFiresOncePerTransition(t *testing.T) {
	d := NewDetector()
	var fired []AnomalySnapshot
	d.SetOnFlag(func(app string, snap AnomalySnapshot) {
		if app != "noisy" {
			t.Errorf("flagged app %q", app)
		}
		fired = append(fired, snap)
	})
	t0 := time.Unix(1000, 0)
	// Burst past the threshold, then keep denying: one transition, one
	// callback.
	for i := 0; i < 200; i++ {
		d.Observe(deny("noisy", t0.Add(time.Duration(i)*time.Millisecond)))
	}
	if len(fired) != 1 {
		t.Fatalf("onFlag fired %d times, want 1", len(fired))
	}
	if !fired[0].Flagged || fired[0].TotalDenies != 128 {
		t.Fatalf("flag snapshot = %+v", fired[0])
	}
	// Decay until the flag clears, then trip it again: second callback.
	d.SnapshotAt("noisy", t0.Add(30*time.Second))
	for i := 0; i < 200; i++ {
		d.Observe(deny("noisy", t0.Add(31*time.Second).Add(time.Duration(i)*time.Millisecond)))
	}
	if len(fired) != 2 {
		t.Fatalf("onFlag fired %d times after re-trip, want 2", len(fired))
	}
}
