package recorder

import (
	"testing"
	"time"
)

func TestRecorderDisabledGateSkipsAutomaticCaptures(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if On() {
		t.Fatal("On() true after disable")
	}
	b := &Bundler{last: make(map[string]time.Time)}
	for _, trigger := range []Trigger{TriggerAnomaly, TriggerQuota, TriggerQuarantine, TriggerSLO} {
		if b.Capture(trigger, "gated", 0, "") != nil {
			t.Fatalf("%s capture ran with automatic captures off", trigger)
		}
	}
	if b.Capture(TriggerManual, "gated", 0, "on demand") == nil {
		t.Fatal("manual capture suppressed by the automatic-capture gate")
	}
	if got := len(b.Recent()); got != 1 {
		t.Fatalf("bundler retained %d bundles, want the manual one", got)
	}
	SetEnabled(true)
	if b.Capture(TriggerAnomaly, "gated", 0, "") == nil {
		t.Fatal("automatic capture suppressed after re-enable")
	}
}
