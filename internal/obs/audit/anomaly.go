package audit

import (
	"sync"
	"time"
)

// The denial-rate anomaly detector's tuning.
const (
	// detectorWindow is the sliding-window width denials are bucketed
	// into.
	detectorWindow = time.Second
	// detectorAlpha is the EWMA smoothing factor applied when a window
	// closes.
	detectorAlpha = 0.3
	// ewmaThreshold flags an app when its smoothed denials-per-window
	// rate reaches it.
	ewmaThreshold = 50
	// burstThreshold flags an app immediately when a single window's raw
	// denial count reaches it, before the EWMA catches up.
	burstThreshold = 128
	// clearFactor unflags an app once its EWMA decays below
	// ewmaThreshold*clearFactor (hysteresis).
	clearFactor = 0.5
)

// appRate is one app's denial-rate state.
type appRate struct {
	windowStart time.Time
	window      int // denials in the current (open) window
	ewma        float64
	flagged     bool
	total       uint64
	lastDeny    time.Time
}

// Detector watches permission-deny events and flags apps whose denial
// rate is anomalous: either a raw burst inside one window or a sustained
// elevated EWMA of denials-per-window. Event timestamps (not wall-clock
// reads) drive window advancement, so replayed or test-generated
// histories evaluate deterministically.
type Detector struct {
	mu     sync.Mutex
	apps   map[string]*appRate
	onFlag func(app string, snap AnomalySnapshot)
}

// NewDetector builds a detector; register it with a journal via
// j.AddConsumer(d.Observe).
func NewDetector() *Detector {
	return &Detector{apps: make(map[string]*appRate)}
}

// defaultDetector feeds HealthSnapshot/health annotations for the
// process-wide journal.
var defaultDetector = NewDetector()

// DefaultDetector returns the detector attached to the default journal.
func DefaultDetector() *Detector { return defaultDetector }

func (d *Detector) register(j *Journal) { j.AddConsumer(d.Observe) }

// SetOnFlag installs a callback fired each time an app's flagged state
// transitions from clear to flagged, with the snapshot that tripped it.
// The callback runs on the journal drain goroutine, outside the
// detector lock — it may call back into the detector, but must not
// block (obs/recorder uses it to trigger diagnostic bundles).
// Passing nil removes the callback.
func (d *Detector) SetOnFlag(fn func(app string, snap AnomalySnapshot)) {
	d.mu.Lock()
	d.onFlag = fn
	d.mu.Unlock()
}

// Observe consumes one journal event. Only permission denials with an
// app principal advance any state.
func (d *Detector) Observe(ev Event) {
	if ev.Kind != KindPermission || ev.Verdict != VerdictDeny || ev.App == "" {
		return
	}
	var (
		fire func(string, AnomalySnapshot)
		snap AnomalySnapshot
	)
	d.mu.Lock()
	st := d.apps[ev.App]
	if st == nil {
		st = &appRate{windowStart: ev.Time}
		d.apps[ev.App] = st
	}
	d.advanceLocked(st, ev.Time)
	st.window++
	st.total++
	st.lastDeny = ev.Time
	if st.window >= burstThreshold || st.ewma >= ewmaThreshold {
		if !st.flagged {
			st.flagged = true
			if d.onFlag != nil {
				fire, snap = d.onFlag, snapshotOf(ev.App, st)
			}
		}
	}
	d.mu.Unlock()
	if fire != nil {
		fire(ev.App, snap)
	}
}

// advanceLocked folds every fully-elapsed window since windowStart into
// the EWMA and applies the hysteresis clear check. A long idle gap
// (>64 windows) resets the EWMA outright instead of folding 64+ zeros.
func (d *Detector) advanceLocked(st *appRate, now time.Time) {
	if st.windowStart.IsZero() {
		st.windowStart = now
		return
	}
	elapsed := now.Sub(st.windowStart)
	if elapsed < detectorWindow {
		return
	}
	n := int(elapsed / detectorWindow)
	if n > 64 {
		st.ewma = 0
		st.window = 0
		st.windowStart = now
	} else {
		for i := 0; i < n; i++ {
			st.ewma = detectorAlpha*float64(st.window) + (1-detectorAlpha)*st.ewma
			st.window = 0
		}
		st.windowStart = st.windowStart.Add(time.Duration(n) * detectorWindow)
	}
	if st.flagged && st.ewma < ewmaThreshold*clearFactor {
		st.flagged = false
	}
}

// AnomalySnapshot is one app's denial-rate view.
type AnomalySnapshot struct {
	App          string    `json:"app"`
	Flagged      bool      `json:"flagged"`
	EWMA         float64   `json:"ewma"`
	WindowDenies int       `json:"window_denies"`
	TotalDenies  uint64    `json:"total_denies"`
	LastDeny     time.Time `json:"last_deny,omitempty"`
}

// Lookup returns the app's current denial-rate state, advancing its
// windows to now first (so a flag decays even with no new denials).
// The zero snapshot is returned for unknown apps.
func (d *Detector) Lookup(app string) AnomalySnapshot {
	return d.SnapshotAt(app, time.Now())
}

// SnapshotAt is Lookup at an explicit instant (deterministic tests).
func (d *Detector) SnapshotAt(app string, now time.Time) AnomalySnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.apps[app]
	if st == nil {
		return AnomalySnapshot{App: app}
	}
	d.advanceLocked(st, now)
	return snapshotOf(app, st)
}

// snapshotOf renders one app's state (caller holds d.mu).
func snapshotOf(app string, st *appRate) AnomalySnapshot {
	return AnomalySnapshot{
		App:          app,
		Flagged:      st.flagged,
		EWMA:         st.ewma,
		WindowDenies: st.window,
		TotalDenies:  st.total,
		LastDeny:     st.lastDeny,
	}
}

// Flagged lists the apps currently flagged as anomalous, advancing each
// to now first.
func (d *Detector) Flagged() []string {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for app, st := range d.apps {
		d.advanceLocked(st, now)
		if st.flagged {
			out = append(out, app)
		}
	}
	return out
}

// Reset clears all per-app state (tests).
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.apps = make(map[string]*appRate)
}
