package recorder

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/audit"
)

// A diagnostic bundle is the payoff of the always-on recorder: when
// the anomaly detector, a quota breach or a quarantine fires, Capture
// freezes everything an investigation needs — the flight-recorder
// frames around the event, the frames sharing its correlation ID, the
// per-app resource usage, a metrics snapshot, component health, the
// audit tail and Go runtime stats — into one JSON document, retained
// in memory (/debug/bundle) and optionally written to a directory
// (-bundle-dir on the CLIs).

// Trigger names what fired a bundle capture.
type Trigger string

// Bundle triggers.
const (
	TriggerAnomaly    Trigger = "anomaly"
	TriggerQuota      Trigger = "quota_breach"
	TriggerQuarantine Trigger = "quarantine"
	TriggerManual     Trigger = "manual"
	// TriggerSLO marks a bundle captured because an objective's error
	// budget entered fast burn (both SLO burn windows over threshold).
	TriggerSLO Trigger = "slo_breach"
)

// RuntimeStats is the Go runtime's state at capture time.
type RuntimeStats struct {
	Goroutines   int           `json:"goroutines"`
	HeapAlloc    uint64        `json:"heap_alloc_bytes"`
	HeapObjects  uint64        `json:"heap_objects"`
	TotalAlloc   uint64        `json:"total_alloc_bytes"`
	NumGC        uint32        `json:"gc_cycles"`
	GCPauseTotal time.Duration `json:"gc_pause_total_ns"`
}

// Bundle is one correlated diagnostic capture.
type Bundle struct {
	ID      string    `json:"id"`
	Time    time.Time `json:"time"`
	Trigger Trigger   `json:"trigger"`
	App     string    `json:"app,omitempty"`
	Corr    uint64    `json:"corr,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// Frames is the recorder tail for the app (all apps when App is
	// empty), oldest first.
	Frames []FrameSnapshot `json:"frames"`
	// CorrFrames is every retained frame sharing Corr — the full story
	// of the triggering mediated call across layers.
	CorrFrames []FrameSnapshot `json:"corr_frames,omitempty"`
	// Usage is each registered usage provider's per-app resource view.
	Usage map[string]interface{} `json:"usage,omitempty"`
	// Anomaly is the denial-rate detector's state for App.
	Anomaly *audit.AnomalySnapshot `json:"anomaly,omitempty"`
	// Audit is the journal tail for App (global when App is empty).
	Audit []audit.Event `json:"audit"`
	// Health is every registered obs health provider.
	Health map[string]interface{} `json:"health"`
	// Metrics is the default registry's full series snapshot; automatic
	// captures within a second of each other share one (read-only).
	Metrics []obs.SeriesSnapshot `json:"metrics"`
	// Runtime is the Go runtime's state.
	Runtime RuntimeStats `json:"runtime"`
	// Profiles is the continuous profiler's capture index (obs/prof),
	// when one is running: the delta pprof captures joined to this
	// diagnosis, newest first.
	Profiles interface{} `json:"profiles,omitempty"`
}

// BundleInfo is the listing view of a retained bundle.
type BundleInfo struct {
	ID      string    `json:"id"`
	Time    time.Time `json:"time"`
	Trigger Trigger   `json:"trigger"`
	App     string    `json:"app,omitempty"`
	Corr    uint64    `json:"corr,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	Frames  int       `json:"frames"`
}

// bundleFrameLimit bounds the frame tail a bundle carries.
const bundleFrameLimit = 512

// bundleAuditLimit bounds the audit tail a bundle carries.
const bundleAuditLimit = 256

// bundleRetain is how many bundles the in-memory ring keeps.
const bundleRetain = 16

// defaultCooldown rate-limits automatic captures per (app, trigger):
// a flapping detector must not turn the bundler into the overhead.
const defaultCooldown = 30 * time.Second

// metricsShareWindow is how long automatic captures keep sharing one
// registry snapshot. A storm that trips a trigger for every hosted
// tenant at once builds a bundle per tenant inside a second or two, and
// the registry snapshot — most of a bundle, and the same for all of them
// — would otherwise sit in the ring once per bundle.
const metricsShareWindow = time.Second

// Bundler captures and retains diagnostic bundles.
type Bundler struct {
	mu       sync.Mutex
	recent   []*Bundle // newest last, bounded by bundleRetain
	last     map[string]time.Time
	cooldown time.Duration
	seq      atomic.Uint64
	// metrics is the registry snapshot of the last capture, taken at
	// metricsAt; see metricsShareWindow. Never mutated once taken.
	metrics   []obs.SeriesSnapshot
	metricsAt time.Time

	dirMu sync.Mutex
	dir   string

	writeErrs atomic.Uint64
}

// defBundler is the process-wide bundler behind /debug/bundle and the
// package-level Capture.
var defBundler = &Bundler{last: make(map[string]time.Time), cooldown: defaultCooldown}

// DefaultBundler returns the process-wide bundler.
func DefaultBundler() *Bundler { return defBundler }

// SetBundleDir sets the directory automatic and manual captures are
// written to as <id>.json ("" disables writing, the default). The
// directory is created if missing.
func SetBundleDir(dir string) error { return defBundler.SetDir(dir) }

// SetDir sets the bundler's output directory ("" disables).
func (b *Bundler) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("recorder: bundle dir: %w", err)
		}
	}
	b.dirMu.Lock()
	b.dir = dir
	b.dirMu.Unlock()
	return nil
}

// SetCooldown adjusts the per-(app,trigger) capture rate limit; d <= 0
// disables rate limiting (tests).
func (b *Bundler) SetCooldown(d time.Duration) {
	b.mu.Lock()
	b.cooldown = d
	b.mu.Unlock()
}

// WriteErrors reports failed bundle-file writes.
func (b *Bundler) WriteErrors() uint64 { return b.writeErrs.Load() }

// Capture builds a bundle on the default bundler. It returns nil when
// the (app, trigger) pair is inside its cooldown window — automatic
// triggers may fire in bursts; the first capture is the valuable one.
func Capture(trigger Trigger, app string, corr uint64, detail string) *Bundle {
	return defBundler.Capture(trigger, app, corr, detail)
}

// Capture builds, retains and (when a directory is set) persists one
// bundle. Manual captures bypass the cooldown.
func (b *Bundler) Capture(trigger Trigger, app string, corr uint64, detail string) *Bundle {
	now := time.Now()
	key := app + "\x00" + string(trigger)
	b.mu.Lock()
	if trigger != TriggerManual && b.cooldown > 0 {
		if prev, ok := b.last[key]; ok && now.Sub(prev) < b.cooldown {
			b.mu.Unlock()
			return nil
		}
	}
	b.last[key] = now
	id := "b" + strconv.FormatUint(b.seq.Add(1), 10) + "-" + strconv.FormatInt(now.UnixNano(), 36)
	b.mu.Unlock()

	bundle := b.build(id, now, trigger, app, corr, detail)

	b.mu.Lock()
	b.recent = append(b.recent, bundle)
	if len(b.recent) > bundleRetain {
		b.recent = b.recent[len(b.recent)-bundleRetain:]
	}
	b.mu.Unlock()

	b.dirMu.Lock()
	dir := b.dir
	b.dirMu.Unlock()
	if dir != "" {
		if err := b.writeFile(dir, bundle); err != nil {
			b.writeErrs.Add(1)
		}
	}
	notifyCapture(trigger, app, corr, detail)
	return bundle
}

// build assembles the capture. Everything here reads live registries;
// nothing blocks beyond their snapshot locks.
func (b *Bundler) build(id string, now time.Time, trigger Trigger, app string, corr uint64, detail string) *Bundle {
	bundle := &Bundle{
		ID:      id,
		Time:    now,
		Trigger: trigger,
		App:     app,
		Corr:    corr,
		Detail:  detail,
		Frames:  def.Snapshot(FrameFilter{App: app, Limit: bundleFrameLimit}),
		Usage:   usageSnapshots(),
		Health:  obs.HealthSnapshots(),
		Metrics: b.metricsSnapshot(now, trigger),
	}
	if fn := profilesProvider.Load(); fn != nil {
		bundle.Profiles = (*fn)()
	}
	if corr != 0 {
		bundle.CorrFrames = def.Snapshot(FrameFilter{Corr: corr})
	}
	if app != "" {
		snap := audit.DefaultDetector().Lookup(app)
		bundle.Anomaly = &snap
	}
	bundle.Audit = audit.Default().Query(audit.Filter{App: app, Limit: bundleAuditLimit})

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bundle.Runtime = RuntimeStats{
		Goroutines:   runtime.NumGoroutine(),
		HeapAlloc:    ms.HeapAlloc,
		HeapObjects:  ms.HeapObjects,
		TotalAlloc:   ms.TotalAlloc,
		NumGC:        ms.NumGC,
		GCPauseTotal: time.Duration(ms.PauseTotalNs),
	}
	return bundle
}

// metricsSnapshot returns the default registry's series: fresh for a
// manual capture, and for an automatic one unless another capture took
// one within metricsShareWindow.
func (b *Bundler) metricsSnapshot(now time.Time, trigger Trigger) []obs.SeriesSnapshot {
	b.mu.Lock()
	shared, at := b.metrics, b.metricsAt
	b.mu.Unlock()
	if trigger != TriggerManual && shared != nil && now.Sub(at) < metricsShareWindow {
		return shared
	}
	fresh := obs.Default().Snapshot()
	b.mu.Lock()
	b.metrics, b.metricsAt = fresh, now
	b.mu.Unlock()
	return fresh
}

func (b *Bundler) writeFile(dir string, bundle *Bundle) error {
	data, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, bundle.ID+".json"), data, 0o644)
}

// Recent lists retained bundles, newest first.
func (b *Bundler) Recent() []BundleInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BundleInfo, 0, len(b.recent))
	for i := len(b.recent) - 1; i >= 0; i-- {
		bu := b.recent[i]
		out = append(out, BundleInfo{
			ID: bu.ID, Time: bu.Time, Trigger: bu.Trigger,
			App: bu.App, Corr: bu.Corr, Detail: bu.Detail, Frames: len(bu.Frames),
		})
	}
	return out
}

// Get returns a retained bundle by ID, nil when evicted or unknown.
func (b *Bundler) Get(id string) *Bundle {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bu := range b.recent {
		if bu.ID == id {
			return bu
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Usage providers

// usageProviders maps a component name (e.g. "shield-1") to a callback
// returning its per-app resource usage — the same extension pattern as
// obs health providers. /apps and bundles pull every provider live.
var (
	usageMu        sync.Mutex
	usageProviders = make(map[string]func() interface{})
)

// RegisterUsage installs a named live per-app usage provider and
// returns its unregister function. Registering an existing name
// replaces it.
func RegisterUsage(name string, fn func() interface{}) (unregister func()) {
	usageMu.Lock()
	usageProviders[name] = fn
	usageMu.Unlock()
	return func() {
		usageMu.Lock()
		delete(usageProviders, name)
		usageMu.Unlock()
	}
}

// usageSnapshots pulls every registered provider.
func usageSnapshots() map[string]interface{} {
	usageMu.Lock()
	names := make([]string, 0, len(usageProviders))
	fns := make(map[string]func() interface{}, len(usageProviders))
	for n, fn := range usageProviders {
		names = append(names, n)
		fns[n] = fn
	}
	usageMu.Unlock()
	sort.Strings(names)
	out := make(map[string]interface{}, len(names))
	for _, n := range names {
		out[n] = fns[n]()
	}
	return out
}

// ---------------------------------------------------------------------------
// Profiler integration

// profilesProvider supplies the Profiles section of every bundle; set by
// obs/prof when a profiler starts. The indirection keeps recorder free
// of any prof dependency (prof imports recorder, never the reverse).
var profilesProvider atomic.Pointer[func() interface{}]

// SetProfilesProvider installs (or, with nil, clears) the callback whose
// result every future bundle embeds as its "profiles" section.
func SetProfilesProvider(fn func() interface{}) {
	if fn == nil {
		profilesProvider.Store(nil)
		return
	}
	profilesProvider.Store(&fn)
}

// captureObservers are notified after every completed (non-suppressed)
// bundle capture. obs/prof joins profile captures to diagnostic events
// through this hook. Observers run on the capturing goroutine and must
// not block — spawn a goroutine for anything slow.
var (
	captureObsMu sync.Mutex
	captureObs   []*func(trigger Trigger, app string, corr uint64, detail string)
)

// OnCapture registers a bundle-capture observer and returns its
// unregister function.
func OnCapture(fn func(trigger Trigger, app string, corr uint64, detail string)) (unregister func()) {
	p := &fn
	captureObsMu.Lock()
	captureObs = append(captureObs, p)
	captureObsMu.Unlock()
	return func() {
		captureObsMu.Lock()
		for i, q := range captureObs {
			if q == p {
				captureObs = append(captureObs[:i], captureObs[i+1:]...)
				break
			}
		}
		captureObsMu.Unlock()
	}
}

func notifyCapture(trigger Trigger, app string, corr uint64, detail string) {
	captureObsMu.Lock()
	observers := make([]*func(Trigger, string, uint64, string), len(captureObs))
	copy(observers, captureObs)
	captureObsMu.Unlock()
	for _, fn := range observers {
		(*fn)(trigger, app, corr, detail)
	}
}

// ---------------------------------------------------------------------------
// Anomaly wiring

// The denial-rate detector is the third automatic trigger (next to
// quota breaches and quarantines, which the isolation layer fires).
// Wiring it here keeps audit free of any recorder dependency.
func init() {
	audit.DefaultDetector().SetOnFlag(func(app string, snap audit.AnomalySnapshot) {
		Record(Frame{
			TS:   time.Now().UnixNano(),
			Kind: KindAnomaly,
			Code: CodeFlagged,
			App:  Intern(app),
			Arg:  int64(snap.EWMA),
		})
		detail := fmt.Sprintf("denial-rate anomaly: ewma=%.1f window=%d total=%d",
			snap.EWMA, snap.WindowDenies, snap.TotalDenies)
		// The callback runs on the journal drain goroutine and must
		// not block; capture in the background.
		go Capture(TriggerAnomaly, app, 0, detail)
	})
}
